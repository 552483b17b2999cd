// Package dataset layers relational datasets on top of the ForkBase engine:
// the "Dataset Management" and "Collaborative Analytics" applications of
// paper Fig 1 and the substrate for the Fig 4 (deduplication) and Fig 5
// (differential query) demonstrations.
//
// A dataset is a schema (ordered column names, one of them the primary key)
// plus a map POS-Tree from primary key to encoded row.  Because rows live in
// a structurally invariant tree, near-identical datasets share almost all
// pages, and branch/version diffs run in O(D log N).
package dataset

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"forkbase/internal/chunk"
	"forkbase/internal/codec"
	"forkbase/internal/core"
	"forkbase/internal/index"
	"forkbase/internal/pos"
	"forkbase/internal/value"
)

// Schema describes a dataset's columns.
type Schema struct {
	// Columns are the ordered column names.
	Columns []string
	// KeyColumn is the index (into Columns) of the primary key.
	KeyColumn int
}

// Validate checks structural sanity.
func (s Schema) Validate() error {
	if len(s.Columns) == 0 {
		return errors.New("dataset: schema has no columns")
	}
	if s.KeyColumn < 0 || s.KeyColumn >= len(s.Columns) {
		return fmt.Errorf("dataset: key column %d out of range", s.KeyColumn)
	}
	seen := map[string]bool{}
	for _, c := range s.Columns {
		if c == "" {
			return errors.New("dataset: empty column name")
		}
		if strings.Contains(c, ",") {
			return fmt.Errorf("dataset: column name %q holds a comma, which separates columns in Encode", c)
		}
		if seen[c] {
			return fmt.Errorf("dataset: duplicate column %q", c)
		}
		seen[c] = true
	}
	return nil
}

// Encode renders the schema as a single string (stored as object metadata).
func (s Schema) Encode() string {
	return fmt.Sprintf("%d|%s", s.KeyColumn, strings.Join(s.Columns, ","))
}

// ParseSchema decodes Schema.Encode output.
func ParseSchema(enc string) (Schema, error) {
	i := strings.IndexByte(enc, '|')
	if i < 0 {
		return Schema{}, fmt.Errorf("dataset: bad schema encoding %q", enc)
	}
	var key int
	if _, err := fmt.Sscanf(enc[:i], "%d", &key); err != nil {
		return Schema{}, fmt.Errorf("dataset: bad schema key column: %w", err)
	}
	s := Schema{Columns: strings.Split(enc[i+1:], ","), KeyColumn: key}
	if err := s.Validate(); err != nil {
		return Schema{}, err
	}
	return s, nil
}

// Row is one record, cell values ordered per the schema.
type Row []string

// encodeRow renders cells with uvarint length prefixes — deterministic, so
// identical rows encode identically and dedup page-wise.
func encodeRow(r Row) []byte {
	out := binary.AppendUvarint(nil, uint64(len(r)))
	for _, cell := range r {
		out = append(binary.AppendUvarint(out, uint64(len(cell))), cell...)
	}
	return out
}

// decodeRow parses encodeRow's form and refuses any other.  A row is a map
// entry's value, which any writer can store.
func decodeRow(data []byte) (Row, error) {
	r := codec.NewReader(data)
	row := make(Row, r.Count(1, -1)) // a cell is at least its length byte
	for i := range row {
		row[i] = string(r.Bytes())
	}
	if !r.Done() {
		return nil, errors.New("dataset: malformed row")
	}
	return row, nil
}

// metaSchema is the FNode meta key carrying the schema.
const metaSchema = "dataset.schema"

// Dataset is a handle to one version of a named dataset on a branch.
type Dataset struct {
	db     *core.DB
	Name   string
	Branch string
	Schema Schema
	ix     index.VersionedIndex
	ver    core.Version
}

// Create writes a new dataset (as the initial version on branch) from rows.
func Create(db *core.DB, name, branch string, schema Schema, rows []Row, meta map[string]string) (*Dataset, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	entries, err := rowEntries(schema, rows)
	if err != nil {
		return nil, err
	}
	if meta == nil {
		meta = map[string]string{}
	}
	meta[metaSchema] = schema.Encode()
	// Build + commit under the GC write fence so a concurrent collection
	// cannot sweep the freshly built row chunks before the head publishes.
	ver, err := db.BuildAndPut(name, branch, meta, func() (value.Value, error) {
		return db.NewMapValue(entries)
	})
	if err != nil {
		return nil, err
	}
	return open(db, name, branch, ver)
}

func rowEntries(schema Schema, rows []Row) ([]pos.Entry, error) {
	entries := make([]pos.Entry, 0, len(rows))
	for i, r := range rows {
		if len(r) != len(schema.Columns) {
			return nil, fmt.Errorf("dataset: row %d has %d cells, schema has %d columns", i, len(r), len(schema.Columns))
		}
		entries = append(entries, pos.Entry{
			Key: []byte(r[schema.KeyColumn]),
			Val: encodeRow(r),
		})
	}
	return entries, nil
}

// Open attaches to the current version of dataset name on branch.
func Open(db *core.DB, name, branch string) (*Dataset, error) {
	ver, err := db.Get(name, branch)
	if err != nil {
		return nil, err
	}
	return open(db, name, branch, ver)
}

// OpenVersion attaches to a specific historical version.  The returned
// handle has no branch, so Stat reports zero versions and UpdateRows writes
// to the default branch.
func OpenVersion(db *core.DB, name string, ver core.Version) (*Dataset, error) {
	if ver.Key != name {
		return nil, fmt.Errorf("dataset: version belongs to %q, not %q", ver.Key, name)
	}
	d, err := open(db, name, "", ver)
	if err != nil {
		return nil, err
	}
	d.Branch = ""
	return d, nil
}

func open(db *core.DB, name, branch string, ver core.Version) (*Dataset, error) {
	if branch == "" {
		branch = core.DefaultBranch
	}
	enc, ok := ver.Meta[metaSchema]
	if !ok {
		return nil, fmt.Errorf("dataset: object %q is not a dataset (no schema)", name)
	}
	schema, err := ParseSchema(enc)
	if err != nil {
		return nil, err
	}
	ix, err := ver.Value.Index(db.Store(), db.Chunking())
	if err != nil {
		return nil, err
	}
	return &Dataset{db: db, Name: name, Branch: branch, Schema: schema, ix: ix, ver: ver}, nil
}

// Version returns the dataset's version record.
func (d *Dataset) Version() core.Version { return d.ver }

// Rows returns the number of rows.
func (d *Dataset) Rows() uint64 { return d.ix.Len() }

// Index exposes the underlying versioned index — a POS-Tree or an MPT,
// whatever the dataset was written with (for stats and benchmarks).
func (d *Dataset) Index() index.VersionedIndex { return d.ix }

// Get returns the row with the given primary key.
func (d *Dataset) Get(key string) (Row, error) {
	raw, err := d.ix.Get([]byte(key))
	if err != nil {
		return nil, err
	}
	return decodeRow(raw)
}

// Scan calls fn for every row in primary-key order; fn returning false
// stops the scan.
func (d *Dataset) Scan(fn func(Row) bool) error {
	it, err := d.ix.Iterate()
	if err != nil {
		return err
	}
	for it.Next() {
		row, err := decodeRow(it.Entry().Val)
		if err != nil {
			return err
		}
		if !fn(row) {
			break
		}
	}
	return it.Err()
}

// UpdateRows writes a new version applying row upserts and deletions.
func (d *Dataset) UpdateRows(upserts []Row, deleteKeys []string, meta map[string]string) (*Dataset, error) {
	ops := make([]pos.Op, 0, len(upserts)+len(deleteKeys))
	for i, r := range upserts {
		if len(r) != len(d.Schema.Columns) {
			return nil, fmt.Errorf("dataset: upsert %d has %d cells, schema has %d columns", i, len(r), len(d.Schema.Columns))
		}
		ops = append(ops, pos.Put([]byte(r[d.Schema.KeyColumn]), encodeRow(r)))
	}
	for _, k := range deleteKeys {
		ops = append(ops, pos.Del([]byte(k)))
	}
	if meta == nil {
		meta = map[string]string{}
	}
	meta[metaSchema] = d.Schema.Encode()
	// The edit writes the new index chunks; fence them with the commit.
	ver, err := d.db.BuildAndPut(d.Name, d.Branch, meta, func() (value.Value, error) {
		newIx, err := d.ix.Apply(ops)
		if err != nil {
			return value.Value{}, err
		}
		return value.FromIndex(value.KindMap, newIx), nil
	})
	if err != nil {
		return nil, err
	}
	return open(d.db, d.Name, d.Branch, ver)
}

// AppendCSV bulk-upserts the rows of a CSV stream (header first, columns
// matching the dataset schema) as one new version — the incremental
// counterpart of CreateFromCSV for ongoing ingest.  Only the affected
// POS-Tree region is re-chunked, and the write flows through the batched
// sink, so appending a delta to a large dataset costs O(delta · log N) node
// reads and writes.
func (d *Dataset) AppendCSV(r io.Reader, meta map[string]string) (*Dataset, error) {
	header, rows, err := readCSV(r)
	if err != nil {
		return nil, err
	}
	if !slices.Equal(header, d.Schema.Columns) {
		return nil, fmt.Errorf("dataset: CSV header %q is not the schema's columns %q", header, d.Schema.Columns)
	}
	return d.UpdateRows(rows, nil, meta)
}

// Stat summarises the dataset (the Stat operation of paper Fig 1).
type Stat struct {
	Name     string
	Branch   string
	Rows     uint64
	Columns  int
	Versions int
	// Index is the structure backing the dataset's rows (pos or mpt).
	Index index.Kind
	Tree  index.Stats
}

// Stat computes dataset statistics.
func (d *Dataset) Stat() (Stat, error) {
	ts, err := d.ix.ComputeStats()
	if err != nil {
		return Stat{}, err
	}
	versions := 0
	if d.Branch != "" {
		hist, err := d.db.History(d.Name, d.Branch, 0)
		if err == nil {
			versions = len(hist)
		}
	}
	return Stat{
		Name:     d.Name,
		Branch:   d.Branch,
		Rows:     d.ix.Len(),
		Columns:  len(d.Schema.Columns),
		Versions: versions,
		Index:    d.ix.Kind(),
		Tree:     ts,
	}, nil
}

// --- CSV import/export ------------------------------------------------------

// ErrLineTooLong refuses a CSV line longer than chunk.MaxSize bytes, its
// newline included: no chunk could store its row.
var ErrLineTooLong = fmt.Errorf("dataset: CSV line longer than %d bytes", chunk.MaxSize)

// maxColumns bounds a CSV header's width: encoding/csv spends about 150
// bytes on each field of a record, so a line of commas would cost about 150
// times its length if its width were not refused before it is parsed.
const maxColumns = 4096

var errTooWide = fmt.Errorf("dataset: CSV record wider than its header, or a header wider than %d columns", maxColumns)

// readCSV reads a CSV stream's header and rows, each row as wide as the
// header.  It refuses a line longer than chunk.MaxSize (ErrLineTooLong), a
// record wider than the header or a header wider than maxColumns
// (errTooWide), and a cell holding "\r\n", which a CSV reader returns as
// "\n", so ExportCSV could not write the cell back.
func readCSV(r io.Reader) ([]string, []Row, error) {
	cr := csv.NewReader(&lineBound{br: bufio.NewReader(r)})
	cr.FieldsPerRecord = -1
	var header []string
	var rows []Row
	for line := 1; ; line++ {
		rec, err := cr.Read()
		switch {
		case line == 1 && err != nil:
			return nil, nil, fmt.Errorf("dataset: reading CSV header: %w", err)
		case errors.Is(err, io.EOF):
			return header, rows, nil
		case err != nil:
			return nil, nil, fmt.Errorf("dataset: CSV line %d: %w", line, err)
		case slices.ContainsFunc(rec, func(c string) bool { return strings.Contains(c, "\r\n") }):
			return nil, nil, fmt.Errorf("dataset: CSV line %d: a cell holds \\r\\n, which CSV reads back as \\n", line)
		case line == 1:
			header = rec
		case len(rec) != len(header):
			return nil, nil, fmt.Errorf("dataset: CSV line %d has %d fields, header has %d", line, len(rec), len(header))
		default:
			rows = append(rows, Row(rec))
		}
	}
}

// lineBound hands a reader's bytes on one whole line at a time, and refuses
// a line longer than chunk.MaxSize with ErrLineTooLong, or one that makes
// its record too wide with errTooWide, before any of it is handed on.  A
// line longer than br's buffer is held as copies of the parts br returns,
// so a line costs one copy more and one hostile line a bounded allocation
// instead of one the size of the stream.
type lineBound struct {
	br    *bufio.Reader
	parts [][]byte // the current line's parts; reused
	line  [][]byte // what is left of them to hand on
	err   error    // the error that ended the line

	quoted bool // the lines handed on end inside a quoted field
	fields int  // the fields of the record they began (0: none begun)
	width  int  // the header's fields (0: not read yet)
}

func (l *lineBound) Read(p []byte) (int, error) {
	if len(l.line) == 0 && l.err == nil {
		l.line, l.err = l.next()
	}
	if len(l.line) == 0 {
		return 0, l.err
	}
	n := copy(p, l.line[0])
	if l.line[0] = l.line[0][n:]; len(l.line[0]) == 0 {
		l.line = l.line[1:]
	}
	return n, nil
}

// next reads the next line, its newline included.  Its last part aliases
// br's buffer, which is read again only once the line has been handed on.
func (l *lineBound) next() ([][]byte, error) {
	parts, n := l.parts[:0], 0
	for {
		frag, err := l.br.ReadSlice('\n')
		if n += len(frag); n > chunk.MaxSize {
			return nil, ErrLineTooLong
		}
		if err != bufio.ErrBufferFull {
			if len(frag) > 0 {
				parts = append(parts, frag)
			}
			l.parts = parts
			if werr := l.count(parts); werr != nil {
				return nil, werr
			}
			return parts, err
		}
		parts = append(parts, bytes.Clone(frag))
	}
}

// count adds a line's fields, its separators outside quotes, to the record
// it begins or continues, and refuses the record once it is wider than the
// header, or the header once it is wider than maxColumns.  Toggling on each
// quote follows the CSV reader's state on every line it accepts (a doubled
// quote toggles twice; a quote out of place is an error it stops at), and a
// blank line between records is skipped, as the CSV reader skips it.
func (l *lineBound) count(line [][]byte) error {
	if len(line) == 0 || l.fields == 0 && len(line) == 1 && len(bytes.Trim(line[0], "\r\n")) == 0 {
		return nil
	}
	l.fields = max(l.fields, 1)
	for _, part := range line {
		for _, c := range part {
			switch {
			case c == '"':
				l.quoted = !l.quoted
			case c == ',' && !l.quoted:
				l.fields++
			}
		}
	}
	limit := l.width
	if limit == 0 { // the header's own bound
		limit = maxColumns
	}
	if l.fields > limit {
		return errTooWide
	}
	if !l.quoted { // the record ends with the line
		if l.width == 0 {
			l.width = l.fields
		}
		l.fields = 0
	}
	return nil
}

// LoadCSV reads a CSV stream (first record = header) into rows + schema.
// keyColumn names the primary-key column.  A line longer than
// chunk.MaxSize fails with ErrLineTooLong.
func LoadCSV(r io.Reader, keyColumn string) (Schema, []Row, error) {
	header, rows, err := readCSV(r)
	if err != nil {
		return Schema{}, nil, err
	}
	keyIdx := slices.Index(header, keyColumn)
	if keyIdx < 0 {
		return Schema{}, nil, fmt.Errorf("dataset: key column %q not in header %v", keyColumn, header)
	}
	schema := Schema{Columns: header, KeyColumn: keyIdx}
	if err := schema.Validate(); err != nil {
		return Schema{}, nil, err
	}
	return schema, rows, nil
}

// CreateFromCSV loads a CSV stream as a new dataset version.
func CreateFromCSV(db *core.DB, name, branch, keyColumn string, r io.Reader, meta map[string]string) (*Dataset, error) {
	schema, rows, err := LoadCSV(r, keyColumn)
	if err != nil {
		return nil, err
	}
	return Create(db, name, branch, schema, rows, meta)
}

// ExportCSV writes the dataset as CSV (header + rows in key order) — the
// Export operation of paper Fig 1.
func (d *Dataset) ExportCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(d.Schema.Columns); err != nil {
		return err
	}
	var writeErr error
	err := d.Scan(func(r Row) bool {
		if len(r) == 1 && r[0] == "" {
			// A lone empty cell is a blank line, which a CSV reader skips.
			cw.Flush()
			_, writeErr = io.WriteString(w, "\"\"\n")
		} else {
			writeErr = cw.Write(r)
		}
		return writeErr == nil
	})
	if err != nil {
		return err
	}
	if writeErr != nil {
		return writeErr
	}
	cw.Flush()
	return cw.Error()
}

// --- differential query -----------------------------------------------------

// CellChange pinpoints one changed cell within a modified row.
type CellChange struct {
	Column string
	From   string
	To     string
}

// RowDelta is one row-level difference, with cell-level refinement for
// modifications — the multi-scope highlighting of paper Fig 5.
type RowDelta struct {
	Key   string
	Kind  index.DeltaKind
	From  Row // nil for additions
	To    Row // nil for removals
	Cells []CellChange
}

// DiffResult is the output of a differential query.
type DiffResult struct {
	Deltas []RowDelta
	Stats  index.DiffStats
}

// Diff performs a differential query between two dataset versions (their
// schemas must agree column-wise for cell refinement; mismatched schemas
// fall back to whole-row deltas).
func Diff(from, to *Dataset) (DiffResult, error) {
	deltas, stats, err := from.ix.DiffWith(to.ix)
	if err != nil {
		return DiffResult{}, err
	}
	sameSchema := schemaEqual(from.Schema, to.Schema)
	out := make([]RowDelta, 0, len(deltas))
	for _, d := range deltas {
		rd := RowDelta{Key: string(d.Key), Kind: d.Kind()}
		if d.From != nil {
			row, err := decodeRow(d.From)
			if err != nil {
				return DiffResult{}, err
			}
			rd.From = row
		}
		if d.To != nil {
			row, err := decodeRow(d.To)
			if err != nil {
				return DiffResult{}, err
			}
			rd.To = row
		}
		if rd.Kind == index.Modified && sameSchema && len(rd.From) == len(rd.To) {
			for i := range rd.From {
				if rd.From[i] != rd.To[i] {
					rd.Cells = append(rd.Cells, CellChange{
						Column: from.Schema.Columns[i],
						From:   rd.From[i],
						To:     rd.To[i],
					})
				}
			}
		}
		out = append(out, rd)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return DiffResult{Deltas: out, Stats: stats}, nil
}

// DiffBranches runs a differential query between two branches of a dataset.
func DiffBranches(db *core.DB, name, fromBranch, toBranch string) (DiffResult, error) {
	from, err := Open(db, name, fromBranch)
	if err != nil {
		return DiffResult{}, err
	}
	to, err := Open(db, name, toBranch)
	if err != nil {
		return DiffResult{}, err
	}
	return Diff(from, to)
}

func schemaEqual(a, b Schema) bool {
	if a.KeyColumn != b.KeyColumn || len(a.Columns) != len(b.Columns) {
		return false
	}
	for i := range a.Columns {
		if a.Columns[i] != b.Columns[i] {
			return false
		}
	}
	return true
}

// Summary renders a short human-readable diff summary.
func (r DiffResult) Summary() string {
	var add, rem, mod int
	for _, d := range r.Deltas {
		switch d.Kind {
		case index.Added:
			add++
		case index.Removed:
			rem++
		default:
			mod++
		}
	}
	return fmt.Sprintf("%d added, %d removed, %d modified (%d pages touched)",
		add, rem, mod, r.Stats.TouchedChunks)
}
