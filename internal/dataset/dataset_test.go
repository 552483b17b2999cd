package dataset

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"forkbase/internal/chunk"
	"forkbase/internal/chunker"
	"forkbase/internal/core"
	"forkbase/internal/index"
	"forkbase/internal/pos"
	"forkbase/internal/value"
)

func newDB() *core.DB {
	return core.Open(core.Options{Chunking: chunker.SmallConfig()})
}

func sampleSchema() Schema {
	return Schema{Columns: []string{"id", "name", "city"}, KeyColumn: 0}
}

func sampleRows(n int) []Row {
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{
			"id-" + pad(i),
			"name-" + pad(i),
			"city-" + pad(i%10),
		}
	}
	return rows
}

func pad(i int) string {
	s := "00000" + itoa(i)
	return s[len(s)-5:]
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

func TestSchemaValidate(t *testing.T) {
	bad := []Schema{
		{},
		{Columns: []string{"a"}, KeyColumn: 1},
		{Columns: []string{"a"}, KeyColumn: -1},
		{Columns: []string{"a", "a"}, KeyColumn: 0},
		{Columns: []string{"a", ""}, KeyColumn: 0},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Fatalf("case %d validated", i)
		}
	}
	if err := sampleSchema().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSchemaEncodeParse(t *testing.T) {
	s := sampleSchema()
	got, err := ParseSchema(s.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !schemaEqual(s, got) {
		t.Fatalf("round trip: %+v", got)
	}
	if _, err := ParseSchema("garbage"); err == nil {
		t.Fatal("parsed garbage")
	}
}

func TestCreateOpenGetScan(t *testing.T) {
	db := newDB()
	ds, err := Create(db, "people", "", sampleSchema(), sampleRows(100), nil)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Rows() != 100 {
		t.Fatalf("rows = %d", ds.Rows())
	}
	row, err := ds.Get("id-00042")
	if err != nil {
		t.Fatal(err)
	}
	if row[1] != "name-00042" {
		t.Fatalf("row = %v", row)
	}

	reopened, err := Open(db, "people", "master")
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	prev := ""
	err = reopened.Scan(func(r Row) bool {
		if prev != "" && r[0] <= prev {
			t.Fatalf("scan out of order: %q after %q", r[0], prev)
		}
		prev = r[0]
		count++
		return true
	})
	if err != nil || count != 100 {
		t.Fatalf("scan count=%d err=%v", count, err)
	}
}

func TestRowWidthMismatch(t *testing.T) {
	db := newDB()
	_, err := Create(db, "bad", "", sampleSchema(), []Row{{"only-one-cell"}}, nil)
	if err == nil {
		t.Fatal("narrow row accepted")
	}
}

func TestUpdateRows(t *testing.T) {
	db := newDB()
	ds, err := Create(db, "people", "", sampleSchema(), sampleRows(50), nil)
	if err != nil {
		t.Fatal(err)
	}
	ds2, err := ds.UpdateRows(
		[]Row{{"id-00007", "renamed", "moved"}, {"id-new01", "fresh", "town"}},
		[]string{"id-00003"},
		map[string]string{"msg": "edits"},
	)
	if err != nil {
		t.Fatal(err)
	}
	if ds2.Rows() != 50 { // +1 insert, -1 delete, 1 in-place update
		t.Fatalf("rows = %d", ds2.Rows())
	}
	row, err := ds2.Get("id-00007")
	if err != nil || row[1] != "renamed" {
		t.Fatalf("update lost: %v %v", row, err)
	}
	if _, err := ds2.Get("id-00003"); err == nil {
		t.Fatal("deleted row still present")
	}
	// Old version untouched (immutability).
	if _, err := ds.Get("id-00003"); err != nil {
		t.Fatalf("old version lost row: %v", err)
	}
	// Version chain grew.
	if ds2.Version().Seq != ds.Version().Seq+1 {
		t.Fatalf("seq %d -> %d", ds.Version().Seq, ds2.Version().Seq)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	db := newDB()
	csvIn := "id,name,city\nu1,Ann,Oslo\nu2,Bo,Rio\nu3,Cy,Ube\n"
	ds, err := CreateFromCSV(db, "users", "", "id", strings.NewReader(csvIn), nil)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Rows() != 3 {
		t.Fatalf("rows = %d", ds.Rows())
	}
	row, err := ds.Get("u2")
	if err != nil || row[1] != "Bo" {
		t.Fatalf("row = %v err=%v", row, err)
	}
	var buf bytes.Buffer
	if err := ds.ExportCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != csvIn {
		t.Fatalf("export = %q, want %q", buf.String(), csvIn)
	}
}

func TestCSVErrors(t *testing.T) {
	db := newDB()
	if _, err := CreateFromCSV(db, "x", "", "missing", strings.NewReader("a,b\n1,2\n"), nil); err == nil {
		t.Fatal("missing key column accepted")
	}
	if _, err := CreateFromCSV(db, "x", "", "a", strings.NewReader("a,b\n1\n"), nil); err == nil {
		t.Fatal("ragged CSV accepted")
	}
	if _, err := CreateFromCSV(db, "x", "", "a", strings.NewReader(""), nil); err == nil {
		t.Fatal("empty CSV accepted")
	}
}

func TestOpenNonDataset(t *testing.T) {
	db := newDB()
	v, err := value.NewMap(db.Store(), db.Chunking(), []pos.Entry{{Key: []byte("k"), Val: []byte("v")}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Put("plain", "", v, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(db, "plain", "master"); err == nil {
		t.Fatal("opened a schemaless object as dataset")
	}
}

func TestDiffBranchesCellLevel(t *testing.T) {
	db := newDB()
	ds, err := Create(db, "people", "", sampleSchema(), sampleRows(200), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Branch("people", "vendor", ""); err != nil {
		t.Fatal(err)
	}
	vds, err := Open(db, "people", "vendor")
	if err != nil {
		t.Fatal(err)
	}
	_, err = vds.UpdateRows(
		[]Row{{"id-00010", "name-00010", "NEWCITY"}, {"id-extra", "who", "where"}},
		[]string{"id-00100"},
		nil,
	)
	if err != nil {
		t.Fatal(err)
	}

	res, err := DiffBranches(db, "people", "master", "vendor")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Deltas) != 3 {
		t.Fatalf("deltas = %d: %+v", len(res.Deltas), res.Deltas)
	}
	byKey := map[string]RowDelta{}
	for _, d := range res.Deltas {
		byKey[d.Key] = d
	}
	mod := byKey["id-00010"]
	if mod.Kind != index.Modified || len(mod.Cells) != 1 || mod.Cells[0].Column != "city" || mod.Cells[0].To != "NEWCITY" {
		t.Fatalf("modified delta = %+v", mod)
	}
	if byKey["id-extra"].Kind != index.Added || byKey["id-00100"].Kind != index.Removed {
		t.Fatalf("kinds wrong: %+v", byKey)
	}
	if res.Summary() == "" || !strings.Contains(res.Summary(), "1 added") {
		t.Fatalf("summary = %q", res.Summary())
	}
	_ = ds
}

func TestStat(t *testing.T) {
	db := newDB()
	ds, err := Create(db, "people", "", sampleSchema(), sampleRows(500), nil)
	if err != nil {
		t.Fatal(err)
	}
	ds, err = ds.UpdateRows([]Row{{"id-00001", "x", "y"}}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := ds.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if st.Rows != 500 || st.Columns != 3 || st.Versions != 2 || st.Tree.Nodes == 0 {
		t.Fatalf("stat = %+v", st)
	}
}

func TestOpenVersionHistorical(t *testing.T) {
	db := newDB()
	ds, err := Create(db, "hist", "", sampleSchema(), sampleRows(20), nil)
	if err != nil {
		t.Fatal(err)
	}
	v1 := ds.Version()
	ds2, err := ds.UpdateRows([]Row{{"id-00001", "renamed", "moved"}}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Open the historical version: content is frozen at v1.
	old, err := OpenVersion(db, "hist", v1)
	if err != nil {
		t.Fatal(err)
	}
	row, err := old.Get("id-00001")
	if err != nil || row[1] != "name-00001" {
		t.Fatalf("historical row = %v, %v", row, err)
	}
	cur, err := ds2.Get("id-00001")
	if err != nil || cur[1] != "renamed" {
		t.Fatalf("current row = %v, %v", cur, err)
	}
	// Wrong key is rejected.
	if _, err := OpenVersion(db, "other", v1); err == nil {
		t.Fatal("cross-key OpenVersion succeeded")
	}
	// Stat on a branchless handle reports zero versions but full tree data.
	st, err := old.Stat()
	if err != nil || st.Versions != 0 || st.Rows != 20 {
		t.Fatalf("historical stat = %+v, %v", st, err)
	}
}

func TestDiffIdenticalDatasets(t *testing.T) {
	db := newDB()
	_, err := Create(db, "same", "", sampleSchema(), sampleRows(50), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Branch("same", "copy", ""); err != nil {
		t.Fatal(err)
	}
	res, err := DiffBranches(db, "same", "master", "copy")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Deltas) != 0 || res.Stats.TouchedChunks != 0 {
		t.Fatalf("identical branches diff = %+v", res)
	}
}

func TestAppendCSV(t *testing.T) {
	db := newDB()
	ds, err := Create(db, "people", "", sampleSchema(), sampleRows(20), nil)
	if err != nil {
		t.Fatal(err)
	}
	delta := "id,name,city\nid-00005,renamed,city-5\nid-9999,newrow,nowhere\n"
	ds2, err := ds.AppendCSV(strings.NewReader(delta), map[string]string{"source": "delta"})
	if err != nil {
		t.Fatal(err)
	}
	if ds2.Rows() != 21 {
		t.Fatalf("rows = %d", ds2.Rows())
	}
	row, err := ds2.Get("id-00005")
	if err != nil {
		t.Fatal(err)
	}
	if row[1] != "renamed" {
		t.Fatalf("upsert lost: %v", row)
	}
	if _, err := ds2.Get("id-9999"); err != nil {
		t.Fatalf("appended row missing: %v", err)
	}
	if ds2.Version().Meta["source"] != "delta" {
		t.Fatal("meta lost")
	}
	// The new version derives from the old one.
	if len(ds2.Version().Bases) != 1 || ds2.Version().Bases[0] != ds.Version().UID {
		t.Fatal("append did not chain versions")
	}

	// Mismatched headers reject.
	if _, err := ds2.AppendCSV(strings.NewReader("id,wrong\n1,2\n"), nil); err == nil {
		t.Fatal("mismatched header accepted")
	}
	if _, err := ds2.AppendCSV(strings.NewReader("name,id,city\nx,y,z\n"), nil); err == nil {
		t.Fatal("reordered header accepted")
	}
}

// hostileRows are stored row encodings encodeRow never writes: a row is a
// map entry's value, which any writer can store.
func hostileRows() map[string][]byte {
	return map[string][]byte{
		"row count 2^62":            binary.AppendUvarint(nil, 1<<62),
		"row count past the bytes":  {3, 1, 'a'},
		"zero-padded cell length":   {1, 0x81, 0x00, 'a'},
		"zero-padded row count":     {0x81, 0x00, 1, 'a'},
		"cell length past the row":  {1, 5, 'a'},
		"trailing byte after a row": {1, 1, 'a', 0},
		"empty":                     {},
	}
}

func TestDecodeRowRefusesHostileRows(t *testing.T) {
	for name, enc := range hostileRows() {
		if row, err := decodeRow(enc); err == nil {
			t.Errorf("%s: accepted as %q", name, row)
		}
	}
}

// FuzzDecodeRow: decodeRow reads bytes any writer can store.  It must not
// panic, must allocate by the input rather than by a count it read, and a
// row it accepts must re-encode to the bytes it came from.
func FuzzDecodeRow(f *testing.F) {
	for _, r := range append(sampleRows(3), Row{}, Row{""}, Row{strings.Repeat("x", 300), "é"}) {
		f.Add(encodeRow(r))
	}
	for _, enc := range hostileRows() {
		f.Add(enc)
	}
	f.Fuzz(func(t *testing.T, enc []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		row, err := decodeRow(enc)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<16+32*len(enc)); got > limit {
			t.Fatalf("%d-byte row allocated %d bytes (limit %d)", len(enc), got, limit)
		}
		if err == nil && !bytes.Equal(encodeRow(row), enc) {
			t.Fatalf("%x decoded to %q, which encodes as %x", enc, row, encodeRow(row))
		}
	})
}

// TestLongCSVLineCostsOneCopy: a line longer than the line reader's buffer
// is held once before the CSV reader buffers it, so an accepted 8 MiB line
// allocates about one copy more than encoding/csv alone (7.0× the body; 11×
// when the held line grew by doubling), and a line past chunk.MaxSize is
// refused having held at most chunk.MaxSize bytes.
func TestLongCSVLineCostsOneCopy(t *testing.T) {
	for _, tc := range []struct {
		line    int
		err     error
		perByte float64
	}{{8 << 20, nil, 8.5}, {chunk.MaxSize + 1, ErrLineTooLong, 1.1}} {
		body := []byte("id,v\n1," + strings.Repeat("x", tc.line-3) + "\n")
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := LoadCSV(bytes.NewReader(body), "id")
		runtime.ReadMemStats(&after)
		if !errors.Is(err, tc.err) {
			t.Fatalf("a %d-byte line: %v, want %v", tc.line, err, tc.err)
		}
		got := after.TotalAlloc - before.TotalAlloc
		if limit := uint64(tc.perByte * float64(len(body))); got > limit {
			t.Fatalf("a %d-byte line allocated %d bytes (%.2f× the body), want at most %.1f×", tc.line, got, float64(got)/float64(len(body)), tc.perByte)
		}
	}
}

// TestCSVWidthBound: a record wider than its header, and a header wider
// than maxColumns, are refused before the CSV reader parses them, with the
// separators inside quoted fields and blank lines between records not
// counted; a line of 1 MiB of commas costs about one copy of itself.
func TestCSVWidthBound(t *testing.T) {
	columns := func(n int) string {
		names := make([]string, n)
		for i := range names {
			names[i] = fmt.Sprintf("c%d", i)
		}
		names[0] = "id"
		return strings.Join(names, ",") + "\n"
	}
	for _, tc := range []struct {
		name, csv string
		err       error
	}{
		{"header at the bound", columns(maxColumns) + "1" + strings.Repeat(",", maxColumns-1) + "\n", nil},
		{"header past the bound", columns(maxColumns + 1), errTooWide},
		{"row one field wider", "id,v\n1,a,b\n", errTooWide},
		{"commas in quoted fields", "id,v\n1,\",,\n,,\"\n2,\"a \"\",\"\" b\"\n", nil},
		{"blank lines", "\r\n\nid,v\n\n1,a\n\n", nil},
		{"row of commas", "id,v\n1," + strings.Repeat(",", 1<<20) + "\n", errTooWide},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := LoadCSV(strings.NewReader(tc.csv), "id")
		runtime.ReadMemStats(&after)
		if !errors.Is(err, tc.err) {
			t.Errorf("%s: %v, want %v", tc.name, err, tc.err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; tc.err != nil && got > 2*uint64(len(tc.csv))+1<<16 {
			t.Errorf("%s: refusing %d bytes allocated %d", tc.name, len(tc.csv), got)
		}
	}
}

// csvSeeds are FuzzLoadCSV's seeds: the hostile-body rows (one line longer
// than the line reader's buffer, and one of commas), quoted fields holding
// newlines and quotes, a missing key column, duplicate keys, ragged rows,
// an empty key and CRLF line ends.
var csvSeeds = []string{
	"id,v\n1," + strings.Repeat("A", 8<<10) + "\n",
	"id,v\n2," + strings.Repeat("A", 8<<10) + "\n",
	"id,v\n1," + strings.Repeat(",", 8<<10) + "\n",
	"id,name\n1,\"two\nlines\"\n2,\"a \"\"quoted\"\" word\"\n3,\"crlf\r\nin a field\"\n",
	"key,v\n1,a\n",
	"id,v\n1,a\n1,b\n",
	"id,v\n1,a,extra\n2\n",
	"id\n\"\"\n",
	"v,id\r\nx,1\r\ny,0\r\n",
}

// FuzzLoadCSV: on any bytes LoadCSV neither panics nor allocates out of
// proportion to its input, and a table it accepts, stored with Create and
// written back with ExportCSV, loads again to the same schema and to the
// rows the dataset holds (the last row of a key, in key order).
func FuzzLoadCSV(f *testing.F) {
	for _, seed := range csvSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		schema, rows, err := LoadCSV(bytes.NewReader(in), "id")
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<16+256*len(in)); got > limit {
			t.Fatalf("%d bytes of CSV allocated %d bytes (limit %d)", len(in), got, limit)
		}
		if err != nil {
			return
		}
		ds, err := Create(newDB(), "d", "", schema, rows, nil)
		if err != nil {
			t.Fatalf("storing an accepted table: %v", err)
		}
		var out bytes.Buffer
		if err := ds.ExportCSV(&out); err != nil {
			t.Fatal(err)
		}
		schema2, rows2, err := LoadCSV(bytes.NewReader(out.Bytes()), "id")
		if err != nil {
			t.Fatalf("loading the export %q: %v", out.Bytes(), err)
		}
		held := map[string]Row{}
		for _, r := range rows {
			held[r[schema.KeyColumn]] = r
		}
		var want []Row
		for _, r := range held {
			want = append(want, r)
		}
		sort.Slice(want, func(i, j int) bool { return want[i][schema.KeyColumn] < want[j][schema.KeyColumn] })
		if !reflect.DeepEqual(schema2, schema) || !reflect.DeepEqual(rows2, want) {
			t.Fatalf("%q loaded as %v %q, exported as %q, which loads as %v %q", in, schema, want, out.Bytes(), schema2, rows2)
		}
	})
}
