// Package workload generates the synthetic inputs that drive the
// experiment harness: CSV datasets mirroring the demo's vendor data
// (Fig 4/5), multi-version update streams (Table I), and skewed key
// distributions.
//
// Every generator is seeded and deterministic, so experiment runs are
// reproducible bit-for-bit — a requirement for content-addressed storage
// comparisons.
package workload

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"math/rand"

	"forkbase/internal/dataset"
)

// CSVSpec parameterises a synthetic CSV dataset.
type CSVSpec struct {
	Rows    int
	Columns int   // data columns in addition to the "id" key column
	Seed    int64 // deterministic content seed
	CellLen int   // approximate payload length per cell (default 12)
}

// words is a small vocabulary so generated cells resemble the text content
// of the paper's demo CSVs (and compress/dedup realistically).
var words = []string{
	"alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf",
	"hotel", "india", "juliet", "kilo", "lima", "mike", "november",
	"oscar", "papa", "quebec", "romeo", "sierra", "tango", "uniform",
	"victor", "whiskey", "xray", "yankee", "zulu",
}

// GenerateTable produces a schema and rows for the spec.  The first column
// "id" is the primary key.
func GenerateTable(spec CSVSpec) (dataset.Schema, []dataset.Row) {
	if spec.Columns <= 0 {
		spec.Columns = 4
	}
	if spec.CellLen <= 0 {
		spec.CellLen = 12
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	cols := make([]string, 0, spec.Columns+1)
	cols = append(cols, "id")
	for i := 0; i < spec.Columns; i++ {
		cols = append(cols, fmt.Sprintf("col%d", i+1))
	}
	schema := dataset.Schema{Columns: cols, KeyColumn: 0}
	rows := make([]dataset.Row, spec.Rows)
	for i := range rows {
		row := make(dataset.Row, len(cols))
		row[0] = fmt.Sprintf("id-%08d", i)
		for c := 1; c < len(cols); c++ {
			row[c] = cell(rng, spec.CellLen)
		}
		rows[i] = row
	}
	return schema, rows
}

func cell(rng *rand.Rand, approxLen int) string {
	var b bytes.Buffer
	for b.Len() < approxLen {
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(words[rng.Intn(len(words))])
	}
	return b.String()
}

// GenerateCSV renders the spec as CSV bytes (header + rows).
func GenerateCSV(spec CSVSpec) []byte {
	schema, rows := GenerateTable(spec)
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	w.Write(schema.Columns)
	for _, r := range rows {
		w.Write(r)
	}
	w.Flush()
	return buf.Bytes()
}

// CSVWithSingleWordEdit returns the spec's CSV and a copy in which exactly
// one word of one cell has been replaced — the Fig 4 scenario ("two external
// CSV datasets with a single-word difference in terms of text content").
func CSVWithSingleWordEdit(spec CSVSpec) (original, edited []byte) {
	original = GenerateCSV(spec)
	edited = bytes.Replace(original, []byte("alpha"), []byte("OMEGA"), 1)
	if bytes.Equal(original, edited) {
		// Vocabulary roulette: fall back to editing a fixed offset word.
		edited = append([]byte(nil), original...)
		if i := bytes.IndexByte(edited[len(edited)/2:], ' '); i >= 0 {
			copy(edited[len(edited)/2+i+1:], "EDITWORD")
		}
	}
	return original, edited
}

// MutateRows returns a copy of rows with a deterministic fraction of rows
// modified (one cell rewritten), plus optional inserts and deletes — the
// per-version churn of the Table I workload.
func MutateRows(schema dataset.Schema, rows []dataset.Row, modified, inserted, deleted int, seed int64) []dataset.Row {
	rng := rand.New(rand.NewSource(seed))
	out := make([]dataset.Row, len(rows))
	for i, r := range rows {
		cp := make(dataset.Row, len(r))
		copy(cp, r)
		out[i] = cp
	}
	// Modify distinct random rows.
	if modified > len(out) {
		modified = len(out)
	}
	for _, idx := range rng.Perm(len(out))[:modified] {
		col := 1 + rng.Intn(len(schema.Columns)-1)
		out[idx][col] = cell(rng, len(out[idx][col]))
	}
	// Delete from the tail of a random permutation.
	if deleted > len(out) {
		deleted = len(out)
	}
	if deleted > 0 {
		drop := map[int]bool{}
		for _, idx := range rng.Perm(len(out))[:deleted] {
			drop[idx] = true
		}
		kept := out[:0]
		for i, r := range out {
			if !drop[i] {
				kept = append(kept, r)
			}
		}
		out = kept
	}
	// Insert fresh rows with new ids.
	for i := 0; i < inserted; i++ {
		row := make(dataset.Row, len(schema.Columns))
		row[schema.KeyColumn] = fmt.Sprintf("id-new-%d-%08d", seed, i)
		for c := range row {
			if c != schema.KeyColumn {
				row[c] = cell(rng, 12)
			}
		}
		out = append(out, row)
	}
	return out
}
