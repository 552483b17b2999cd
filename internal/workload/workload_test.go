package workload

import (
	"bytes"
	"testing"

	"forkbase/internal/dataset"
)

func TestGenerateTableDeterministic(t *testing.T) {
	spec := CSVSpec{Rows: 100, Columns: 3, Seed: 7}
	s1, r1 := GenerateTable(spec)
	s2, r2 := GenerateTable(spec)
	if len(s1.Columns) != 4 || s1.KeyColumn != 0 {
		t.Fatalf("schema = %+v", s1)
	}
	if s1.Encode() != s2.Encode() {
		t.Fatal("schema nondeterministic")
	}
	if len(r1) != 100 || len(r2) != 100 {
		t.Fatalf("rows = %d/%d", len(r1), len(r2))
	}
	for i := range r1 {
		for c := range r1[i] {
			if r1[i][c] != r2[i][c] {
				t.Fatalf("nondeterministic cell %d/%d", i, c)
			}
		}
	}
	_, r3 := GenerateTable(CSVSpec{Rows: 100, Columns: 3, Seed: 8})
	same := true
	for i := range r1 {
		if r1[i][1] != r3[i][1] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical content")
	}
}

func TestGenerateCSVParsesBack(t *testing.T) {
	data := GenerateCSV(CSVSpec{Rows: 50, Columns: 2, Seed: 3})
	schema, rows, err := dataset.LoadCSV(bytes.NewReader(data), "id")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 50 || len(schema.Columns) != 3 {
		t.Fatalf("parsed %d rows, %d cols", len(rows), len(schema.Columns))
	}
}

func TestCSVWithSingleWordEdit(t *testing.T) {
	orig, edited := CSVWithSingleWordEdit(CSVSpec{Rows: 200, Columns: 4, Seed: 2020})
	if bytes.Equal(orig, edited) {
		t.Fatal("edit is a no-op")
	}
	if len(orig) != len(edited) {
		// Replacement words are same length by construction.
		t.Fatalf("lengths differ: %d vs %d", len(orig), len(edited))
	}
	diff := 0
	for i := range orig {
		if orig[i] != edited[i] {
			diff++
		}
	}
	if diff > 8 {
		t.Fatalf("edit touched %d bytes, want a single word", diff)
	}
}

func TestMutateRows(t *testing.T) {
	schema, rows := GenerateTable(CSVSpec{Rows: 100, Columns: 2, Seed: 1})
	out := MutateRows(schema, rows, 5, 3, 2, 42)
	if len(out) != 100-2+3 {
		t.Fatalf("len = %d", len(out))
	}
	// Original rows must be untouched (deep copy).
	_, fresh := GenerateTable(CSVSpec{Rows: 100, Columns: 2, Seed: 1})
	for i := range rows {
		for c := range rows[i] {
			if rows[i][c] != fresh[i][c] {
				t.Fatal("MutateRows mutated its input")
			}
		}
	}
	// Deterministic.
	out2 := MutateRows(schema, rows, 5, 3, 2, 42)
	if len(out2) != len(out) {
		t.Fatal("nondeterministic mutate")
	}
	for i := range out {
		for c := range out[i] {
			if out[i][c] != out2[i][c] {
				t.Fatal("nondeterministic mutate content")
			}
		}
	}
}
