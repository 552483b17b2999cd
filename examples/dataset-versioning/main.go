// Dataset versioning: the paper's demo scenario (Figs 4 & 5) end to end —
// load two nearly identical CSV datasets, watch deduplication keep the
// second load almost free, then run a differential query between branches.
package main

import (
	"bytes"
	"fmt"
	"log"

	"forkbase"
	"forkbase/internal/workload"
)

func main() {
	db := forkbase.MustOpen(forkbase.InMemory())
	defer db.Close()

	// Two ~340 KB CSVs differing by a single word (Fig 4 input).
	orig, edited := workload.CSVWithSingleWordEdit(workload.CSVSpec{
		Rows: 4000, Columns: 6, Seed: 2020, CellLen: 8,
	})
	fmt.Printf("CSV size: %.2f KB\n", float64(len(orig))/1024)

	before := db.Stats().PhysicalBytes
	ds1, err := db.LoadCSVDataset("dataset-1", "", "id", bytes.NewReader(orig), nil)
	if err != nil {
		log.Fatal(err)
	}
	afterFirst := db.Stats().PhysicalBytes
	fmt.Printf("loading dataset-1 (%d rows): +%.2f KB physical\n",
		ds1.Rows(), float64(afterFirst-before)/1024)

	ds2, err := db.LoadCSVDataset("dataset-2", "", "id", bytes.NewReader(edited), nil)
	if err != nil {
		log.Fatal(err)
	}
	afterSecond := db.Stats().PhysicalBytes
	fmt.Printf("loading dataset-2 (%d rows): +%.2f KB physical — dedup found the overlap\n",
		ds2.Rows(), float64(afterSecond-afterFirst)/1024)

	// Branch dataset-1 for VendorX and apply their corrections (Fig 5).
	if err := db.Branch("dataset-1", "VendorX", ""); err != nil {
		log.Fatal(err)
	}
	vendor, err := db.OpenDataset("dataset-1", "VendorX")
	if err != nil {
		log.Fatal(err)
	}
	row, err := vendor.Get("id-00000042")
	if err != nil {
		log.Fatal(err)
	}
	corrected := make(forkbase.Row, len(row))
	copy(corrected, row)
	corrected[2] = "corrected by vendor"
	if _, err := vendor.UpdateRows([]forkbase.Row{corrected}, []string{"id-00000099"},
		map[string]string{"author": "vendorx"}); err != nil {
		log.Fatal(err)
	}

	// Differential query: master vs VendorX, with cell-level highlighting.
	res, err := db.DiffDatasets("dataset-1", "master", "VendorX")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndiff master..VendorX: %s\n", res.Summary())
	for _, d := range res.Deltas {
		fmt.Printf("  %-9s %s", d.Kind, d.Key)
		for _, c := range d.Cells {
			fmt.Printf("  [%s: %q -> %q]", c.Column, c.From, c.To)
		}
		fmt.Println()
	}

	// Stat — rows, versions, tree shape (Fig 2 view of this dataset).
	st, err := vendor.Stat()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nVendorX stat: rows=%d columns=%d versions=%d tree-height=%d nodes=%d avg-leaf=%.0fB\n",
		st.Rows, st.Columns, st.Versions, st.Tree.Height, st.Tree.Nodes, st.Tree.AvgLeaf())
	fmt.Println("storage:", db.Stats())
}
