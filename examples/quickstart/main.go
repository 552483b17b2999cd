// Quickstart: the Git-for-data workflow in ~60 lines — put, get, branch,
// edit, diff, merge, history.
package main

import (
	"fmt"
	"log"

	"forkbase"
)

func main() {
	db := forkbase.MustOpen(forkbase.InMemory())
	defer db.Close()

	// Put a map object on the default (master) branch.
	inventory := []forkbase.Entry{
		{Key: []byte("apples"), Val: []byte("100")},
		{Key: []byte("bananas"), Val: []byte("40")},
		{Key: []byte("cherries"), Val: []byte("7")},
	}
	v1, err := db.PutMap("inventory", "", inventory, map[string]string{"author": "alice"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("v1 uid:", v1.UID) // Base32 Merkle root — tamper-evident

	// Fork a branch: O(1), nothing is copied.
	if err := db.Branch("inventory", "restock", ""); err != nil {
		log.Fatal(err)
	}

	// Edit on the branch.
	restocked := append(inventory,
		forkbase.Entry{Key: []byte("bananas"), Val: []byte("140")},
		forkbase.Entry{Key: []byte("durians"), Val: []byte("3")},
	)
	if _, err := db.PutMap("inventory", "restock", restocked, map[string]string{"author": "bob"}); err != nil {
		log.Fatal(err)
	}

	// Differential query between branches: O(D log N).
	deltas, stats, err := db.DiffBranches("inventory", "master", "restock")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("diff master..restock (%d pages touched):\n", stats.TouchedChunks)
	for _, d := range deltas {
		fmt.Printf("  %-8s %s: %q -> %q\n", d.Kind(), d.Key, d.From, d.To)
	}

	// Merge back. Disjoint edits merge cleanly without any resolver.
	res, err := db.Merge("inventory", "master", "restock", nil, map[string]string{"message": "restock"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("merged:", res.Version.UID)

	// Read the merged state.
	head, err := db.Get("inventory", "master")
	if err != nil {
		log.Fatal(err)
	}
	ix, err := db.IndexOf(head)
	if err != nil {
		log.Fatal(err)
	}
	n, _ := ix.Get([]byte("bananas"))
	fmt.Println("bananas after merge:", string(n))

	// Full history, newest first.
	hist, err := db.History("inventory", "master", 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("history:")
	for _, v := range hist {
		fmt.Printf("  %s seq=%d author=%s %s\n", v.UID.Short(), v.Seq, v.Meta["author"], v.Meta["message"])
	}

	// Every version is tamper-evident: validate content + history by uid.
	if _, err := db.VerifyVersion("inventory", res.Version.UID, true); err != nil {
		log.Fatal(err)
	}
	fmt.Println("verification: OK")
	fmt.Println("storage:", db.Stats())
}
