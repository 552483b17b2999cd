// Tamper detection: the paper's §III-C workflow against a malicious storage
// provider.  The client keeps only the latest uid; the provider silently
// corrupts stored chunks; validation by uid catches every attack.
package main

import (
	"fmt"
	"log"
	"strings"

	"forkbase"
	"forkbase/internal/store"
)

func main() {
	// The storage provider is malicious (paper threat model §II-D): it
	// serves chunks but may corrupt or substitute them.
	provider := store.NewMaliciousStore(store.NewMemStore())
	db := forkbase.MustOpen(forkbase.WithStore(provider))
	defer db.Close()

	// Commit a document across a few versions; the client remembers only
	// the latest uid — that single Base32 string certifies everything.
	var head forkbase.Version
	var err error
	for i := 1; i <= 3; i++ {
		contract := strings.Repeat(fmt.Sprintf("contract v%d clause; ", i), 2000)
		head, err = db.PutBlob("contract", "", []byte(contract),
			map[string]string{"revision": fmt.Sprint(i)})
		if err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("trusted uid:", head.UID)

	// Clean validation: every chunk of the value and the full history is
	// fetched and re-hashed on the spot.
	rep, err := db.VerifyVersion("contract", head.UID, true)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("clean validation: OK (%d chunks, %d versions checked)\n",
		rep.ChunksChecked, rep.VersionsChecked)

	// The provider flips one bit in one chunk of the *current* value.
	ver, _ := db.Get("contract", "master")
	ids, err := ver.Value.ChunkIDs(provider, db.Chunking())
	if err != nil {
		log.Fatal(err)
	}
	target := ids[len(ids)/2]
	if _, err := provider.CorruptFlip(target, 100, 3); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nprovider flips one bit in chunk", target.Short(), "...")

	rep, err = db.VerifyVersion("contract", head.UID, true)
	if err == nil {
		log.Fatal("TAMPERING WENT UNDETECTED — this must never happen")
	}
	fmt.Printf("validation FAILED as it should: %v\n", err)
	for _, f := range rep.Failures {
		fmt.Printf("  corrupt chunk %s (%s)\n", f.ChunkID.Short(), f.Context)
	}

	// History attacks are equally hopeless: corrupt an old version...
	provider.Heal()
	hist, _ := db.History("contract", "master", 0)
	oldest := hist[len(hist)-1]
	if _, err := provider.CorruptFlip(oldest.UID, 5, 1); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nprovider rewrites revision 1 (history attack)...")
	if _, err := db.VerifyVersion("contract", head.UID, true); err == nil {
		log.Fatal("HISTORY TAMPERING WENT UNDETECTED")
	} else {
		fmt.Println("deep validation caught it:", err)
	}

	// Ordinary reads are also protected: Get verifies what it fetches.
	provider.Heal()
	if _, err := provider.CorruptFlip(head.UID, 0, 0); err != nil {
		log.Fatal(err)
	}
	if _, err := db.Get("contract", "master"); err == nil {
		log.Fatal("forged head accepted by Get")
	} else {
		fmt.Println("\nforged head rejected by plain Get:", err)
	}
}
