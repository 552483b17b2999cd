// Distributed: one primary node, a client that writes to it over TCP, and a
// read replica that follows it — in one process.  The writer commits and
// branches through forkbase.Remote; the replica converges by Merkle-delta
// sync (forkbase.WithFollow) and serves the same versions from its own store.
package main

import (
	"fmt"
	"log"
	"time"

	"forkbase"
)

func main() {
	// The primary (in production a `forkbased -listen` process): a DB
	// serving its TCP chunk/branch service.
	primary := forkbase.MustOpen(forkbase.InMemory())
	defer primary.Close()
	srv := primary.NewServer(nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Println("primary listening on", addr)

	// A writer runs the engine in its own process over the primary's store
	// and branch table.
	writer := forkbase.MustOpen(forkbase.Remote(addr))
	defer writer.Close()

	entries := make([]forkbase.Entry, 3000)
	for i := range entries {
		entries[i] = forkbase.Entry{
			Key: []byte(fmt.Sprintf("sensor-%05d", i)),
			Val: []byte(fmt.Sprintf("reading-%d", i*37)),
		}
	}
	ver, err := writer.PutMap("telemetry", "", entries, map[string]string{"site": "lab-1"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("writer committed", ver.UID.Short(), "to the primary")

	if err := writer.Branch("telemetry", "calibration", ""); err != nil {
		log.Fatal(err)
	}
	entries[0].Val = []byte("recalibrated")
	if _, err := writer.PutMap("telemetry", "calibration", entries, nil); err != nil {
		log.Fatal(err)
	}
	deltas, stats, err := writer.DiffBranches("telemetry", "master", "calibration")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("writer: %d delta(s) on the calibration branch (%d pages fetched)\n",
		len(deltas), stats.TouchedChunks)
	for _, d := range deltas {
		fmt.Printf("  %s %s: %q -> %q\n", d.Kind(), d.Key, d.From, d.To)
	}

	// A read replica tails the primary's change feed and pulls only the
	// chunks it lacks, verifying each before it lands.  WaitSynced is the
	// read-your-writes fence: everything the primary had is now local.
	replica := forkbase.MustOpen(forkbase.WithFollow(addr))
	defer replica.Close()
	if err := replica.WaitSynced(10 * time.Second); err != nil {
		log.Fatal(err)
	}
	got, err := replica.Get("telemetry", "calibration")
	if err != nil {
		log.Fatal(err)
	}
	ix, err := replica.IndexOf(got)
	if err != nil {
		log.Fatal(err)
	}
	v, err := ix.Get([]byte("sensor-00000"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("replica read sensor-00000 =", string(v), "at", got.UID.Short())

	// Tamper evidence survives replication: the replica deep-verifies the
	// writer's first version from its own store.
	if _, err := replica.VerifyVersion("telemetry", ver.UID, true); err != nil {
		log.Fatal(err)
	}
	fmt.Println("replica verification: OK")

	// The replica serves reads only.
	if _, err := replica.PutString("telemetry", "master", "x", nil); err == nil {
		log.Fatal("replica accepted a write")
	} else {
		fmt.Println("replica refuses writes:", err)
	}
}
