// Distributed: a three-node ForkBase cluster in one process — chunks are
// sharded by content hash across nodes, branch metadata lives on the
// master, and two independent clients collaborate through it.
package main

import (
	"fmt"
	"log"

	"forkbase"
	"forkbase/internal/cluster"
)

func main() {
	// Start three storage nodes (in production these are `forkbased`
	// processes on separate machines; each is a DB serving its TCP service).
	var addrs []string
	for i := 0; i < 3; i++ {
		node := forkbase.MustOpen(forkbase.InMemory())
		defer node.Close()
		srv := node.NewServer(nil)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		addrs = append(addrs, addr)
		fmt.Printf("node %d listening on %s\n", i, addr)
	}

	// Client 1 writes a dataset through the cluster.
	writer := forkbase.MustOpen(forkbase.Remote(addrs...))
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
	fmt.Println("committed", ver.UID.Short(), "through the cluster")

	// Chunks landed on every shard.
	cl, err := cluster.Connect(addrs)
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()
	for i, st := range cl.ShardStats() {
		fmt.Printf("  shard %d: %d chunks, %d bytes\n", i, st.UniqueChunks, st.PhysicalBytes)
	}

	// Client 2 — a different process in real life — reads and branches.
	reader := forkbase.MustOpen(forkbase.Remote(addrs...))
	defer reader.Close()
	got, err := reader.Get("telemetry", "master")
	if err != nil {
		log.Fatal(err)
	}
	tree, err := reader.MapOf(got)
	if err != nil {
		log.Fatal(err)
	}
	v, err := tree.Get([]byte("sensor-02999"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("client 2 read sensor-02999 =", string(v))

	if err := reader.Branch("telemetry", "calibration", ""); err != nil {
		log.Fatal(err)
	}
	entries[0].Val = []byte("recalibrated")
	if _, err := reader.PutMap("telemetry", "calibration", entries, nil); err != nil {
		log.Fatal(err)
	}

	// Client 1 sees the branch immediately (shared metadata master) and
	// diffs it — the diff only moves O(D log N) chunks over the network.
	deltas, stats, err := writer.DiffBranches("telemetry", "master", "calibration")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("client 1 sees %d delta(s) on the calibration branch (%d pages fetched)\n",
		len(deltas), stats.TouchedChunks)
	for _, d := range deltas {
		fmt.Printf("  %s %s: %q -> %q\n", d.Kind(), d.Key, d.From, d.To)
	}

	// Tamper evidence survives distribution: verify by uid over the wire.
	if _, err := writer.VerifyVersion("telemetry", ver.UID, true); err != nil {
		log.Fatal(err)
	}
	fmt.Println("remote verification: OK")
}
