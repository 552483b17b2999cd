package forkbase_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"forkbase"
	"forkbase/internal/chunk"
	"forkbase/internal/core"
	"forkbase/internal/obs"
	"forkbase/internal/server"
)

// TestNodeBuiltFromDB drives the node forkbased runs: a file-backed primary
// serving NewServer, written to over TCP and through its engine, followed by
// a replica whose TCP service and REST API refuse writes.
func TestNodeBuiltFromDB(t *testing.T) {
	primary := forkbase.MustOpen(forkbase.FileBacked(t.TempDir()), forkbase.WithMetrics(obs.NewRegistry()))
	defer primary.Close()
	srv := primary.NewServer(nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// A remote client's commit is the primary's.
	client, err := forkbase.Open(forkbase.Remote(addr))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	remote, err := client.PutString("tcp", "", "over the wire", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := primary.Get("tcp", ""); err != nil || got.UID != remote.UID {
		t.Fatalf("primary Get after a remote commit = %v, %v; want %s", got.UID, err, remote.UID)
	}
	local, err := primary.PutString("engine", "", "in process", nil)
	if err != nil {
		t.Fatal(err)
	}

	// Both heads reach a replica of the server: the server's Apply and the
	// engine's land in one feed.
	replica, err := forkbase.OpenReplica(addr, forkbase.WithMetrics(obs.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	if err := replica.WaitSynced(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]forkbase.Hash{"tcp": remote.UID, "engine": local.UID} {
		if got, err := replica.Get(key, ""); err != nil || got.UID != want {
			t.Fatalf("replica Get(%s) = %v, %v; want %s", key, got.UID, err, want)
		}
	}

	// The replica's TCP service refuses chunk puts and head moves.
	rsrv := replica.NewServer(nil)
	raddr, err := rsrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer rsrv.Close()
	cl, err := server.Dial(raddr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	c := chunk.New(chunk.TypeBlobLeaf, []byte("refused"))
	if _, err := server.NewRemoteStore(cl).PutBatch([]*chunk.Chunk{c}); err == nil || !strings.Contains(err.Error(), "read-only replica") {
		t.Fatalf("replica PutChunks = %v, want the read-only error", err)
	}
	op := core.HeadOp{Key: "tcp", Branch: core.DefaultBranch, Any: true, Set: c.ID()}
	if _, err := server.NewRemoteBranchTable(cl).Apply([]core.HeadOp{op}); err == nil || !strings.Contains(err.Error(), "read-only replica") {
		t.Fatalf("replica Apply = %v, want the read-only error", err)
	}

	// The replica's REST API refuses writes and reports that it follows.
	api := httptest.NewServer(replica.NewHandler())
	defer api.Close()
	req, err := http.NewRequest(http.MethodPut, api.URL+"/v1/obj/k", strings.NewReader(`{"kind":"string","value":"v"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("replica PUT /v1/obj/k = %d, want 403", resp.StatusCode)
	}
	resp, err = http.Get(api.URL + "/v1/repl/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var status map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	if status["following"] != true {
		t.Fatalf("replica /v1/repl/status = %v, want following: true", status)
	}
}
