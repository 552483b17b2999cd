package core

import (
	"testing"

	"forkbase/internal/obs"
	"forkbase/internal/store"
	"forkbase/internal/value"
)

// The instrumentation-overhead benchmarks: the same engine point get with
// metrics disabled (obs.Discard) and enabled, for local comparison with
// -bench.

func benchGetMem(b *testing.B, reg *obs.Registry) {
	db := Open(Options{Store: store.NewMemStore(), Branches: NewMemBranchTable(), Metrics: reg})
	defer db.Close()
	payload := make([]byte, 2048)
	if _, err := db.Put("k", "", value.String(string(payload)), nil); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Get("k", ""); err != nil {
			b.Fatal(err)
		}
	}
}

func benchGetFile(b *testing.B, reg *obs.Registry) {
	fs, err := store.OpenFileStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer fs.Close()
	db := Open(Options{Store: fs, Branches: NewMemBranchTable(), Metrics: reg})
	defer db.Close()
	payload := make([]byte, 2048)
	if _, err := db.Put("k", "", value.String(string(payload)), nil); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Get("k", ""); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGetMemBare(b *testing.B)   { benchGetMem(b, obs.Discard) }
func BenchmarkGetMemInstr(b *testing.B)  { benchGetMem(b, obs.NewRegistry()) }
func BenchmarkGetFileBare(b *testing.B)  { benchGetFile(b, obs.Discard) }
func BenchmarkGetFileInstr(b *testing.B) { benchGetFile(b, obs.NewRegistry()) }
