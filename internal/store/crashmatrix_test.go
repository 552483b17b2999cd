package store

import (
	"bytes"
	"testing"

	"forkbase/internal/hash"
)

// crashSim is the panic value the matrix's crash hook throws — a stand-in
// for the process dying at a named lifecycle point.  The store object is
// abandoned afterwards (never Closed), so its unflushed buffers are lost
// exactly as a real crash would lose them.
type crashSim struct{ point string }

// TestCrashRecoveryMatrix systematically crashes at every named FileStore
// crash point, reopens the directory, runs a full scrub, and pins zero loss
// of acknowledged writes: every Put (or every sweep-survivor) that returned
// success before the crash reads back byte-identical after recovery, and the
// scrub finds no corruption to quarantine.
func TestCrashRecoveryMatrix(t *testing.T) {
	cases := []struct {
		name  string
		point string
		drive string // what exercises the point: "puts" rotate, "sweep" compact
	}{
		{"rotate-before-seal", CrashRotateBeforeSeal, "puts"},
		{"rotate-after-seal", CrashRotateAfterSeal, "puts"},
		{"compact-after-rewrite", CrashCompactAfterRewrite, "sweep"},
		{"compact-before-unlink", CrashCompactBeforeUnlink, "sweep"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := OpenFileStoreWith(dir, FileStoreOptions{SegmentSize: 4096})
			if err != nil {
				t.Fatal(err)
			}
			acked := make(map[hash.Hash]int) // id → fileChunk index, for content pinning
			crashed := false
			crash := func(fn func()) {
				defer func() {
					if r := recover(); r != nil {
						if _, ok := r.(crashSim); !ok {
							panic(r)
						}
						crashed = true
					}
				}()
				fn()
			}

			switch tc.drive {
			case "puts":
				s.SetCrashHook(func(point string, seg int) {
					if point == tc.point {
						panic(crashSim{point})
					}
				})
				for i := 0; i < 400 && !crashed; i++ {
					i := i
					crash(func() {
						c := fileChunk(i)
						if _, err := s.Put(c); err != nil {
							t.Fatal(err)
						}
						acked[c.ID()] = i
					})
				}
			case "sweep":
				for i := 0; i < 200; i++ {
					if _, err := s.Put(fileChunk(i)); err != nil {
						t.Fatal(err)
					}
				}
				keep := make(map[hash.Hash]bool)
				for i := 0; i < 100; i++ {
					id := fileChunk(i).ID()
					keep[id] = true
					acked[id] = i
				}
				s.SetCrashHook(func(point string, seg int) {
					if point == tc.point {
						panic(crashSim{point})
					}
				})
				crash(func() {
					if _, err := s.Sweep(func(id hash.Hash) bool { return keep[id] }); err != nil {
						t.Fatal(err)
					}
				})
			}
			if !crashed {
				t.Fatalf("crash point %s never fired", tc.point)
			}
			if len(acked) == 0 {
				t.Fatal("nothing acknowledged before the crash; matrix proves nothing")
			}

			// "Process death": the crashed store is abandoned, the directory
			// reopened cold.
			s2, err := OpenFileStoreWith(dir, FileStoreOptions{SegmentSize: 4096})
			if err != nil {
				t.Fatalf("reopen after %s crash: %v", tc.point, err)
			}
			defer s2.Close()

			st, err := s2.Scrub()
			if err != nil {
				t.Fatalf("scrub after %s crash: %v", tc.point, err)
			}
			if st.Corrupt != 0 || st.Unreadable != 0 || len(st.Lost) != 0 || st.QuarantinedSegments != 0 {
				t.Fatalf("crash at %s left damage the scrub had to quarantine: %+v", tc.point, st)
			}
			if err := s2.Health(); err != nil {
				t.Fatalf("unhealthy after %s crash: %v", tc.point, err)
			}

			vs := NewVerifyingStore(s2)
			for id, i := range acked {
				c, err := vs.Get(id)
				if err != nil {
					t.Fatalf("acked chunk %d lost after %s crash: %v", i, tc.point, err)
				}
				if !bytes.Equal(c.Data(), fileChunk(i).Data()) {
					t.Fatalf("acked chunk %d corrupted after %s crash", i, tc.point)
				}
			}
		})
	}
}
