// Package chaos is ForkBase's deterministic fault-injection toolkit.  It
// exists so the failure paths the robustness layer claims to handle are
// exercised the same way the happy paths are: in ordinary `go test` runs,
// reproducibly, from a seed.
//
// Three fault surfaces, matching the three places real deployments fail:
//
//   - Proxy: a TCP man-in-the-middle between client and server that injects
//     latency, bandwidth caps, connection resets, one-way partitions and
//     mid-frame truncation — scripted by tests or driven by a seeded
//     Agitator for soak runs.
//   - FlakyStore: a store.Store wrapper injecting transient errors
//     (store.ErrUnavailable) on a schedule or during an outage, composing
//     with the existing counting/verifying/malicious wrappers.
//   - PanicAt: a crash-point hook for FileStore.SetCrashHook that simulates
//     a process crash at a named point of the rotate/compact lifecycle.
//
// Faults are injected on a schedule, never on a wall-clock coincidence:
// given the same seed and the same sequence of operations, the same faults
// fire.  (Thread interleaving still varies — determinism here means the
// fault *schedule* is reproducible, which is what makes a failing soak seed
// replayable.)
package chaos

import (
	"fmt"
	"sync/atomic"
)

// Crash is the panic value raised by PanicAt hooks, so tests can tell a
// simulated crash from a real bug when recovering.
type Crash struct {
	Point string
	Seg   int
}

func (c Crash) Error() string {
	return fmt.Sprintf("chaos: simulated crash at %s (segment %d)", c.Point, c.Seg)
}

// PanicAt returns a crash hook for store.FileStore.SetCrashHook that
// panics with a Crash value at the nth (1-based) hit of the named point.
// Recover it at the call site to simulate the process dying mid-operation,
// then reopen the store directory to exercise recovery.
func PanicAt(point string, nth int) func(string, int) {
	var hits atomic.Int32
	return func(p string, seg int) {
		if p != point {
			return
		}
		if int(hits.Add(1)) == nth {
			panic(Crash{Point: p, Seg: seg})
		}
	}
}
