package retry

import (
	"errors"
	"testing"
	"time"
)

func TestDoSucceedsAfterTransientFailures(t *testing.T) {
	p := Policy{Attempts: 5, Base: time.Millisecond, Max: 2 * time.Millisecond}
	calls := 0
	err := p.Do(nil, func() error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
}

func TestDoStopsOnPermanent(t *testing.T) {
	p := Policy{Attempts: 5, Base: time.Millisecond}
	sentinel := errors.New("stale head")
	calls := 0
	err := p.Do(nil, func() error {
		calls++
		return Permanent(sentinel)
	})
	if calls != 1 {
		t.Fatalf("permanent error retried: %d calls", calls)
	}
	if !errors.Is(err, sentinel) {
		t.Fatalf("lost the wrapped error: %v", err)
	}
	if !IsPermanent(err) {
		t.Fatalf("permanence not preserved: %v", err)
	}
}

func TestDoExhaustsAttempts(t *testing.T) {
	p := Policy{Attempts: 3, Base: time.Millisecond, Max: time.Millisecond}
	sentinel := errors.New("down")
	calls := 0
	err := p.Do(nil, func() error { calls++; return sentinel })
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
	var be *BudgetError
	if !errors.As(err, &be) || be.Attempts != 3 {
		t.Fatalf("want BudgetError with 3 attempts, got %v", err)
	}
	if !errors.Is(err, sentinel) {
		t.Fatalf("BudgetError must wrap the last error: %v", err)
	}
}

func TestDoStopChannelAborts(t *testing.T) {
	stop := make(chan struct{})
	close(stop)
	p := Policy{Attempts: 10, Base: time.Hour} // a real backoff would hang the test
	calls := 0
	err := p.Do(stop, func() error { calls++; return errors.New("down") })
	if calls != 1 {
		t.Fatalf("calls = %d, want 1 (stop aborts before the second attempt)", calls)
	}
	if err == nil {
		t.Fatal("want error after stop")
	}
}

func TestBackoffGrowsAndCaps(t *testing.T) {
	p := Policy{Base: 10 * time.Millisecond, Max: 80 * time.Millisecond, Jitter: -1}
	var prev time.Duration
	for n := 0; n < 10; n++ {
		d := p.Backoff(n)
		if d < prev && prev != p.Max {
			t.Fatalf("backoff shrank before the cap: n=%d %v -> %v", n, prev, d)
		}
		if d > p.Max {
			t.Fatalf("backoff %v exceeds cap %v", d, p.Max)
		}
		prev = d
	}
	if prev != 80*time.Millisecond {
		t.Fatalf("backoff never reached the cap: %v", prev)
	}
}

func TestBackoffJitterStaysInBand(t *testing.T) {
	p := Policy{Base: 100 * time.Millisecond, Max: time.Second, Jitter: 0.5}
	for i := 0; i < 100; i++ {
		d := p.Backoff(0)
		if d < 50*time.Millisecond || d > 150*time.Millisecond {
			t.Fatalf("jittered backoff %v outside ±50%% of 100ms", d)
		}
	}
}

func TestMaxElapsedBoundsDo(t *testing.T) {
	p := Policy{Attempts: 3, Base: 2 * time.Millisecond, Max: 4 * time.Millisecond, Timeout: time.Millisecond}
	bound := p.MaxElapsed()
	start := time.Now()
	_ = p.Do(nil, func() error {
		time.Sleep(p.Timeout) // an op that spends its whole per-attempt timeout
		return errors.New("down")
	})
	if elapsed := time.Since(start); elapsed > bound+50*time.Millisecond {
		t.Fatalf("Do ran %v, MaxElapsed promised %v", elapsed, bound)
	}
}

func TestPermanentNil(t *testing.T) {
	if Permanent(nil) != nil {
		t.Fatal("Permanent(nil) must stay nil")
	}
	if IsPermanent(errors.New("plain")) {
		t.Fatal("plain error misclassified as permanent")
	}
}
