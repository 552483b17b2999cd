// Package retry is ForkBase's one retry policy: a bounded number of
// attempts, exponential backoff with jitter between them, and explicit
// retryable-vs-permanent error classification.
//
// Two loops use it: server.Client retries each round trip through Do, and
// the replication follower backs off between failed sync rounds with
// Backoff.  A network call therefore has one retry layer per hop, and "how
// long can this call block?" one answer, MaxElapsed:
//
//	attempts x (per-attempt timeout) + backoff sleeps
//
// The policy hands the operation nothing: a per-attempt timeout is the
// operation's own to enforce (server.Client sets socket deadlines), and
// Policy.Timeout only feeds MaxElapsed.
//
// A *permanent* error (wrapped with Permanent) is returned immediately: the
// remote executed the request and said no — stale CAS, not-found, read-only
// replica.  Everything else (dial failures, deadline timeouts, resets, torn
// frames) is presumed transient and retried while attempts last.
//
// Idempotency is the caller's half of the contract: a transport error after
// a request may have reached the wire leaves the remote's state unknown, so
// non-idempotent operations (CAS, batched puts of fresh data) must only be
// resent when the failed attempt provably never wrote a byte, and are
// otherwise returned as Permanent; see server.Client for the canonical use.
package retry

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"forkbase/internal/obs"
)

// Process-wide retry accounting, registered on the default registry:
// every Do loop in the system reports here, so "is anything retrying?" is
// one scrape.
var (
	attemptsTotal = obs.Default().Counter("forkbase_retry_attempts_total",
		"Operation attempts made through retry.Do (first tries included).")
	retriesTotal = obs.Default().Counter("forkbase_retry_retries_total",
		"Re-attempts after a transient failure.")
	gaveupTotal = obs.Default().Counter("forkbase_retry_gaveup_total",
		"Do calls that exhausted their attempts.")
	permanentTotal = obs.Default().Counter("forkbase_retry_permanent_total",
		"Do calls stopped by a permanent (non-retryable) error.")
)

// Defaults used when a Policy field is zero.
const (
	DefaultAttempts = 4
	DefaultBase     = 50 * time.Millisecond
	DefaultMax      = 2 * time.Second
	DefaultJitter   = 0.5
)

// Policy describes how to retry an operation.  The zero value is usable and
// selects the defaults above.
type Policy struct {
	// Attempts is the maximum number of tries (0 = DefaultAttempts;
	// negative = exactly one attempt, i.e. no retry).
	Attempts int
	// Base is the backoff before the second attempt; each subsequent
	// backoff doubles, capped at Max (0 selects the defaults).
	Base, Max time.Duration
	// Jitter randomizes each backoff by ±Jitter fraction (0 = DefaultJitter;
	// negative = none).  Jitter decorrelates retry storms: a hundred clients
	// that failed together must not reconnect together.
	Jitter float64
	// Timeout is how long one attempt can take, for MaxElapsed.  The
	// policy does not enforce it: I/O must be cancelled at the syscall
	// layer, by the operation.
	Timeout time.Duration
}

// permanentError marks an error as not worth retrying.
type permanentError struct{ err error }

func (p *permanentError) Error() string { return p.err.Error() }
func (p *permanentError) Unwrap() error { return p.err }

// Permanent wraps err so Do returns it immediately instead of retrying.
// A nil err stays nil.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// IsPermanent reports whether err (or anything it wraps) was marked
// Permanent.
func IsPermanent(err error) bool {
	var p *permanentError
	return errors.As(err, &p)
}

// BudgetError reports that a Do call stopped retrying — attempts exhausted,
// or stopped — and carries the last attempt's error.
type BudgetError struct {
	Attempts int
	Elapsed  time.Duration
	Last     error
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("retry: gave up after %d attempts in %v: %v", e.Attempts, e.Elapsed.Round(time.Millisecond), e.Last)
}

func (e *BudgetError) Unwrap() error { return e.Last }

func (p Policy) attempts() int {
	switch {
	case p.Attempts == 0:
		return DefaultAttempts
	case p.Attempts < 0:
		return 1
	}
	return p.Attempts
}

func (p Policy) base() time.Duration {
	if p.Base <= 0 {
		return DefaultBase
	}
	return p.Base
}

func (p Policy) max() time.Duration {
	if p.Max <= 0 {
		return DefaultMax
	}
	return p.Max
}

func (p Policy) jitter() float64 {
	switch {
	case p.Jitter == 0:
		return DefaultJitter
	case p.Jitter < 0:
		return 0
	}
	return p.Jitter
}

// Backoff returns the sleep before attempt n+1 (i.e. after attempt n
// failed), jittered.  Exposed so loops that cannot use Do (the follower's
// outer state machine) still share one backoff shape.
func (p Policy) Backoff(n int) time.Duration {
	d := p.base() << uint(n)
	if m := p.max(); d > m || d <= 0 { // <=0 guards shift overflow
		d = m
	}
	if j := p.jitter(); j > 0 {
		// d * (1 ± j): rand is global — jitter needs no reproducibility,
		// only decorrelation.
		f := 1 + j*(2*rand.Float64()-1)
		d = time.Duration(float64(d) * f)
	}
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

// MaxElapsed is the worst-case wall clock of a full Do call: every attempt
// spending its full timeout plus every backoff at its un-jittered maximum.
// Callers use it to pin "no op blocks past its deadline budget".
func (p Policy) MaxElapsed() time.Duration {
	total := time.Duration(p.attempts()) * p.Timeout
	for n := 0; n < p.attempts()-1; n++ {
		d := p.base() << uint(n)
		if m := p.max(); d > m || d <= 0 {
			d = m
		}
		total += time.Duration(float64(d) * (1 + p.jitter()))
	}
	return total
}

// Do runs op until it succeeds, returns a permanent error, or the policy is
// exhausted.  stop (optional) aborts between attempts — pass a Close
// channel so shutdown never waits out a backoff.
//
// op's error is classified by Permanent marking only; callers needing
// domain-specific classification wrap before returning.  When attempts run
// out the last error is wrapped in *BudgetError (errors.Is / errors.As reach
// through it).
func (p Policy) Do(stop <-chan struct{}, op func() error) error {
	start := time.Now()
	var last error
	for n := 0; n < p.attempts(); n++ {
		if n > 0 {
			select {
			case <-stop:
				return &BudgetError{Attempts: n, Elapsed: time.Since(start), Last: errors.Join(errStopped, last)}
			case <-time.After(p.Backoff(n - 1)):
			}
			retriesTotal.Inc()
		}
		attemptsTotal.Inc()
		err := op()
		if err == nil {
			return nil
		}
		if IsPermanent(err) {
			permanentTotal.Inc()
			return err
		}
		last = err
	}
	gaveupTotal.Inc()
	return &BudgetError{Attempts: p.attempts(), Elapsed: time.Since(start), Last: last}
}

var errStopped = errors.New("retry: stopped")
