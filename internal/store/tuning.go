package store

// SinkTuner is the optional capability by which a store handle advertises a
// preferred ChunkSink hashing configuration.  Builders open sinks deep
// inside the value and index layers, far from the code that knows the
// deployment's core budget; attaching the preference to the store handle
// lets forkbase.WithSinkHashers reach every sink opened over that handle
// without threading a knob through each constructor — the same discovery
// pattern as NodeCacheProvider.
type SinkTuner interface {
	// SinkHashers returns the preferred hashing worker count: n > 0 runs n
	// workers, n < 0 pins hashing to the producer goroutine (synchronous).
	SinkHashers() int
}

// tunedStore attaches a sink-hashing preference to an inner store: a value
// plus Unwrap, every Store method is the embedded store's.
type tunedStore struct {
	Store
	hashers int
}

// WithSinkHashers returns a store over which every ChunkSink defaults to n
// hashing workers (n < 0 pins hashing synchronous to the producer).  n == 0
// means "no preference" and returns inner unchanged.  An explicit
// SinkOptions.Hashers set by the sink's opener still wins, and the topmost
// attachment in a stack overrides any beneath it.
func WithSinkHashers(inner Store, n int) Store {
	if n == 0 {
		return inner
	}
	return &tunedStore{Store: inner, hashers: n}
}

// SinkHashers implements SinkTuner.
func (s *tunedStore) SinkHashers() int { return s.hashers }

// Unwrap exposes the inner store to As.
func (s *tunedStore) Unwrap() Store { return s.Store }
