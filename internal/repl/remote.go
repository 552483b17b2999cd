package repl

import (
	"time"

	"forkbase/internal/chunk"
	"forkbase/internal/core"
	"forkbase/internal/hash"
	"forkbase/internal/server"
)

// RemoteSource adapts a server.Client into a Source: the replica's view of
// a network primary.  Transport failures surface as errors; the client
// reconnects transparently on the next call and the follower retries with
// backoff, so a primary restart costs a replica nothing but lag.
type RemoteSource struct {
	c     *server.Client
	lease uint64
}

// NewRemoteSource wraps an established client connection.
func NewRemoteSource(c *server.Client) *RemoteSource { return &RemoteSource{c: c, lease: newLease()} }

// Seq implements Source.
func (s *RemoteSource) Seq() (core.FeedCursor, error) {
	_, tip, _, err := s.c.FeedSince(s.lease, core.FeedCursor{}, -1, 0)
	return tip, err
}

// FeedSince implements Source.
func (s *RemoteSource) FeedSince(cursor core.FeedCursor, limit int, wait time.Duration) ([]core.FeedEntry, core.FeedCursor, bool, error) {
	return s.c.FeedSince(s.lease, cursor, limit, wait)
}

// Heads implements Source: a request per page of keys (OpHeads).
func (s *RemoteSource) Heads() (map[string]map[string]hash.Hash, error) { return s.c.Heads() }

// GetChunks implements Source; the client verifies every chunk against its
// requested id before returning it.
func (s *RemoteSource) GetChunks(ids []hash.Hash) ([]*chunk.Chunk, error) {
	return s.c.GetChunks(ids)
}

// Pin implements Source as a no-op.
func (s *RemoteSource) Pin(hash.Hash) error { return nil }

// Unpin implements Source as a no-op.
func (s *RemoteSource) Unpin(hash.Hash) error { return nil }
