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
	c *server.Client
}

// NewRemoteSource wraps an established client connection.
func NewRemoteSource(c *server.Client) *RemoteSource { return &RemoteSource{c: c} }

// Seq implements Source.
func (s *RemoteSource) Seq() (core.FeedCursor, error) { return s.c.FeedSeq() }

// FeedSince implements Source.
func (s *RemoteSource) FeedSince(cursor core.FeedCursor, limit int, wait time.Duration) ([]core.FeedEntry, core.FeedCursor, bool, error) {
	return s.c.FeedSince(cursor, limit, wait)
}

// Heads implements Source.
func (s *RemoteSource) Heads() (map[string]map[string]hash.Hash, error) {
	return core.ListHeads(server.NewRemoteBranchTable(s.c))
}

// GetChunks implements Source; the client verifies every chunk against its
// requested id before returning it.
func (s *RemoteSource) GetChunks(ids []hash.Hash) ([]*chunk.Chunk, error) {
	return s.c.GetChunks(ids)
}

// Pin implements Source.
func (s *RemoteSource) Pin(root hash.Hash) error { return s.c.PinHead(root) }

// Unpin implements Source.
func (s *RemoteSource) Unpin(root hash.Hash) error { return s.c.UnpinHead(root) }
