// Package store provides content-addressed chunk storage.
//
// A Store materialises chunks into physical storage keyed by their content
// hash: each distinct chunk is stored exactly once and may be shared by any
// number of logical objects (paper §II-C).
//
// Two backends hold bytes: MemStore (in-memory map) and FileStore (durable
// segmented append-only log with an in-memory index).  Everything else is a
// wrapper that embeds Store, overrides the operations it cares about and
// declares Unwrap: the verifying layer (VerifyingStore), the metrics layer
// (Instrument), the value attachment WithNodeCache and the experiment
// wrapper MaliciousStore (Fig 6 threat model).
//
// Optional capabilities (Collector, Scrubber, Repairer, PlacementEpocher,
// Kinder, VerifyCacheTruster, NodeCacheProvider) are implemented only by the
// layer that owns them and found with As, the one function that walks the
// Unwrap chain.  VerifiedIndexer is the exception: the verifying layer takes
// it from its immediate inner store only, because it is the one witness that
// lets a read skip its rehash — FileStore's stamp in its own index entry —
// and a layer in between (Instrument) must forward it to keep counting.
package store

import (
	"errors"
	"fmt"

	"forkbase/internal/chunk"
	"forkbase/internal/hash"
)

// ErrNotFound is returned when a requested chunk is absent.
var ErrNotFound = errors.New("store: chunk not found")

// ErrTooLarge refuses a chunk of more than chunk.MaxSize data bytes: no
// frame of the wire protocol could carry it to a replica or a client.
var ErrTooLarge = errors.New("store: chunk too large")

// checkSizes returns ErrTooLarge for the first chunk of cs over
// chunk.MaxSize; a store's Put and PutBatch refuse the whole call with it.
func checkSizes(cs ...*chunk.Chunk) error {
	for _, c := range cs {
		if n := len(c.Data()); n > chunk.MaxSize {
			return fmt.Errorf("%w: a %d-byte %s chunk exceeds the %d-byte limit", ErrTooLarge, n, c.Type(), chunk.MaxSize)
		}
	}
	return nil
}

// ErrUnavailable marks a transient backend failure: the store (or the node
// in front of it) cannot serve the request *right now*, but retrying later
// may succeed.  Serving layers translate it into backpressure (REST replies
// 503 with Retry-After) instead of treating it as data loss.
var ErrUnavailable = errors.New("store: temporarily unavailable")

// ErrCorrupt marks stored bytes that no longer match their content address —
// bit rot, a torn write, or tampering.  It is the chunk layer's sentinel
// re-exported at the store boundary so callers classifying read failures
// (`errors.Is(err, store.ErrCorrupt)`) need not import the chunk package.
// Unlike ErrUnavailable it is not transient: retrying the same replica
// yields the same bytes; repair means refetching from another copy.
var ErrCorrupt = chunk.ErrCorrupt

// Store is a content-addressed chunk store.
//
// Implementations must be safe for concurrent use.
type Store interface {
	// Put stores c if absent.  It returns true when the chunk was new,
	// false when an identical chunk was already present (a dedup hit).
	Put(c *chunk.Chunk) (bool, error)
	// Get retrieves the chunk with the given id.
	Get(id hash.Hash) (*chunk.Chunk, error)
	// Has reports whether a chunk with the given id is present.
	Has(id hash.Hash) (bool, error)
	// Stats returns a snapshot of the store's accounting counters.
	Stats() Stats

	// PutBatch stores every chunk of cs that is absent, in one round: MemStore
	// takes its write lock once, FileStore group-commits with a single index
	// pass and one flush, a Remote server.Client ships one request.
	// fresh[i] reports whether cs[i] was new (false = dedup hit).
	// Implementations must either apply the whole batch or return an error
	// having applied a prefix; they never skip chunks silently.
	PutBatch(cs []*chunk.Chunk) (fresh []bool, err error)
	// GetBatch retrieves the chunks with the given ids in one round.  out[i]
	// is nil when ids[i] is absent — absence is not an error, so one batched
	// call replaces the Get-and-check loop of a sync walk (one round trip
	// per tree level instead of one per chunk).
	GetBatch(ids []hash.Hash) ([]*chunk.Chunk, error)
	// HasBatch reports presence for every id.
	HasBatch(ids []hash.Hash) ([]bool, error)
}

// Stager is a store that holds back the chunks an engine write puts until
// the write publishes them (a Remote client's, whose commit carries them in
// the same request as its head moves).  Stage marks a write begun, and the
// func it returns marks it done; a put outside every write lands at once.
type Stager interface {
	Stage() (done func())
}

// As returns the first layer of st's wrapper stack that implements T,
// walking Unwrap() Store from the top.  It is the only capability lookup: a
// capability is implemented by the one layer that owns it, wrappers expose
// their inner store through Unwrap, and a layer that does not unwrap (a wire
// client, a fault injector, a foreign Store) ends the walk — so whatever it
// fronts stays hidden, which is what keeps trust deny-by-default.
func As[T any](st Store) (T, bool) {
	for st != nil {
		if t, ok := st.(T); ok {
			return t, true
		}
		u, ok := st.(interface{ Unwrap() Store })
		if !ok {
			break
		}
		st = u.Unwrap()
	}
	var zero T
	return zero, false
}

// Stats captures the deduplication accounting of a store.
type Stats struct {
	// UniqueChunks is the number of distinct chunks physically stored.
	UniqueChunks int64
	// PhysicalBytes is the total encoded size of distinct chunks — what
	// actually occupies storage.
	PhysicalBytes int64
	// LogicalBytes is the total encoded size of all Put calls including
	// duplicates — what a non-deduplicating store would occupy.
	LogicalBytes int64
	// DedupHits counts Put calls that found the chunk already present.
	DedupHits int64
	// Gets counts chunk retrievals.
	Gets int64
}

// DedupRatio returns LogicalBytes/PhysicalBytes (1.0 means no sharing).
func (s Stats) DedupRatio() float64 {
	if s.PhysicalBytes == 0 {
		return 1
	}
	return float64(s.LogicalBytes) / float64(s.PhysicalBytes)
}

func (s Stats) String() string {
	return fmt.Sprintf("chunks=%d physical=%dB logical=%dB dedup=%.2fx hits=%d",
		s.UniqueChunks, s.PhysicalBytes, s.LogicalBytes, s.DedupRatio(), s.DedupHits)
}

// MustPut stores c into s and panics on error, for tests that plant a
// hand-built chunk.
func MustPut(s Store, c *chunk.Chunk) {
	if _, err := s.Put(c); err != nil {
		panic(fmt.Sprintf("store: put failed: %v", err))
	}
}

// getEach answers a GetBatch with one get per id — for stores whose batched
// read has nothing to amortize.  Absent ids yield nil slots.
func getEach(get func(hash.Hash) (*chunk.Chunk, error), ids []hash.Hash) ([]*chunk.Chunk, error) {
	out := make([]*chunk.Chunk, len(ids))
	for i, id := range ids {
		c, err := get(id)
		if errors.Is(err, ErrNotFound) {
			continue
		}
		if err != nil {
			return out, err
		}
		out[i] = c
	}
	return out, nil
}

// BatchStore, BatchReadStore and the PutBatch/GetBatch/HasBatch functions
// below predate batch operations joining Store.  The frozen benchmark harness
// (benchmark/trace.go) names them and is the only reason they remain; new
// code uses Store and calls the methods.
type (
	BatchStore     = Store
	BatchReadStore = Store
)

// PutBatch is s.PutBatch(cs); kept for the frozen benchmark harness only.
func PutBatch(s Store, cs []*chunk.Chunk) ([]bool, error) { return s.PutBatch(cs) }

// GetBatch is s.GetBatch(ids); kept for the frozen benchmark harness only.
func GetBatch(s Store, ids []hash.Hash) ([]*chunk.Chunk, error) { return s.GetBatch(ids) }

// HasBatch is s.HasBatch(ids); kept for the frozen benchmark harness only.
func HasBatch(s Store, ids []hash.Hash) ([]bool, error) { return s.HasBatch(ids) }

// SweepStats reports what a Collector's Sweep removed and reclaimed.
type SweepStats struct {
	// Swept is the number of chunks removed.
	Swept int
	// SweptBytes is the summed encoded size of removed chunks.
	SweptBytes int64
	// ReclaimedBytes is the physical storage returned: for memory stores it
	// equals SweptBytes; for file stores it is the on-disk footprint of
	// compacted-away segments net of the live bytes rewritten out of them.
	ReclaimedBytes int64
	// CompactedSegments counts log segments rewritten and unlinked.
	CompactedSegments int
	// MovedBytes is the on-disk volume of live records compaction rewrote.
	MovedBytes int64
	// SweptIDs lists the removed chunk ids, so callers can purge caches
	// layered above the store.
	SweptIDs []hash.Hash
	// MovedIDs lists live chunks that compaction physically relocated.
	// Their content is unchanged (content addressing guarantees it), but
	// caches holding decoded forms that alias old storage should purge them.
	MovedIDs []hash.Hash
}

// Collector is the optional capability garbage collection needs: a bulk
// sweep that removes every chunk the caller does not keep and reclaims the
// underlying storage.  Both built-in stores implement it — MemStore deletes
// map entries under one lock round; FileStore additionally rewrites every
// sealed log segment holding garbage.
//
// keep may be called with internal locks held and must not call back into
// the store.  The caller computes keep with writers fenced (core.DB.GC
// does): a sweep exempts nothing it rejects.  Stores without this
// capability are not collectable: core.DB.GC returns ErrNotCollectable for
// them.
type Collector interface {
	Sweep(keep func(hash.Hash) bool) (SweepStats, error)
}

// Scrubber is the optional capability of stores that can audit their own
// physical media: a full pass that rehashes every stored record against its
// content address, quarantines damaged storage units without destroying
// them, and reports a health state afterwards.  FileStore implements it over
// its log segments; pure in-memory stores have nothing to scrub.
type Scrubber interface {
	// Scrub audits every storage unit and quarantines the damaged ones.
	Scrub() (ScrubStats, error)
	// Health reports nil when no known-lost chunks remain, or an error
	// wrapping ErrCorrupt while chunks detected as lost await repair.
	Health() error
}

// Repairer is the optional capability Heal uses to replace a chunk whose
// stored bytes are damaged: unlike Put — which would dedup-hit against the
// still-indexed broken copy and change nothing — Repair writes a fresh
// verified copy and repoints the index at it.  Inserting an absent chunk is
// also valid (repair of a lost record degenerates to a put).
type Repairer interface {
	Repair(c *chunk.Chunk) error
}

// ScrubStats reports one scrub pass (or the equivalent classification run at
// recovery).  Counters are per record except Segments/Unreadable/Quarantined,
// which count storage units.
type ScrubStats struct {
	// Segments is the number of storage units scanned.
	Segments int
	// ScannedBytes is the physical volume rehashed.
	ScannedBytes int64
	// Ok counts records whose content matches their id.
	Ok int
	// Corrupt counts records whose content rehashes to a different id.
	Corrupt int
	// Torn counts spans of a unit the record walk cannot parse: each one
	// it resyncs past to the next intact record, and a tail where none
	// follows.  Records beyond a tear are counted like any other, and the
	// indexed ones are rescued individually during quarantine.
	Torn int
	// Unreadable counts storage units whose bytes could not be read at all.
	Unreadable int
	// QuarantinedSegments counts units set aside (renamed, never unlinked).
	QuarantinedSegments int
	// Rescued counts intact records re-written out of quarantined units.
	Rescued int
	// Lost lists indexed chunk ids with no surviving intact copy; they stay
	// in the store's health state until something (Heal) re-stores them.
	Lost []hash.Hash
	// ElapsedNs is the wall time of the pass.
	ElapsedNs int64
}
