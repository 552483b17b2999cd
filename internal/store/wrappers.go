package store

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"forkbase/internal/chunk"
	"forkbase/internal/hash"
)

// CountingStore wraps a Store and records the byte increments of delimited
// phases, so experiments can report "loading dataset 2 increased storage by
// only 0.04 KB" exactly like Fig 4 of the paper.
//
// Concurrency: the wrapper itself holds no per-op state — every Store call
// is the embedded inner store's — and Mark/Increments guard the snapshot
// slices with one mutex, so concurrent builder workers can write through a
// CountingStore while an experiment thread marks phases.
type CountingStore struct {
	Store

	mu     sync.Mutex
	marks  []Stats
	labels []string
}

// NewCountingStore wraps inner.
func NewCountingStore(inner Store) *CountingStore {
	return &CountingStore{Store: inner}
}

// Unwrap exposes the inner store to As: phase accounting changes neither
// whose bytes are served nor what the backend can do.
func (c *CountingStore) Unwrap() Store { return c.Store }

// Mark snapshots the current counters under a label.
func (c *CountingStore) Mark(label string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.marks = append(c.marks, c.Store.Stats())
	c.labels = append(c.labels, label)
}

// Increment describes the storage change between two consecutive marks.
type Increment struct {
	Label         string
	PhysicalBytes int64 // bytes actually added to storage
	LogicalBytes  int64 // bytes that would have been added without dedup
	NewChunks     int64
	DedupHits     int64
}

// Increments reports the per-phase storage growth between consecutive marks.
// Call Mark before and after each phase; phase i is labelled with the label
// of its closing mark.
func (c *CountingStore) Increments() []Increment {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []Increment
	for i := 1; i < len(c.marks); i++ {
		prev, cur := c.marks[i-1], c.marks[i]
		out = append(out, Increment{
			Label:         c.labels[i],
			PhysicalBytes: cur.PhysicalBytes - prev.PhysicalBytes,
			LogicalBytes:  cur.LogicalBytes - prev.LogicalBytes,
			NewChunks:     cur.UniqueChunks - prev.UniqueChunks,
			DedupHits:     cur.DedupHits - prev.DedupHits,
		})
	}
	return out
}

// MaliciousStore wraps a Store and simulates the paper's threat model
// (§II-D): "the storage is malicious, but the users keep track of the latest
// uid of every branch".  It can silently corrupt stored chunks or substitute
// forged ones; chunk verification at the read path must catch every attack.
type MaliciousStore struct {
	Store

	mu        sync.Mutex
	corrupted map[hash.Hash][]byte // id -> forged payload served instead
	forgeType map[hash.Hash]chunk.Type
}

// NewMaliciousStore wraps inner; it behaves honestly until an attack is
// injected.
func NewMaliciousStore(inner Store) *MaliciousStore {
	return &MaliciousStore{
		Store:     inner,
		corrupted: make(map[hash.Hash][]byte),
		forgeType: make(map[hash.Hash]chunk.Type),
	}
}

// Unwrap exposes the inner store to As, so GC, scrub and heal still reach the
// backend's capabilities through the adversarial layer.
func (m *MaliciousStore) Unwrap() Store { return m.Store }

// VerifyCacheTrusted implements VerifyCacheTruster with a refusal: because
// this layer unwraps, it must end the trust walk itself — bytes it serves may
// differ from read to read, so no verification of them may be amortized.
func (m *MaliciousStore) VerifyCacheTrusted() bool { return false }

// GetBatch implements Store: attacked ids are substituted exactly as in Get,
// so batched readers face the same threat model as point readers.
func (m *MaliciousStore) GetBatch(ids []hash.Hash) ([]*chunk.Chunk, error) {
	return getEach(m.Get, ids)
}

// Get implements Store: it serves the forged payload for attacked ids.
//
// Note that the forged chunk is returned *as if it were genuine* — no error —
// because a malicious provider would not announce the substitution.
// Detection is the verifier's job.
func (m *MaliciousStore) Get(id hash.Hash) (*chunk.Chunk, error) {
	m.mu.Lock()
	payload, bad := m.corrupted[id]
	typ := m.forgeType[id]
	m.mu.Unlock()
	if bad {
		return chunk.New(typ, payload), nil
	}
	return m.Store.Get(id)
}

// CorruptFlip arranges for future Gets of id to return the genuine payload
// with the bit at (offset, bit) flipped.  Returns false if id is unknown.
func (m *MaliciousStore) CorruptFlip(id hash.Hash, offset int, bit uint) (bool, error) {
	c, err := m.Store.Get(id)
	if err != nil {
		if errors.Is(err, ErrNotFound) {
			return false, nil
		}
		return false, err
	}
	data := append([]byte(nil), c.Data()...)
	if len(data) == 0 {
		return false, nil
	}
	offset %= len(data)
	data[offset] ^= 1 << (bit % 8)
	m.mu.Lock()
	m.corrupted[id] = data
	m.forgeType[id] = c.Type()
	m.mu.Unlock()
	return true, nil
}

// Forge arranges for future Gets of id to return an arbitrary payload.
func (m *MaliciousStore) Forge(id hash.Hash, typ chunk.Type, payload []byte) {
	m.mu.Lock()
	m.corrupted[id] = append([]byte(nil), payload...)
	m.forgeType[id] = typ
	m.mu.Unlock()
}

// Heal removes all injected attacks.
func (m *MaliciousStore) Heal() {
	m.mu.Lock()
	m.corrupted = make(map[hash.Hash][]byte)
	m.forgeType = make(map[hash.Hash]chunk.Type)
	m.mu.Unlock()
}

// AttackCount returns the number of ids currently being served forged data.
func (m *MaliciousStore) AttackCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.corrupted)
}

// VerifyingStore wraps a Store and checks every chunk read against its id,
// converting silent corruption into chunk.ErrCorrupt.  The ForkBase engine
// always reads through a VerifyingStore, which is how a uid certifies the
// entire reachable object graph.
//
// Verification is amortized, not weakened: once an id's inner-store bytes
// have been rehashed on this instance, repeat reads skip the hash via a
// byte-budgeted VerifiedSet — but only when the inner stack is trusted
// (see VerifyCacheTruster: local Mem/File stores qualify; anything with a
// wire, fault-injection, or adversarial layer does not), and only while the
// store's placement epoch is unchanged.  Writes honor in-process provenance
// (chunk.Claimed() == false) instead of rehashing; claimed chunks from disk,
// the wire, or untrusted constructors still pay the full recheck.
//
// Has, HasBatch and Stats are the embedded store's own: presence needs no
// verification — a forged chunk is caught when it is actually read.
type VerifyingStore struct {
	Store

	// verified is the verified-id set; nil when the cache is disabled
	// (untrusted inner stack or explicit opt-out).
	verified *VerifiedSet
	// epoch is the inner stack's placement epoch; nil for stores that never
	// relocate an id's bytes, like MemStore.
	epoch PlacementEpocher

	// marker, when non-nil, is the inner store's verified-index capability:
	// the verified witness lives inside the store's own index entry, so a
	// warm point get returns with the verdict already resolved — no set
	// probe, no epoch read.  Only engaged when the cache itself is enabled
	// and the *immediate* inner implements it (a walk would let the fast
	// path bypass intermediate wrappers' accounting).
	marker VerifiedIndexer

	// skippedHashes counts every rehash avoided by amortization: verified-id
	// hits on reads plus provenance-trusted chunks on writes.
	skippedHashes atomic.Int64
}

// VerifyCacheTruster is the capability by which a store declares that its
// bytes come from a boundary the verify cache may amortize over (local
// memory or local disk owned by this process).  Trust is deny-by-default: a
// stack is trusted only if the first layer As finds answering this says yes.
// Transparent wrappers unwrap to the backend's answer; wire clients, fault
// injectors and foreign stores do not unwrap, which ends the walk and turns
// the cache off without any of them having to know it exists; an adversarial
// wrapper that does unwrap (MaliciousStore) answers false itself.
type VerifyCacheTruster interface {
	VerifyCacheTrusted() bool
}

// VerifiedIndexer is the capability by which a trusted store co-locates the
// verified-id witness with its own index, collapsing the verifier's warm-path
// probe into the index lookup the store performs anyway.  The contract
// mirrors VerifiedSet's exactly: MarkVerified records "the verifying layer
// rehashed this id's bytes at this placement epoch", GetVerified answers a
// read with that witness only while placement is unchanged, and the stamp
// dies whenever the entry is rewritten or the epoch moves.  The chunk
// returned by GetVerified keeps its claimed state — the verdict is carried
// beside the chunk, never baked into it — so nothing downstream gains a way
// to mint trusted chunks.
type VerifiedIndexer interface {
	// GetVerified must return a chunk whose ID() equals the requested id
	// (FileStore's claimed reads stamp the index key into the chunk), so the
	// verifier's fast path can skip the redundant id comparison.
	GetVerified(id hash.Hash) (c *chunk.Chunk, verified bool, err error)
	MarkVerified(id hash.Hash, epoch uint64)
	UnmarkVerified(id hash.Hash)
	UnmarkAllVerified()
	VerifiedServes() int64
}

// PlacementEpocher is the capability by which a store exposes a counter that
// bumps whenever previously-served bytes for an id may have been remapped
// (segment compaction, quarantine rescue).  Verified-set entries are stamped
// with it so a remap can never satisfy a stale "verified" hit.
type PlacementEpocher interface {
	PlacementEpoch() uint64
}

// DefaultVerifyCacheBytes is the default verified-id set budget (~128k
// entries): big enough to cover the hot node set of a large tree, small
// next to the node cache it sits behind.
const DefaultVerifyCacheBytes = 8 << 20

// NewVerifyingStore wraps inner with the default verify-cache budget.  The
// cache engages only over trusted local stacks; over anything else this is
// exactly the always-rehash verifier.
func NewVerifyingStore(inner Store) *VerifyingStore {
	return NewVerifyingStoreCache(inner, 0)
}

// NewVerifyingStoreCache wraps inner with an explicit verified-id budget:
// 0 picks DefaultVerifyCacheBytes, negative disables the cache entirely.
func NewVerifyingStoreCache(inner Store, cacheBytes int64) *VerifyingStore {
	v := &VerifyingStore{Store: inner}
	if cacheBytes == 0 {
		cacheBytes = DefaultVerifyCacheBytes
	}
	if t, ok := As[VerifyCacheTruster](inner); cacheBytes > 0 && ok && t.VerifyCacheTrusted() {
		v.verified = NewVerifiedSet(cacheBytes)
		v.epoch, _ = As[PlacementEpocher](inner)
		v.marker, _ = inner.(VerifiedIndexer)
	}
	return v
}

// Unwrap exposes the inner store to As.
func (v *VerifyingStore) Unwrap() Store { return v.Store }

// verifyWorkers is the recheck pool width for one batch.
func verifyWorkers() int { return min(runtime.GOMAXPROCS(0), 4) }

func (v *VerifyingStore) epochNow() uint64 {
	if v.epoch == nil {
		return 0
	}
	return v.epoch.PlacementEpoch()
}

// recheckWrite verifies one chunk on the write path.  Chunks hashed by this
// process (sink provenance, or already promoted by an earlier recheck) skip
// the hash; claimed chunks are rehashed and, on success, promoted so the
// next layer is free.
func (v *VerifyingStore) recheckWrite(ch *chunk.Chunk) error {
	if !ch.Claimed() {
		v.skippedHashes.Add(1)
		return nil
	}
	return ch.Recheck()
}

// Put implements Store.  Chunks whose id was merely *claimed* by an
// untrusted party (chunk.NewClaimed) are rehashed and rejected on mismatch,
// so forged content cannot enter the store under a genuine id.
func (v *VerifyingStore) Put(ch *chunk.Chunk) (bool, error) {
	if err := v.recheckWrite(ch); err != nil {
		return false, err
	}
	ok, err := v.Store.Put(ch)
	if err == nil && v.verified != nil {
		// The bytes just written are known-good: seed the witnesses so the
		// first read back skips the rehash.
		v.remember(ch.ID(), v.epochNow())
	}
	return ok, err
}

// PutBatch implements Store.  Every claimed chunk in the batch is
// rehashed — fanned out across the recheck pool — before anything is
// written: a single forged chunk rejects the whole batch, keeping batched
// ingest exactly as tamper-evident as the per-chunk path.
func (v *VerifyingStore) PutBatch(cs []*chunk.Chunk) ([]bool, error) {
	var work []int
	for i, ch := range cs {
		if !ch.Claimed() {
			v.skippedHashes.Add(1)
			continue
		}
		work = append(work, i)
	}
	if err := recheckIndexes(cs, work, verifyWorkers()); err != nil {
		return make([]bool, len(cs)), err
	}
	res, err := v.Store.PutBatch(cs)
	if err == nil && v.verified != nil {
		ep := v.epochNow()
		for _, ch := range cs {
			v.remember(ch.ID(), ep)
		}
	}
	return res, err
}

// GetBatch implements Store: every returned chunk passes the same
// recheck-and-verify gauntlet as a point Get — with the rehashes for
// verified-set misses fanned out across the recheck pool, so repl catch-up
// and heal scale with cores.
func (v *VerifyingStore) GetBatch(ids []hash.Hash) ([]*chunk.Chunk, error) {
	out, err := v.Store.GetBatch(ids)
	if err != nil {
		return out, err
	}
	ep := v.epochNow()
	var work []int
	for i, c := range out {
		if c == nil {
			continue
		}
		if err := c.Verify(ids[i]); err != nil {
			return out, err
		}
		if !c.Claimed() {
			continue
		}
		if v.verified != nil && v.verified.Hit(ids[i], ep) {
			continue // skip counted via the hit counter
		}
		work = append(work, i)
	}
	if err := recheckIndexes(out, work, verifyWorkers()); err != nil {
		// Something in this batch failed to rehash; drop any witnesses for
		// the batch so nothing corrupt lingers as "verified".
		for _, i := range work {
			v.forget(ids[i])
		}
		return out, err
	}
	for _, i := range work {
		v.remember(ids[i], ep)
	}
	return out, nil
}

// recheckIndexes rehashes cs[i] for each i in idx, fanning out across up to
// `workers` goroutines when the batch is large enough to amortize the
// handoff.  First error wins; remaining work is still drained (rechecks are
// independent and promotion is useful even on a failing batch's survivors).
func recheckIndexes(cs []*chunk.Chunk, idx []int, workers int) error {
	// Below ~8 chunks per worker the goroutine handoff costs more than the
	// overlap buys; clamp the pool to keep every worker usefully busy.
	const minPerWorker = 8
	if workers > len(idx)/minPerWorker {
		workers = len(idx) / minPerWorker
	}
	if workers < 2 {
		for _, i := range idx {
			if err := cs[i].Recheck(); err != nil {
				return fmt.Errorf("batch chunk %d: %w", i, err)
			}
		}
		return nil
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := int(next.Add(1)) - 1
				if n >= len(idx) {
					return
				}
				if err := cs[idx[n]].Recheck(); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("batch chunk %d: %w", idx[n], err)
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// Get implements Store, verifying content against id.  Chunks whose id was
// merely claimed by the inner store (FileStore's zero-copy mmap path trusts
// its own index) are rehashed here — unless this instance already verified
// the id at the current placement epoch, in which case the hash is skipped.
func (v *VerifyingStore) Get(id hash.Hash) (*chunk.Chunk, error) {
	var (
		c   *chunk.Chunk
		err error
	)
	if v.marker != nil {
		// Warm fast path: the inner store resolves the verified witness
		// inside the index lookup it performs anyway, so a repeat read costs
		// the bare get plus one id comparison.
		var okv bool
		c, okv, err = v.marker.GetVerified(id)
		if err == nil && okv {
			// No Verify(id) here: the capability contract pins the returned
			// chunk's id to the request, and the witness already attests the
			// bytes hash to it — the comparison would test the claim against
			// itself.
			return c, nil
		}
	} else {
		c, err = v.Store.Get(id)
	}
	if err != nil {
		return nil, err
	}
	if err := c.Verify(id); err != nil {
		return nil, err
	}
	if !c.Claimed() {
		return c, nil
	}
	if err := v.recheckRemember(c, id); err != nil {
		return nil, err
	}
	return c, nil
}

// recheckRemember resolves a claimed chunk on the slow path: consult the
// verified set, rehash on a miss, and record the outcome in both witnesses
// (set and, when present, the inner store's verified index).
func (v *VerifyingStore) recheckRemember(c *chunk.Chunk, id hash.Hash) error {
	var ep uint64
	if v.verified != nil {
		ep = v.epochNow()
		if v.verified.Hit(id, ep) {
			// Every hit skips exactly one rehash; VerifyStats derives the
			// skip count from the hit counter so the hot path pays a single
			// atomic increment.
			if v.marker != nil {
				// Restamp: the set remembered what the index entry lost.
				v.marker.MarkVerified(id, ep)
			}
			return nil
		}
	}
	if err := c.Recheck(); err != nil {
		v.forget(id)
		return err
	}
	v.remember(id, ep)
	return nil
}

// remember records a successful recheck of id at epoch ep in every witness.
func (v *VerifyingStore) remember(id hash.Hash, ep uint64) {
	if v.verified != nil {
		v.verified.Add(id, ep)
	}
	if v.marker != nil {
		v.marker.MarkVerified(id, ep)
	}
}

// forget drops id from every witness after a failed recheck or an explicit
// invalidation.
func (v *VerifyingStore) forget(id hash.Hash) {
	if v.verified != nil {
		v.verified.Invalidate(id)
	}
	if v.marker != nil {
		v.marker.UnmarkVerified(id)
	}
}

// VerifyStats is a snapshot of the verifier's amortization counters.
type VerifyStats struct {
	// Enabled reports whether the verified-id set is active (trusted stack,
	// non-negative budget).
	Enabled bool `json:"enabled"`
	// Hits/Misses/Invalidations are verified-set lookup outcomes.
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Invalidations int64 `json:"invalidations"`
	// SkippedHashes counts every rehash amortized away: set hits on reads
	// plus provenance-trusted chunks on writes.
	SkippedHashes int64 `json:"skipped_hashes"`
	// Entries/BudgetBytes describe the set's current size and bound.
	Entries     int   `json:"entries"`
	BudgetBytes int64 `json:"budget_bytes"`
}

// VerifyStats snapshots the amortization counters.
func (v *VerifyingStore) VerifyStats() VerifyStats {
	st := VerifyStats{SkippedHashes: v.skippedHashes.Load()}
	if v.verified != nil {
		st.Enabled = true
		st.Hits = v.verified.hits.Load()
		st.Misses = v.verified.misses.Load()
		st.Invalidations = v.verified.invalidations.Load()
		st.Entries = v.verified.Len()
		st.BudgetBytes = v.verified.budget
		if v.marker != nil {
			// Index-stamp serves are hits resolved inside the inner store.
			st.Hits += v.marker.VerifiedServes()
		}
		// Each hit skipped exactly one rehash (reads); skippedHashes itself
		// counts provenance-trusted writes.
		st.SkippedHashes += st.Hits
	}
	return st
}

// Invalidate drops ids from the verified set (no-op when disabled).  Scrub,
// quarantine, repair, heal and GC call this for every id whose inner-store
// bytes they move, delete, or find damaged.
func (v *VerifyingStore) Invalidate(ids ...hash.Hash) {
	if v.verified == nil {
		return
	}
	for _, id := range ids {
		v.forget(id)
	}
}

// InvalidateAll empties every witness (no-op when disabled).
func (v *VerifyingStore) InvalidateAll() {
	if v.verified != nil {
		v.verified.InvalidateAll()
	}
	if v.marker != nil {
		v.marker.UnmarkAllVerified()
	}
}
