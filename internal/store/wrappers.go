package store

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"forkbase/internal/chunk"
	"forkbase/internal/hash"
)

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
// Verification is amortized, not weakened, by one witness: the stamp a
// VerifiedIndexer keeps in its own index entry.  The witness is used only
// when the *immediate* inner store offers that capability and the stack is
// trusted (see VerifyCacheTruster: local Mem/File stores qualify; anything
// with a wire, fault-injection, or adversarial layer does not).  A successful
// recheck stamps the id at the placement epoch read before the bytes were,
// and a repeat read the stamp still covers skips the hash.  The store alone
// retires stamps (an id's entry rewritten or gone, the epoch moved); this
// layer only mints them and drops one whose recheck failed.  Without a
// witness every claimed chunk is rehashed on every read.  Writes honor
// in-process provenance (chunk.Claimed() == false) instead of rehashing;
// claimed chunks from disk, the wire, or untrusted constructors still pay
// the full recheck.
//
// Has, HasBatch and Stats are the embedded store's own: presence needs no
// verification — a forged chunk is caught when it is actually read.
type VerifyingStore struct {
	Store

	// witness is the immediate inner store's verified index; nil over an
	// untrusted stack or an inner store without one.  It is never found by a
	// walk: that would let the stamped read bypass the accounting of the
	// wrappers in between.
	witness VerifiedIndexer
	// epoch is the inner stack's placement epoch; nil without a witness or
	// for stores that never relocate an id's bytes.
	epoch PlacementEpocher

	// misses counts claimed reads that paid a recheck over the witness,
	// skippedHashes the provenance-trusted writes.
	misses, skippedHashes atomic.Int64
}

// VerifyCacheTruster is the capability by which a store declares that its
// bytes come from a boundary verification may amortize over (local memory
// or local disk owned by this process).  Trust is deny-by-default: a stack is
// trusted only if the first layer As finds answering this says yes.
// Transparent wrappers unwrap to the backend's answer; wire clients, fault
// injectors and foreign stores do not unwrap, which ends the walk and turns
// the witness off without any of them having to know it exists; an
// adversarial wrapper that does unwrap (MaliciousStore) answers false itself.
type VerifyCacheTruster interface {
	VerifyCacheTrusted() bool
}

// VerifiedIndexer is the capability by which a trusted store keeps the
// verifying layer's witness inside its own index, so a warm read's verdict
// comes back from the index lookup the store performs anyway.  MarkVerified
// records "the verifying layer rehashed this id's bytes at this placement
// epoch", GetVerified answers a read with that witness only while placement
// is unchanged, and the stamp dies whenever the entry is rewritten or the
// epoch moves.  The chunk returned by GetVerified keeps its claimed state —
// the verdict is carried beside the chunk, never baked into it — so nothing
// downstream gains a way to mint trusted chunks.
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
// (segment compaction, quarantine rescue).  Verified stamps carry it so a
// remap can never satisfy a stale "verified" read.
type PlacementEpocher interface {
	PlacementEpoch() uint64
}

// NewVerifyingStore wraps inner.  The witness engages only when inner itself
// is a VerifiedIndexer over a trusted stack; over anything else this is the
// always-rehash verifier.
func NewVerifyingStore(inner Store) *VerifyingStore {
	v := &VerifyingStore{Store: inner}
	if w, ok := inner.(VerifiedIndexer); ok {
		if t, ok := As[VerifyCacheTruster](inner); ok && t.VerifyCacheTrusted() {
			v.witness = w
			v.epoch, _ = As[PlacementEpocher](inner)
		}
	}
	return v
}

// Unwrap exposes the inner store to As.
func (v *VerifyingStore) Unwrap() Store { return v.Store }

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
	ep := v.epochNow()
	fresh, err := v.Store.Put(ch)
	if err == nil && fresh && v.witness != nil {
		// The bytes just written are known-good: stamp them so the first
		// read back skips the rehash.  A dedup hit wrote nothing, so the
		// bytes already stored are not the ones just checked.
		v.witness.MarkVerified(ch.ID(), ep)
	}
	return fresh, err
}

// PutBatch implements Store.  Every claimed chunk in the batch is rehashed
// before anything is written: a single forged chunk rejects the whole batch,
// keeping batched ingest exactly as tamper-evident as the per-chunk path.
func (v *VerifyingStore) PutBatch(cs []*chunk.Chunk) ([]bool, error) {
	var work []int
	for i, ch := range cs {
		if !ch.Claimed() {
			v.skippedHashes.Add(1)
			continue
		}
		work = append(work, i)
	}
	if err := recheckIndexes(cs, work); err != nil {
		return make([]bool, len(cs)), err
	}
	ep := v.epochNow()
	fresh, err := v.Store.PutBatch(cs)
	if err == nil && v.witness != nil {
		for i, ch := range cs {
			if fresh[i] {
				v.witness.MarkVerified(ch.ID(), ep)
			}
		}
	}
	return fresh, err
}

// GetBatch implements Store: GetEach, failing with the first chunk that
// did not verify (an absent id is a nil slot, not an error).
func (v *VerifyingStore) GetBatch(ids []hash.Hash) ([]*chunk.Chunk, error) {
	out, errs := make([]*chunk.Chunk, len(ids)), make([]error, len(ids))
	v.GetEach(ids, out, errs, false)
	for i, err := range errs {
		if err != nil && !errors.Is(err, ErrNotFound) {
			return out, fmt.Errorf("batch chunk %d: %w", i, err)
		}
	}
	return out, nil
}

// GetEach reads ids in one inner GetBatch round and gives each id its own
// verdict: out[i] is the chunk checked against ids[i], or nil with errs[i]
// saying why (ErrNotFound, chunk.ErrCorrupt, or the read's own failure).
// Over a witness each id is read through its stamp exactly as Get reads it
// (FileStore's own GetBatch is a per-id loop, so no round is lost); with
// fresh, each id is read past its stamp and rehashed, as validation and heal
// require.  A round that fails as a whole — a wire client refuses a reply
// that holds one forged chunk — is read again one id at a time, so every
// failure is still named.  out and errs hold len(ids).
func (v *VerifyingStore) GetEach(ids []hash.Hash, out []*chunk.Chunk, errs []error, fresh bool) {
	var cs []*chunk.Chunk
	oneByOne := v.witness != nil
	if !oneByOne {
		var err error
		cs, err = v.Store.GetBatch(ids)
		oneByOne = err != nil || len(cs) != len(ids)
	}
	for i, id := range ids {
		switch {
		case oneByOne:
			out[i], errs[i] = v.get(id, fresh)
		case cs[i] == nil:
			out[i], errs[i] = nil, ErrNotFound
		default:
			out[i], errs[i] = v.check(id, cs[i], 0) // no witness to stamp
		}
	}
}

// recheckIndexes rehashes cs[i] for each i in idx, in order, on the
// caller's goroutine, and returns the first failure, naming the element.
func recheckIndexes(cs []*chunk.Chunk, idx []int) error {
	for _, i := range idx {
		if err := cs[i].Recheck(); err != nil {
			return fmt.Errorf("batch chunk %d: %w", i, err)
		}
	}
	return nil
}

// Get implements Store, verifying content against id.  Chunks whose id was
// merely claimed by the inner store (FileStore's zero-copy mmap path trusts
// its own index) are rehashed here — unless the witness stamped the id at
// the current placement epoch, in which case the hash is skipped.
func (v *VerifyingStore) Get(id hash.Hash) (*chunk.Chunk, error) { return v.get(id, false) }

// get is Get; with fresh the stamp is read past, so a claimed chunk pays
// the rehash.  The epoch is read before the bytes: a placement event
// between the two then refuses the stamp instead of vouching for a copy
// nobody hashed.
func (v *VerifyingStore) get(id hash.Hash, fresh bool) (*chunk.Chunk, error) {
	var (
		c   *chunk.Chunk
		err error
	)
	ep := v.epochNow()
	if v.witness != nil && !fresh {
		var stamped bool
		c, stamped, err = v.witness.GetVerified(id)
		if err == nil && stamped {
			// No Verify(id) here: the capability contract pins the returned
			// chunk's id to the request, and the stamp already attests the
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
	return v.check(id, c, ep)
}

// check verifies c, read for id at placement epoch ep, against it; a chunk
// whose id is only claimed is rehashed and the outcome settled in the
// witness.
func (v *VerifyingStore) check(id hash.Hash, c *chunk.Chunk, ep uint64) (*chunk.Chunk, error) {
	if err := c.Verify(id); err != nil {
		return nil, err
	}
	if !c.Claimed() {
		return c, nil
	}
	err := c.Recheck()
	v.settle(id, ep, err)
	if err != nil {
		return nil, err
	}
	return c, nil
}

// settle records in the witness the outcome of rechecking id, whose epoch
// was read before its bytes: a stamp when it passed, none when it failed.
func (v *VerifyingStore) settle(id hash.Hash, ep uint64, err error) {
	if v.witness == nil {
		return
	}
	v.misses.Add(1)
	if err != nil {
		v.witness.UnmarkVerified(id)
		return
	}
	v.witness.MarkVerified(id, ep)
}

// VerifyStats is a snapshot of the verifier's amortization counters.
type VerifyStats struct {
	// Enabled reports whether a witness is present (a trusted
	// VerifiedIndexer directly beneath the verifier).
	Enabled bool `json:"enabled"`
	// Hits counts reads the witness's stamp served; Misses claimed reads
	// that paid a recheck over the witness.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// SkippedHashes counts every rehash amortized away: stamp hits on reads
	// plus provenance-trusted chunks on writes.
	SkippedHashes int64 `json:"skipped_hashes"`
}

// VerifyStats snapshots the amortization counters.
func (v *VerifyingStore) VerifyStats() VerifyStats {
	st := VerifyStats{
		Enabled:       v.witness != nil,
		Misses:        v.misses.Load(),
		SkippedHashes: v.skippedHashes.Load(),
	}
	if v.witness != nil {
		st.Hits = v.witness.VerifiedServes()
		st.SkippedHashes += st.Hits
	}
	return st
}
