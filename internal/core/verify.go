package core

import (
	"errors"
	"fmt"
	"slices"

	"forkbase/internal/chunk"
	"forkbase/internal/fnode"
	"forkbase/internal/hash"
	"forkbase/internal/store"
)

// VerifyReport summarises a tamper-evidence validation run (paper §III-C):
// given a uid, the client re-fetches every reachable chunk, recomputes its
// hash on the spot and compares with the claimed identifier.  Under the
// paper's threat model — malicious storage, trusted client-side uids —
// validation succeeds iff neither the value, nor any chunk of its POS-Tree,
// nor any version in its derivation history has been altered.
type VerifyReport struct {
	UID hash.Hash
	// ChunksChecked counts the distinct chunks fetched and re-hashed: a
	// subtree shared by several versions is read and counted once.
	ChunksChecked int
	// VersionsChecked counts FNodes walked in the derivation history.
	VersionsChecked int
	// OK is true when every reachable chunk verified.
	OK bool
	// Failures lists detected tampering, one entry per corrupt chunk.
	Failures []VerifyFailure
}

// VerifyFailure pinpoints one detected corruption.
type VerifyFailure struct {
	ChunkID hash.Hash
	Context string // where in the graph the chunk was reached
	Err     error
}

// ErrTampered is returned by VerifyVersion when validation finds tampering.
var ErrTampered = errors.New("core: tamper detected")

// VerifyVersion validates the object graph reachable from uid, which must be
// a version of key: the FNode, every chunk of its value's index, and
// (recursively) every historical version via the bases hash chain.
// deep=false verifies only the head version's value, matching the common
// "validate what I just fetched" flow; deep=true also reports each version
// whose Seq is not above a base's, which no hash catches and which would
// mislead Merge's Seq-ordered base walk.  Each walk round is one batched
// read of the verifying store (GetEach), which gives every chunk its own
// verdict, so corruption surfaces as chunk.ErrCorrupt; a chunk that fails is
// reported and not descended into — its pointers are not trustworthy.  As
// in Heal, every read pays the rehash: a verified stamp says what the bytes
// were when written or last read, and validation reports what they are now.
// An absent chunk (store.ErrNotFound) or a transient read error is reported
// but is no evidence of tampering: the error wraps ErrTampered if any other
// failure occurred, else store.ErrNotFound if a chunk is missing, else it is
// the transient error.
func (db *DB) VerifyVersion(key string, uid hash.Hash, deep bool) (VerifyReport, error) {
	rep := VerifyReport{UID: uid, OK: true}
	var tampered, missing int
	var transient error
	fail := func(id hash.Hash, context string, err error) {
		rep.OK = false
		rep.Failures = append(rep.Failures, VerifyFailure{ChunkID: id, Context: context, Err: err})
		switch {
		case errors.Is(err, store.ErrNotFound):
			missing++
		case errors.Is(err, store.ErrUnavailable):
			transient = err
		default:
			tampered++
		}
	}
	seen := map[hash.Hash]bool{}
	// A deep walk also holds every base edge to the Seq order merges rely
	// on (fnode.CheckSeq), once both ends are verified: seqs records each
	// FNode's Seq, edges each (child, base) pair.
	seqs := map[hash.Hash]uint64{}
	var edges [][2]hash.Hash
	var out []*chunk.Chunk
	var errs []error
	err := fnode.Walk([]hash.Hash{uid}, seen, func(ids []hash.Hash) ([]*chunk.Chunk, error) {
		// One batched, fresh read per round, reusing the last round's slots.
		out = slices.Grow(out[:0], len(ids))[:len(ids)]
		errs = slices.Grow(errs[:0], len(ids))[:len(ids)]
		db.verifier.GetEach(ids, out, errs, true)
		for i, id := range ids {
			c := out[i]
			out[i] = nil // until it verifies
			if err := errs[i]; err != nil {
				context := "chunk reachable from " + uid.Short()
				if id == uid {
					context = "version object (FNode)"
				}
				fail(id, context, err)
				continue
			}
			if id == uid && c.Type() != chunk.TypeFNode {
				fail(id, "version object (FNode)", fmt.Errorf("%w: %s is a %s", fnode.ErrNotFNode, id.Short(), c.Type()))
				continue
			}
			if c.Type() == chunk.TypeFNode {
				f, err := fnode.Decode(c.Data())
				if err == nil && string(f.Key) != key {
					err = fmt.Errorf("core: version belongs to key %q, not %q", f.Key, key)
				}
				if err != nil {
					fail(id, "version object (FNode)", err)
					continue
				}
				rep.VersionsChecked++
				if !deep {
					// The history is out of scope: marking the bases seen
					// takes those edges out of the walk.
					for _, b := range f.Bases {
						seen[b] = true
					}
				} else {
					seqs[id] = f.Seq
					for _, b := range f.Bases {
						edges = append(edges, [2]hash.Hash{id, b})
					}
				}
			}
			rep.ChunksChecked++
			out[i] = c
		}
		return out, nil
	}, nil)
	if err != nil {
		// A chunk that hashes to its id but does not decode as its type was
		// written malformed; the walk cannot continue past it.
		fail(uid, "object graph decoding", err)
	}
	for _, e := range edges {
		if baseSeq, ok := seqs[e[1]]; ok {
			if err := fnode.CheckSeq(e[0], seqs[e[0]], e[1], baseSeq); err != nil {
				fail(e[0], "version history (Seq order)", err)
			}
		}
	}
	switch {
	case tampered > 0:
		return rep, fmt.Errorf("%w: %d corrupt chunk(s) reachable from %s", ErrTampered, tampered, uid.Short())
	case missing > 0:
		return rep, fmt.Errorf("%w: %d chunk(s) missing under %s", store.ErrNotFound, missing, uid.Short())
	}
	return rep, transient
}
