package core

import (
	"context"
	"fmt"

	"forkbase/internal/index"
	"forkbase/internal/value"
)

// editHead is the write of the three edit methods: it reads the head of
// key@branch, derives a new value from it with edit, and commits that value
// against the head it was derived from.  The head is the one the branch
// table last saw (a remote table's memory costs no round trip); when that
// one proves stale the edit is made once more against the current head.
// Like Put it does not retry beyond that: a concurrent writer costs
// ErrStaleHead and the caller reloads.
func (db *DB) editHead(key, branch string, meta map[string]string, edit func(cur Version) (value.Value, error)) (Version, error) {
	return first(db.commit(context.Background(), db.met.opEdit, func(heads *headReader) ([]WriteOp, error) {
		w := []WriteOp{{Key: key, Branch: branch, Meta: meta}}
		head, err := heads.must(key, orDefault(branch))
		if err != nil {
			return w, err
		}
		cur, err := db.GetVersion(key, head)
		if err != nil {
			return w, err
		}
		w[0].Value, err = edit(cur)
		w[0].parent = cur.UID
		return w, err
	}))
}

// EditMap writes a new version of a map- or set-valued object by applying
// puts and deletes to the current branch head *incrementally*: only the
// affected index region is rewritten, so the cost is O(changes · log N)
// rather than O(N), and all untouched nodes are shared with the previous
// version.  The edit loads the head's index by the kind its value carries, so
// a branch keeps whichever structure (POS-Tree or MPT) its head was written
// with.
func (db *DB) EditMap(key, branch string, puts []index.Entry, deletes [][]byte, meta map[string]string) (Version, error) {
	return db.editHead(key, branch, meta, func(cur Version) (value.Value, error) {
		switch cur.Value.Kind() {
		case value.KindMap, value.KindSet:
		default:
			return value.Value{}, fmt.Errorf("core: EditMap on %s value", cur.Value.Kind())
		}
		ix, err := cur.Value.Index(db.st, db.cfg)
		if err != nil {
			return value.Value{}, err
		}
		ops := make([]index.Op, 0, len(puts)+len(deletes))
		for _, e := range puts {
			ops = append(ops, index.Put(e.Key, e.Val))
		}
		for _, k := range deletes {
			ops = append(ops, index.Del(k))
		}
		edited, err := ix.Apply(ops)
		if err != nil {
			return value.Value{}, err
		}
		return value.FromIndex(cur.Value.Kind(), edited), nil
	})
}

// AppendList writes a new version of a list-valued object with items
// appended, reusing the existing sequence chunks.
func (db *DB) AppendList(key, branch string, items [][]byte, meta map[string]string) (Version, error) {
	return db.editHead(key, branch, meta, func(cur Version) (value.Value, error) {
		seq, err := cur.Value.Seq(db.st, db.cfg)
		if err != nil {
			return value.Value{}, err
		}
		appended, err := seq.Append(items...)
		if err != nil {
			return value.Value{}, err
		}
		return value.FromSeq(appended), nil
	})
}

// SpliceBlob writes a new version of a blob-valued object with bytes
// [at, at+del) replaced by ins, re-chunking only the affected region.
func (db *DB) SpliceBlob(key, branch string, at, del uint64, ins []byte, meta map[string]string) (Version, error) {
	return db.editHead(key, branch, meta, func(cur Version) (value.Value, error) {
		blob, err := cur.Value.Blob(db.st, db.cfg)
		if err != nil {
			return value.Value{}, err
		}
		spliced, err := blob.Splice(at, del, ins)
		if err != nil {
			return value.Value{}, err
		}
		return value.FromBlob(spliced), nil
	})
}
