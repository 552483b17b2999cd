// Package baseline implements the comparison systems of the paper's
// Table I, each reduced to its storage model so the experiment harness can
// measure ForkBase against them on equal workloads:
//
//   - FullCopy      — no dedup at all: every version stores a full copy
//     (the naive ad-hoc approach the introduction argues against).
//   - GitFile       — file-granularity dedup: a version is stored once iff
//     the *entire* serialized dataset is byte-identical (Git's data granule,
//     which the paper calls "too coarse-grained").
//   - DeltaChain    — table-oriented delta storage in the style of
//     OrpheusDB/Decibel: version i stores only row-level deltas against
//     version i-1; reads of old versions replay the chain.
//   - BPlusTree     — a classic fixed-capacity B+-tree whose page layout
//     depends on insertion order; used by the SIRI ablation to show why
//     ordinary indexes cannot share pages across versions.
package baseline

import (
	"sort"

	"forkbase/internal/hash"
)

// VersionedStore is the minimal interface the Table I harness drives:
// commit full snapshots, read back any version, report storage.
type VersionedStore interface {
	// Commit stores rows (key→row bytes) as the next version and returns
	// its index.
	Commit(rows map[string][]byte) int
	// Read returns the full content of a version.
	Read(version int) (map[string][]byte, error)
	// StorageBytes reports total physical bytes used.
	StorageBytes() int64
	// Name identifies the system in reports.
	Name() string
}

// --- FullCopy ----------------------------------------------------------------

// FullCopy stores every version as an independent full copy.
type FullCopy struct {
	versions []map[string][]byte
	bytes    int64
}

// NewFullCopy returns an empty FullCopy store.
func NewFullCopy() *FullCopy { return &FullCopy{} }

// Name implements VersionedStore.
func (f *FullCopy) Name() string { return "full-copy" }

// Commit implements VersionedStore.
func (f *FullCopy) Commit(rows map[string][]byte) int {
	cp := make(map[string][]byte, len(rows))
	for k, v := range rows {
		cp[k] = append([]byte(nil), v...)
		f.bytes += int64(len(k) + len(v))
	}
	f.versions = append(f.versions, cp)
	return len(f.versions) - 1
}

// Read implements VersionedStore.
func (f *FullCopy) Read(version int) (map[string][]byte, error) {
	if version < 0 || version >= len(f.versions) {
		return nil, errVersion(version)
	}
	return f.versions[version], nil
}

// StorageBytes implements VersionedStore.
func (f *FullCopy) StorageBytes() int64 { return f.bytes }

// --- GitFile -----------------------------------------------------------------

// GitFile deduplicates at whole-file granularity: the serialized dataset is
// hashed; identical serializations share storage, any difference stores a
// complete new file.
type GitFile struct {
	files    map[hash.Hash][]byte
	versions []hash.Hash
	bytes    int64
}

// NewGitFile returns an empty GitFile store.
func NewGitFile() *GitFile { return &GitFile{files: make(map[hash.Hash][]byte)} }

// Name implements VersionedStore.
func (g *GitFile) Name() string { return "git-file" }

// serialize renders rows deterministically (sorted by key).
func serialize(rows map[string][]byte) []byte {
	keys := make([]string, 0, len(rows))
	for k := range rows {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []byte
	for _, k := range keys {
		out = append(out, byte(len(k)>>8), byte(len(k)))
		out = append(out, k...)
		v := rows[k]
		out = append(out, byte(len(v)>>24), byte(len(v)>>16), byte(len(v)>>8), byte(len(v)))
		out = append(out, v...)
	}
	return out
}

// Commit implements VersionedStore.
func (g *GitFile) Commit(rows map[string][]byte) int {
	blob := serialize(rows)
	id := hash.Of(blob)
	if _, ok := g.files[id]; !ok {
		g.files[id] = blob
		g.bytes += int64(len(blob))
	}
	g.versions = append(g.versions, id)
	return len(g.versions) - 1
}

// Read implements VersionedStore.
func (g *GitFile) Read(version int) (map[string][]byte, error) {
	if version < 0 || version >= len(g.versions) {
		return nil, errVersion(version)
	}
	return deserialize(g.files[g.versions[version]]), nil
}

func deserialize(blob []byte) map[string][]byte {
	out := map[string][]byte{}
	p := blob
	for len(p) >= 2 {
		kl := int(p[0])<<8 | int(p[1])
		p = p[2:]
		k := string(p[:kl])
		p = p[kl:]
		vl := int(p[0])<<24 | int(p[1])<<16 | int(p[2])<<8 | int(p[3])
		p = p[4:]
		out[k] = p[:vl:vl]
		p = p[vl:]
	}
	return out
}

// StorageBytes implements VersionedStore.
func (g *GitFile) StorageBytes() int64 { return g.bytes }

// --- DeltaChain ---------------------------------------------------------------

// deltaOp is one row change between consecutive versions.
type deltaOp struct {
	key string
	val []byte // nil = deleted
}

// DeltaChain stores version 0 in full and each later version as row deltas
// against its predecessor.  Reading version v replays deltas 1..v — the
// classic storage/recreation trade-off of table-oriented versioning systems
// (OrpheusDB's checkout cost).
type DeltaChain struct {
	base   map[string][]byte
	deltas [][]deltaOp
	last   map[string][]byte
	bytes  int64
}

// NewDeltaChain returns an empty DeltaChain store.
func NewDeltaChain() *DeltaChain { return &DeltaChain{} }

// Name implements VersionedStore.
func (d *DeltaChain) Name() string { return "delta-chain" }

// Commit implements VersionedStore.
func (d *DeltaChain) Commit(rows map[string][]byte) int {
	if d.base == nil {
		d.base = make(map[string][]byte, len(rows))
		for k, v := range rows {
			d.base[k] = append([]byte(nil), v...)
			d.bytes += int64(len(k) + len(v))
		}
		d.last = d.base
		d.deltas = append(d.deltas, nil) // version 0 marker
		return 0
	}
	var ops []deltaOp
	for k, v := range rows {
		if old, ok := d.last[k]; !ok || string(old) != string(v) {
			cp := append([]byte(nil), v...)
			ops = append(ops, deltaOp{key: k, val: cp})
			d.bytes += int64(len(k) + len(v))
		}
	}
	for k := range d.last {
		if _, ok := rows[k]; !ok {
			ops = append(ops, deltaOp{key: k})
			d.bytes += int64(len(k))
		}
	}
	d.deltas = append(d.deltas, ops)
	next := make(map[string][]byte, len(rows))
	for k, v := range rows {
		next[k] = append([]byte(nil), v...)
	}
	d.last = next
	return len(d.deltas) - 1
}

// Read implements VersionedStore; cost grows with the chain length.
func (d *DeltaChain) Read(version int) (map[string][]byte, error) {
	if version < 0 || version >= len(d.deltas) {
		return nil, errVersion(version)
	}
	cur := make(map[string][]byte, len(d.base))
	for k, v := range d.base {
		cur[k] = v
	}
	for i := 1; i <= version; i++ {
		for _, op := range d.deltas[i] {
			if op.val == nil {
				delete(cur, op.key)
			} else {
				cur[op.key] = op.val
			}
		}
	}
	return cur, nil
}

// StorageBytes implements VersionedStore.
func (d *DeltaChain) StorageBytes() int64 { return d.bytes }

type versionError int

func (e versionError) Error() string { return "baseline: unknown version" }

func errVersion(v int) error { return versionError(v) }
