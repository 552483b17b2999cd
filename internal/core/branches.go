// Package core implements the ForkBase storage engine: an extended
// key-value model where each object (key) carries multiple named branches,
// each branch heads a tamper-evident chain of versions (paper §II-D), and
// Git-like operations — Put, Get, Branch, Merge, Diff, Head, Latest, Rename
// — are first-class storage operations (paper Fig 1).
package core

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"forkbase/internal/hash"
)

// BranchTable tracks the head uid of every (key, branch).  In the paper's
// threat model the storage provider is untrusted but "the users keep track
// of the latest uid of every branch" — the branch table is that trusted
// client-side state, which is why it lives outside the chunk store.
//
// Implementations must be safe for concurrent use.
type BranchTable interface {
	// Head returns the branch head; ok=false if the branch does not exist.
	Head(key, branch string) (uid hash.Hash, ok bool, err error)
	// CompareAndSet atomically updates a head: old must match the current
	// head (zero hash means "branch must not exist").  It returns false
	// without changing anything on mismatch.
	CompareAndSet(key, branch string, old, new hash.Hash) (bool, error)
	// Delete removes a branch.
	Delete(key, branch string) error
	// Rename moves a branch head to a new name atomically.
	Rename(key, from, to string) error
	// Branches lists branch→head for a key.
	Branches(key string) (map[string]hash.Hash, error)
	// Keys lists all keys with at least one branch, sorted.
	Keys() ([]string, error)
}

// Branch-table errors.
var (
	ErrBranchExists   = errors.New("core: branch already exists")
	ErrBranchNotFound = errors.New("core: branch not found")
	ErrKeyNotFound    = errors.New("core: key not found")
	ErrStaleHead      = errors.New("core: concurrent update (stale head)")
	// ErrHeadsCorrupt: the heads journal is damaged somewhere other than a
	// torn tail, or is not a heads journal.  Open refuses it and leaves the
	// file as it found it.
	ErrHeadsCorrupt = errors.New("core: heads journal corrupt")
)

// MemBranchTable is the in-memory branch table.
type MemBranchTable struct {
	mu    sync.RWMutex
	heads map[string]map[string]hash.Hash // key -> branch -> uid
}

var _ BranchTable = (*MemBranchTable)(nil)

// NewMemBranchTable returns an empty branch table.
func NewMemBranchTable() *MemBranchTable {
	return &MemBranchTable{heads: make(map[string]map[string]hash.Hash)}
}

// Head implements BranchTable.
func (m *MemBranchTable) Head(key, branch string) (hash.Hash, bool, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	uid, ok := m.heads[key][branch]
	return uid, ok, nil
}

// CompareAndSet implements BranchTable.
func (m *MemBranchTable) CompareAndSet(key, branch string, old, new hash.Hash) (bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	cur := m.heads[key][branch]
	if cur != old {
		return false, nil
	}
	if m.heads[key] == nil {
		m.heads[key] = make(map[string]hash.Hash)
	}
	m.heads[key][branch] = new
	return true, nil
}

// Delete implements BranchTable.
func (m *MemBranchTable) Delete(key, branch string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.heads[key][branch]; !ok {
		return fmt.Errorf("%w: %s@%s", ErrBranchNotFound, key, branch)
	}
	delete(m.heads[key], branch)
	if len(m.heads[key]) == 0 {
		delete(m.heads, key)
	}
	return nil
}

// Rename implements BranchTable.
func (m *MemBranchTable) Rename(key, from, to string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	uid, ok := m.heads[key][from]
	if !ok {
		return fmt.Errorf("%w: %s@%s", ErrBranchNotFound, key, from)
	}
	if _, exists := m.heads[key][to]; exists {
		return fmt.Errorf("%w: %s@%s", ErrBranchExists, key, to)
	}
	m.heads[key][to] = uid
	delete(m.heads[key], from)
	return nil
}

// Branches implements BranchTable.
func (m *MemBranchTable) Branches(key string) (map[string]hash.Hash, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	src, ok := m.heads[key]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrKeyNotFound, key)
	}
	out := make(map[string]hash.Hash, len(src))
	for b, u := range src {
		out[b] = u
	}
	return out, nil
}

// Keys implements BranchTable.
func (m *MemBranchTable) Keys() ([]string, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]string, 0, len(m.heads))
	for k := range m.heads {
		out = append(out, k)
	}
	sort.Strings(out)
	return out, nil
}

// FileBranchTable persists heads in heads.log, an append-only journal next
// to the chunk log, so a file-backed ForkBase instance recovers its branches
// on reopen.  A mutation is one record appended with one write before it
// returns, so its cost does not depend on how many heads exist; the journal
// is rewritten as a snapshot of the live heads only once it has outgrown
// them (README, "Heads journal").  An append reaches the page cache, not the
// disk: the durability of the file store's default SyncNone.
type FileBranchTable struct {
	mem  *MemBranchTable
	path string

	mu        sync.Mutex // serialises mutations and journal writes
	file      *os.File   // the journal, open for appending; nil once closed
	size      int64      // journal length in bytes
	compactAt int64      // journal length past which it is compacted
	err       error      // set when a failed append could not be undone
	buf       []byte     // record encoding scratch
}

var _ BranchTable = (*FileBranchTable)(nil)

// The journal is an 8-byte header — magic, format version — and records
// framed [u32 len][u32 crc32c][payload], little-endian.  A payload is op,
// u16 keylen, key, u16 brlen, branch, then by op: the 32-byte uid (set),
// nothing (delete), or u16 tolen, new branch name (rename).
const (
	headsFile    = "heads.log"
	legacyHeads  = "branches.json" // the whole-table JSON file older stores kept
	headsMagic   = "FBHEADS"
	headsVersion = 1
	headerLen    = len(headsMagic) + 1
	frameLen     = 8

	opSet    = 1
	opDelete = 2
	opRename = 3

	maxName    = 1<<16 - 1
	minPayload = 1 + 2 + 1 + 2     // delete: a one-byte key, an empty branch name
	maxPayload = 1 + 3*(2+maxName) // rename: three names of maxName bytes

	// The journal is compacted once it is compactRatio times a snapshot of
	// the live heads and at least compactFloor, so one rewrite is paid for by
	// at least a snapshot's worth of appends.
	compactRatio = 4
	compactFloor = 1 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

var errHeadsClosed = errors.New("core: branch table closed")

// headRecord is one journal record.
type headRecord struct {
	op          byte
	key, branch string
	uid         hash.Hash // opSet: the new head
	to          string    // opRename: the new branch name
}

func appendRecord(b []byte, r headRecord) []byte {
	start := len(b)
	b = append(b, make([]byte, frameLen)...)
	b = append(b, r.op)
	b = appendName(b, r.key)
	b = appendName(b, r.branch)
	switch r.op {
	case opSet:
		b = append(b, r.uid[:]...)
	case opRename:
		b = appendName(b, r.to)
	}
	p := b[start+frameLen:]
	binary.LittleEndian.PutUint32(b[start:], uint32(len(p)))
	binary.LittleEndian.PutUint32(b[start+4:], crc32.Checksum(p, castagnoli))
	return b
}

func appendName(b []byte, s string) []byte {
	return append(binary.LittleEndian.AppendUint16(b, uint16(len(s))), s...)
}

// appendSnapshot encodes m as a compacted journal: the header, then one set
// record per head, in key and branch order.
func appendSnapshot(b []byte, m *MemBranchTable) []byte {
	b = append(append(b, headsMagic...), headsVersion)
	m.mu.RLock()
	defer m.mu.RUnlock()
	keys := make([]string, 0, len(m.heads))
	for k := range m.heads {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		branches := make([]string, 0, len(m.heads[k]))
		for br := range m.heads[k] {
			branches = append(branches, br)
		}
		sort.Strings(branches)
		for _, br := range branches {
			b = appendRecord(b, headRecord{op: opSet, key: k, branch: br, uid: m.heads[k][br]})
		}
	}
	return b
}

// compactionPoint is the journal length that triggers the next compaction
// after a snapshot of n bytes.
func compactionPoint(n int) int64 { return max(compactFloor, compactRatio*int64(n)) }

// scanJournal decodes journal b and hands each record to apply, in order.
// It returns the length of the intact prefix: all of b, or less when the
// last record is torn — cut off by the end of b, or failing its checksum
// with nothing after it — which is what an interrupted append leaves.  Only
// the tail can be torn, so any other damage is ErrHeadsCorrupt: a bad
// header, a length no writer produces, a checksum failure with bytes after
// it, a record that does not decode or does not apply.  Every length is
// checked against the bytes that remain before it is used.
func scanJournal(b []byte, apply func(headRecord) error) (int, error) {
	if len(b) < headerLen || string(b[:len(headsMagic)]) != headsMagic {
		return 0, fmt.Errorf("%w: no heads journal header", ErrHeadsCorrupt)
	}
	if v := b[len(headsMagic)]; v != headsVersion {
		return 0, fmt.Errorf("%w: format version %d, want %d", ErrHeadsCorrupt, v, headsVersion)
	}
	off := headerLen
	for off < len(b) {
		rest := b[off:]
		if len(rest) < frameLen {
			return off, nil
		}
		n := binary.LittleEndian.Uint32(rest)
		if n < minPayload || n > maxPayload {
			return off, fmt.Errorf("%w: record at offset %d claims %d bytes", ErrHeadsCorrupt, off, n)
		}
		if int(n) > len(rest)-frameLen {
			return off, nil
		}
		p, end := rest[frameLen:frameLen+int(n)], off+frameLen+int(n)
		if crc32.Checksum(p, castagnoli) != binary.LittleEndian.Uint32(rest[4:]) {
			if end == len(b) {
				return off, nil
			}
			return off, fmt.Errorf("%w: record at offset %d fails its checksum", ErrHeadsCorrupt, off)
		}
		r, err := decodeRecord(p)
		if err == nil {
			err = apply(r)
		}
		if err != nil {
			return off, fmt.Errorf("%w: record at offset %d: %v", ErrHeadsCorrupt, off, err)
		}
		off = end
	}
	return off, nil
}

// decodeRecord parses a checksummed payload of at least minPayload bytes.
// The encoding is canonical: what decodes re-encodes to the same bytes.
func decodeRecord(p []byte) (headRecord, error) {
	r := headRecord{op: p[0]}
	if r.op < opSet || r.op > opRename {
		return r, fmt.Errorf("unknown op %d", r.op)
	}
	var ok bool
	if r.key, p, ok = takeName(p[1:]); !ok || r.key == "" {
		return r, errors.New("bad key")
	}
	if r.branch, p, ok = takeName(p); !ok {
		return r, errors.New("bad branch name")
	}
	switch r.op {
	case opSet:
		if len(p) < hash.Size {
			return r, errors.New("short uid")
		}
		r.uid, p = hash.Hash(p[:hash.Size]), p[hash.Size:]
	case opRename:
		if r.to, p, ok = takeName(p); !ok {
			return r, errors.New("bad new branch name")
		}
	}
	if len(p) != 0 {
		return r, fmt.Errorf("%d trailing bytes", len(p))
	}
	return r, nil
}

func takeName(p []byte) (string, []byte, bool) {
	if len(p) < 2 {
		return "", p, false
	}
	n := int(binary.LittleEndian.Uint16(p))
	if n > len(p)-2 {
		return "", p, false
	}
	return string(p[2 : 2+n]), p[2+n:], true
}

// applyTo applies r to m: a record replayed, or the in-memory half of a
// mutation whose record is in the journal.
func (r headRecord) applyTo(m *MemBranchTable) error {
	switch r.op {
	case opSet:
		cur, _, _ := m.Head(r.key, r.branch)
		_, err := m.CompareAndSet(r.key, r.branch, cur, r.uid)
		return err
	case opDelete:
		return m.Delete(r.key, r.branch)
	default:
		return m.Rename(r.key, r.branch, r.to)
	}
}

// checkNames rejects the names a journal record cannot hold.
func checkNames(key, branch string) error {
	if key == "" || len(key) > maxName || len(branch) > maxName {
		return fmt.Errorf("core: head %.32q@%.32q: a key must be 1 to %d bytes and a branch name at most %d",
			key, branch, maxName, maxName)
	}
	return nil
}

// OpenFileBranchTable opens the heads journal in dir, creating it — from the
// branches.json of an older store, when there is one — if it does not exist.
// A torn last record is truncated; any other damage fails the open with
// ErrHeadsCorrupt and leaves the file as it was.
func OpenFileBranchTable(dir string) (*FileBranchTable, error) {
	f := &FileBranchTable{mem: NewMemBranchTable(), path: filepath.Join(dir, headsFile)}
	legacy := filepath.Join(dir, legacyHeads)
	data, err := os.ReadFile(f.path)
	switch {
	case err == nil:
		err = f.replay(data)
	case errors.Is(err, os.ErrNotExist):
		err = f.convert(legacy)
	default:
		err = fmt.Errorf("core: heads journal: %w", err)
	}
	if err != nil {
		return nil, err
	}
	// The journal is complete before the JSON file goes, so when a crash
	// leaves both, the journal is the one to keep.
	if err := os.Remove(legacy); err != nil && !errors.Is(err, os.ErrNotExist) {
		f.file.Close()
		return nil, fmt.Errorf("core: %w", err)
	}
	return f, nil
}

// replay rebuilds the table from the journal's bytes and opens the journal
// for appending, first cutting off a torn tail — nothing can follow one, so
// no other head is lost with it.
func (f *FileBranchTable) replay(data []byte) error {
	intact, err := scanJournal(data, func(r headRecord) error { return r.applyTo(f.mem) })
	if err != nil {
		return fmt.Errorf("%w (%s)", err, f.path)
	}
	file, err := os.OpenFile(f.path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return fmt.Errorf("core: heads journal: %w", err)
	}
	if intact < len(data) {
		if err = file.Truncate(int64(intact)); err == nil {
			err = file.Sync()
		}
		if err != nil {
			file.Close()
			return fmt.Errorf("core: heads journal: cutting off a torn tail: %w", err)
		}
	}
	f.file, f.size = file, int64(intact)
	f.compactAt = compactionPoint(len(appendSnapshot(nil, f.mem)))
	return nil
}

// convert creates the journal as a snapshot of legacy, an older store's
// branches.json, or of no heads when there is none.
func (f *FileBranchTable) convert(legacy string) error {
	data, err := os.ReadFile(legacy)
	if errors.Is(err, os.ErrNotExist) {
		return f.compact()
	}
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	var raw map[string]map[string]string
	if err := json.Unmarshal(data, &raw); err != nil {
		return fmt.Errorf("core: %s: %w", legacy, err)
	}
	for key, branches := range raw {
		for br, s := range branches {
			uid, err := hash.Parse(s)
			if err == nil {
				err = checkNames(key, br)
			}
			if err != nil {
				return fmt.Errorf("core: %s: %w", legacy, err)
			}
			_ = headRecord{op: opSet, key: key, branch: br, uid: uid}.applyTo(f.mem) // a set always applies
		}
	}
	return f.compact()
}

// compact rewrites the journal as a snapshot of the live heads — written to
// a temporary file, fsynced, renamed over the journal, directory fsynced —
// and appends continue in the new file.  The caller holds f.mu, or owns f.
func (f *FileBranchTable) compact() error {
	snap := appendSnapshot(nil, f.mem)
	tmp := f.path + ".tmp"
	file, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("core: heads journal: %w", err)
	}
	_, err = file.Write(snap)
	if err == nil {
		err = file.Sync()
	}
	if err == nil {
		err = os.Rename(tmp, f.path)
	}
	if err != nil {
		file.Close()
		os.Remove(tmp)
		return fmt.Errorf("core: heads journal compaction: %w", err)
	}
	if d, err := os.Open(filepath.Dir(f.path)); err == nil {
		_ = d.Sync() // best effort: some platforms cannot fsync a directory
		d.Close()
	}
	if f.file != nil {
		f.file.Close() // every record in it is in the snapshot
	}
	f.file, f.size, f.compactAt = file, int64(len(snap)), compactionPoint(len(snap))
	return nil
}

// writable reports why the journal cannot take a record, if it cannot.  The
// caller holds f.mu.
func (f *FileBranchTable) writable() error {
	if f.file == nil {
		return errHeadsClosed
	}
	return f.err
}

// commit appends r to the journal, then applies it to the table.  The
// caller holds f.mu and has checked, under it, that r applies.
func (f *FileBranchTable) commit(r headRecord) error {
	f.buf = appendRecord(f.buf[:0], r)
	if _, err := f.file.Write(f.buf); err != nil {
		// A partial record left in place would sit in front of the next one
		// and fail every later open as damage, so it is cut off; if even
		// that fails, nothing more may be appended.
		if terr := f.file.Truncate(f.size); terr != nil {
			f.err = fmt.Errorf("core: heads journal unusable after a failed append: %w", terr)
		}
		return fmt.Errorf("core: heads journal append: %w", err)
	}
	f.size += int64(len(f.buf))
	_ = r.applyTo(f.mem) // checked by the caller
	if f.size > f.compactAt {
		_ = f.compact() // on failure the journal is still complete; the next append retries
	}
	return nil
}

// Head implements BranchTable.
func (f *FileBranchTable) Head(key, branch string) (hash.Hash, bool, error) {
	return f.mem.Head(key, branch)
}

// CompareAndSet implements BranchTable.  It rejects an empty key and a key
// or branch name longer than 65,535 bytes, which a record cannot hold.
func (f *FileBranchTable) CompareAndSet(key, branch string, old, new hash.Hash) (bool, error) {
	if err := checkNames(key, branch); err != nil {
		return false, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.writable(); err != nil {
		return false, err
	}
	if cur, _, _ := f.mem.Head(key, branch); cur != old {
		return false, nil
	}
	err := f.commit(headRecord{op: opSet, key: key, branch: branch, uid: new})
	return err == nil, err
}

// Delete implements BranchTable.
func (f *FileBranchTable) Delete(key, branch string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.writable(); err != nil {
		return err
	}
	if _, ok, _ := f.mem.Head(key, branch); !ok {
		return fmt.Errorf("%w: %s@%s", ErrBranchNotFound, key, branch)
	}
	return f.commit(headRecord{op: opDelete, key: key, branch: branch})
}

// Rename implements BranchTable.  One record carries it, so a torn append
// cannot leave the head under both names.
func (f *FileBranchTable) Rename(key, from, to string) error {
	if err := checkNames(key, to); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.writable(); err != nil {
		return err
	}
	if _, ok, _ := f.mem.Head(key, from); !ok {
		return fmt.Errorf("%w: %s@%s", ErrBranchNotFound, key, from)
	}
	if _, exists, _ := f.mem.Head(key, to); exists {
		return fmt.Errorf("%w: %s@%s", ErrBranchExists, key, to)
	}
	return f.commit(headRecord{op: opRename, key: key, branch: from, to: to})
}

// Branches implements BranchTable.
func (f *FileBranchTable) Branches(key string) (map[string]hash.Hash, error) {
	return f.mem.Branches(key)
}

// Keys implements BranchTable.
func (f *FileBranchTable) Keys() ([]string, error) { return f.mem.Keys() }

// Close closes the journal; later mutations fail, reads still answer.  Every
// acknowledged mutation is in the journal before it returns, so Close only
// releases the file.
func (f *FileBranchTable) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.file == nil {
		return nil
	}
	err := f.file.Close()
	f.file = nil
	return err
}
