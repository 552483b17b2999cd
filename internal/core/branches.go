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
	"sync/atomic"
	"time"

	"forkbase/internal/hash"
)

// BranchTable tracks the head uid of every (key, branch).  In the paper's
// threat model the storage provider is untrusted but "the users keep track
// of the latest uid of every branch" — the branch table is that trusted
// client-side state, which is why it lives outside the chunk store.  Heads
// move only through Apply.  Implementations must be safe for concurrent use.
type BranchTable interface {
	// Head returns the branch head; ok=false if the branch does not exist.
	Head(key, branch string) (uid hash.Hash, ok bool, err error)
	// LastHead is Head as this table last saw it: remembered is true when
	// the answer comes from memory instead of the table that moves the head
	// (a remote table's), so it may be stale.  A write builds against it
	// and its Apply's expectation proves it current.
	LastHead(key, branch string) (uid hash.Hash, ok, remembered bool, err error)
	// Apply checks ops in order, each against the heads the earlier ones
	// leave, and makes all of them or none: it returns false, changing
	// nothing, when an expectation fails.
	Apply(ops []HeadOp) (bool, error)
	// CompareAndSet is the one-op Apply: old must be the current head (zero:
	// the branch must not exist), and a zero new deletes the branch.
	CompareAndSet(key, branch string, old, new hash.Hash) (bool, error)
	// Branches lists branch→head for a key.
	Branches(key string) (map[string]hash.Hash, error)
	// Keys lists all keys with at least one branch, sorted.
	Keys() ([]string, error)
	// Epoch is the collection epoch a writer takes before its first chunk
	// read or write and hands Apply in each HeadOp: a FeedTable refuses the
	// op with ErrCollected once a sweep has completed since (FeedTable.Epoch).
	Epoch() uint64
}

// ListHeads lists every head in bt: key → branch → uid.  A key whose last
// branch is deleted between the key listing and its branch lookup has no
// heads left and is skipped: GC lists under the fence every Apply of its
// FeedTable waits on, but other listings (a follower's local heads, a
// snapshot source) race the Applies.  Any other error fails the listing: a partial
// one would read as branches gone.
func ListHeads(bt BranchTable) (map[string]map[string]hash.Hash, error) {
	keys, err := bt.Keys()
	if err != nil {
		return nil, err
	}
	out := make(map[string]map[string]hash.Hash, len(keys))
	for _, key := range keys {
		branches, err := bt.Branches(key)
		if errors.Is(err, ErrKeyNotFound) {
			continue
		}
		if err != nil {
			return nil, err
		}
		out[key] = branches
	}
	return out, nil
}

// HeadOp is one head movement of an Apply.
type HeadOp struct {
	Key, Branch string
	// Expect is the head the branch must have when the op runs; zero means
	// the branch must not exist.  Any skips the check.
	Expect hash.Hash
	Any    bool
	// Set is the head the op leaves; zero deletes the branch.
	Set hash.Hash
	// Epoch is the collection epoch (BranchTable.Epoch) the op's writer took
	// before its first chunk read or write, or its value's when that is
	// older; 0 is unstamped, which no table refuses.
	Epoch uint64
}

// Branch-table errors.
var (
	ErrBranchExists   = errors.New("core: branch already exists")
	ErrBranchNotFound = errors.New("core: branch not found")
	ErrKeyNotFound    = errors.New("core: key not found")
	ErrStaleHead      = errors.New("core: concurrent update (stale head)")
	// ErrCollected: a head op's epoch predates a garbage collection that
	// completed since, which may have swept the chunks its value was built
	// from or read under.  Nothing is published; rebuild or reload the value
	// and retry.
	ErrCollected = errors.New("core: value predates a garbage collection; rebuild or reload it")
	// ErrHeadsCorrupt: the heads journal is damaged somewhere other than a
	// torn tail, or is not a heads journal.  Open refuses it and leaves the
	// file as it found it.
	ErrHeadsCorrupt = errors.New("core: heads journal corrupt")
)

// checkOps is the validation every table runs before an Apply: the ops must
// fit one journal record, so no table takes a head a file-backed follower
// could not journal.
func checkOps(ops []HeadOp) error {
	size := 1 // a batch record's op byte
	for _, op := range ops {
		if op.Key == "" || len(op.Key) > maxName || len(op.Branch) > maxName {
			return fmt.Errorf("core: head %.32q@%.32q: a key must be 1 to %d bytes and a branch name at most %d",
				op.Key, op.Branch, maxName, maxName)
		}
		size += 1 + 2 + len(op.Key) + 2 + len(op.Branch) + hash.Size
	}
	if size > maxPayload {
		return fmt.Errorf("core: an Apply of %d heads needs a %d-byte journal record, more than the %d one holds",
			len(ops), size, maxPayload)
	}
	return nil
}

// plan checks ops as Apply does against the heads look reports (zero:
// absent) and returns a set or delete record per head they change, in the
// order the ops first name them; false, and no records, when one fails.
func plan(ops []HeadOp, look func(key, branch string) hash.Hash) ([]headRecord, bool) {
	type ref struct{ key, branch string }
	after := make(map[ref]hash.Hash, len(ops))
	var order []ref
	for _, op := range ops {
		r := ref{op.Key, op.Branch}
		cur, seen := after[r]
		if !seen {
			cur, order = look(op.Key, op.Branch), append(order, r)
		}
		if !op.Any && cur != op.Expect {
			return nil, false
		}
		after[r] = op.Set
	}
	var changes []headRecord
	for _, r := range order {
		if set := after[r]; set != look(r.key, r.branch) {
			rec := headRecord{op: opSet, key: r.key, branch: r.branch, uid: set}
			if set.IsZero() {
				rec.op = opDelete
			}
			changes = append(changes, rec)
		}
	}
	return changes, true
}

// HeadTable is the branch table: the heads, in memory, and — when it is
// opened on a directory — heads.log, an append-only journal next to the
// chunk log, so a file-backed ForkBase instance recovers its branches on
// reopen.  A journaled Apply is one record appended with one write before
// it returns — its cost independent of how many heads exist, and a torn
// append loses the whole Apply — and the journal is rewritten as a snapshot
// once it has outgrown the live heads (README, "Heads journal").  The
// journal keeps the chunk store's durability contract: an append reaches the
// OS, not the disk; cutting a torn tail and compaction fsync their rewrites;
// Close fsyncs the journal.
type HeadTable struct {
	// mu serialises Apply and owns the journal fields below it.  Its holder
	// alone writes heads, so it reads heads without rw.
	mu sync.Mutex
	// rw guards heads for readers; Apply holds it only to install, so a
	// reader never waits on a journal write.
	rw    sync.RWMutex
	heads map[string]map[string]hash.Hash // key -> branch -> uid

	path      string       // the journal; "" for a table without one
	file      *os.File     // the journal, open for appending; nil once closed
	size      int64        // journal length in bytes
	compactAt int64        // journal length past which it is compacted
	err       error        // set when a failed append could not be undone
	buf       []byte       // record encoding scratch
	syncs     atomic.Int64 // journal fsyncs completed, as FileStore counts its own

	stamp uint64 // this incarnation: the epoch its collection clock starts at
}

var _ BranchTable = (*HeadTable)(nil)

// NewMemBranchTable returns an empty branch table without a journal.
func NewMemBranchTable() *HeadTable {
	return &HeadTable{heads: make(map[string]map[string]hash.Hash), stamp: uint64(time.Now().UnixNano())}
}

// Epoch implements BranchTable: the table's incarnation stamp, new at every
// open, as a Feed's epoch is.  A HeadTable sweeps nothing itself; the
// FeedTable in front of it counts its collections on top of the stamp, so
// an epoch taken before a restart can never pass for a later one.
func (t *HeadTable) Epoch() uint64 { return t.stamp }

// Head implements BranchTable.
func (t *HeadTable) Head(key, branch string) (hash.Hash, bool, error) {
	t.rw.RLock()
	defer t.rw.RUnlock()
	uid, ok := t.heads[key][branch]
	return uid, ok, nil
}

// LastHead implements BranchTable: the table holds the heads, so it is Head.
func (t *HeadTable) LastHead(key, branch string) (hash.Hash, bool, bool, error) {
	uid, ok, err := t.Head(key, branch)
	return uid, ok, false, err
}

// Apply implements BranchTable: with a journal, the heads it changes go to
// it as one record — a set or delete for one head, a batch for several —
// before they go to the table.  An Apply that changes nothing writes nothing.
func (t *HeadTable) Apply(ops []HeadOp) (bool, error) {
	if err := checkOps(ops); err != nil {
		return false, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	err := t.err
	if t.path != "" && t.file == nil {
		err = errHeadsClosed
	}
	if err != nil {
		return false, err
	}
	changes, ok := plan(ops, func(k, b string) hash.Hash { return t.heads[k][b] })
	if len(changes) == 0 {
		return ok, nil
	}
	if t.file != nil {
		r := changes[0]
		if len(changes) > 1 {
			r = headRecord{op: opBatch, batch: changes}
		}
		t.buf = appendRecord(t.buf[:0], r)
		if _, err := t.file.Write(t.buf); err != nil {
			// A partial record left in place would sit in front of the next
			// one and fail every later open as damage, so it is cut off; if
			// even that fails, nothing more may be appended.
			if terr := t.file.Truncate(t.size); terr != nil {
				t.err = fmt.Errorf("core: heads journal unusable after a failed append: %w", terr)
			}
			return false, fmt.Errorf("core: heads journal append: %w", err)
		}
		t.size += int64(len(t.buf))
	}
	t.rw.Lock()
	_ = t.install(headRecord{op: opBatch, batch: changes}) // plan's records apply
	t.rw.Unlock()
	if t.file != nil && t.size > t.compactAt {
		_ = t.compact() // on failure the journal is still complete; the next append retries
	}
	return true, nil
}

// CompareAndSet implements BranchTable.
func (t *HeadTable) CompareAndSet(key, branch string, old, new hash.Hash) (bool, error) {
	return t.Apply([]HeadOp{{Key: key, Branch: branch, Expect: old, Set: new}})
}

// install applies journal record r to the heads; the caller holds mu and
// rw for writing, or owns t.  A delete or rename of a missing branch, or a
// rename onto an existing one, fails.
func (t *HeadTable) install(r headRecord) error {
	switch r.op {
	case opSet:
		if t.heads[r.key] == nil {
			t.heads[r.key] = make(map[string]hash.Hash)
		}
		t.heads[r.key][r.branch] = r.uid
	case opDelete:
		if _, ok := t.heads[r.key][r.branch]; !ok {
			return fmt.Errorf("%w: %s@%s", ErrBranchNotFound, r.key, r.branch)
		}
		delete(t.heads[r.key], r.branch)
		if len(t.heads[r.key]) == 0 {
			delete(t.heads, r.key)
		}
	case opRename:
		uid, ok := t.heads[r.key][r.branch]
		if !ok {
			return fmt.Errorf("%w: %s@%s", ErrBranchNotFound, r.key, r.branch)
		}
		if _, exists := t.heads[r.key][r.to]; exists {
			return fmt.Errorf("%w: %s@%s", ErrBranchExists, r.key, r.to)
		}
		t.heads[r.key][r.to] = uid
		delete(t.heads[r.key], r.branch)
	case opBatch:
		for _, s := range r.batch {
			if err := t.install(s); err != nil {
				return err
			}
		}
	}
	return nil
}

// Branches implements BranchTable.
func (t *HeadTable) Branches(key string) (map[string]hash.Hash, error) {
	t.rw.RLock()
	defer t.rw.RUnlock()
	src, ok := t.heads[key]
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
func (t *HeadTable) Keys() ([]string, error) {
	t.rw.RLock()
	defer t.rw.RUnlock()
	out := make([]string, 0, len(t.heads))
	for k := range t.heads {
		out = append(out, k)
	}
	sort.Strings(out)
	return out, nil
}

// Close fsyncs the journal, if there is one, so every acknowledged mutation
// is on disk, and closes it; later mutations of a journaled table fail,
// reads still answer.
func (t *HeadTable) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.file == nil {
		return nil
	}
	err := errors.Join(t.sync(t.file), t.file.Close())
	t.file = nil
	return err
}

// sync fsyncs a journal file and counts it.
func (t *HeadTable) sync(file *os.File) error {
	if err := file.Sync(); err != nil {
		return err
	}
	t.syncs.Add(1)
	return nil
}

// The journal is an 8-byte header — magic, format version — and records
// framed [u32 len][u32 crc32c][payload], little-endian.  A payload is one
// head: op, u16 keylen, key, u16 brlen, branch, then the 32-byte uid (set)
// or nothing (delete); or, for an Apply that moves several heads, opBatch
// followed by two or more of those.  Version 1 had no batch but a rename:
// op 3, the names, u16 tolen, the new branch name.  Open reads both and
// rewrites a version 1 journal as version 2 before it appends.
const (
	headsFile    = "heads.log"
	legacyHeads  = "branches.json" // the whole-table JSON file older stores kept
	headsMagic   = "FBHEADS"
	headsVersion = 2
	headerLen    = len(headsMagic) + 1
	frameLen     = 8

	opSet    = 1
	opDelete = 2
	opRename = 3 // version 1 only
	opBatch  = 4 // version 2 only

	maxName    = 1<<16 - 1
	minPayload = 1 + 2 + 1 + 2 // delete: a one-byte key, an empty branch name
	// maxPayload bounds one record, and so the heads one Apply moves:
	// millions of short names.  A longer length is damage, not a torn tail.
	maxPayload = 1 << 30

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
	uid         hash.Hash    // opSet: the new head
	to          string       // opRename: the new branch name
	batch       []headRecord // opBatch: its sets and deletes, in order
}

func appendRecord(b []byte, r headRecord) []byte {
	start := len(b)
	b = appendPayload(append(b, make([]byte, frameLen)...), r)
	p := b[start+frameLen:]
	binary.LittleEndian.PutUint32(b[start:], uint32(len(p)))
	binary.LittleEndian.PutUint32(b[start+4:], crc32.Checksum(p, castagnoli))
	return b
}

func appendPayload(b []byte, r headRecord) []byte {
	if r.op == opBatch {
		b = append(b, opBatch)
		for _, s := range r.batch {
			b = appendPayload(b, s)
		}
		return b
	}
	b = appendName(appendName(append(b, r.op), r.key), r.branch)
	switch r.op {
	case opSet:
		b = append(b, r.uid[:]...)
	case opRename:
		b = appendName(b, r.to)
	}
	return b
}

func appendName(b []byte, s string) []byte {
	return append(binary.LittleEndian.AppendUint16(b, uint16(len(s))), s...)
}

// appendSnapshot encodes heads as a compacted journal: the header, then one
// set record per head, in key and branch order.
func appendSnapshot(b []byte, heads map[string]map[string]hash.Hash) []byte {
	b = append(append(b, headsMagic...), headsVersion)
	keys := make([]string, 0, len(heads))
	for k := range heads {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		branches := make([]string, 0, len(heads[k]))
		for br := range heads[k] {
			branches = append(branches, br)
		}
		sort.Strings(branches)
		for _, br := range branches {
			b = appendRecord(b, headRecord{op: opSet, key: k, branch: br, uid: heads[k][br]})
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
// it, a record that does not decode or does not apply, and a record that
// looks torn but has an intact record after it (see torn).  Every length
// is checked against the bytes that remain before it is used.
func scanJournal(b []byte, apply func(headRecord) error) (int, error) {
	if len(b) < headerLen || string(b[:len(headsMagic)]) != headsMagic {
		return 0, fmt.Errorf("%w: no heads journal header", ErrHeadsCorrupt)
	}
	version := b[len(headsMagic)]
	if version != 1 && version != headsVersion {
		return 0, fmt.Errorf("%w: format version %d, want 1 or %d", ErrHeadsCorrupt, version, headsVersion)
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
			return torn(b, off)
		}
		p, end := rest[frameLen:frameLen+int(n)], off+frameLen+int(n)
		if crc32.Checksum(p, castagnoli) != binary.LittleEndian.Uint32(rest[4:]) {
			if end == len(b) {
				return torn(b, off)
			}
			return off, fmt.Errorf("%w: record at offset %d fails its checksum", ErrHeadsCorrupt, off)
		}
		r, err := decodeRecord(p, version)
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

// torn accepts the record at off as a torn tail, so the intact prefix ends
// there, unless an intact record — length in range, inside b, checksum
// matching — starts at a later offset.  An interrupted append never leaves
// a complete record after the one it tore, so that is damage (a flipped
// length, say), and cutting at off would drop complete records.
func torn(b []byte, off int) (int, error) {
	for at := off + 1; at+frameLen+minPayload <= len(b); at++ {
		rest := b[at:]
		n := binary.LittleEndian.Uint32(rest)
		if n >= minPayload && n <= maxPayload && int(n) <= len(rest)-frameLen &&
			crc32.Checksum(rest[frameLen:frameLen+int(n)], castagnoli) == binary.LittleEndian.Uint32(rest[4:]) {
			return off, fmt.Errorf("%w: record at offset %d is cut short, but an intact record starts at offset %d", ErrHeadsCorrupt, off, at)
		}
	}
	return off, nil
}

// decodeRecord parses a checksummed payload of at least minPayload bytes
// from a journal of the given format version.  The encoding is canonical:
// what decodes re-encodes to the same bytes.
func decodeRecord(p []byte, version byte) (headRecord, error) {
	if p[0] != opBatch || version == 1 {
		r, rest, err := takeHead(p, version == 1)
		if err == nil && len(rest) != 0 {
			err = fmt.Errorf("%d trailing bytes", len(rest))
		}
		return r, err
	}
	r := headRecord{op: opBatch}
	for p = p[1:]; len(p) > 0; {
		s, rest, err := takeHead(p, false)
		if err != nil {
			return r, err
		}
		r.batch, p = append(r.batch, s), rest
	}
	if len(r.batch) < 2 {
		return r, errors.New("a batch of fewer than two heads")
	}
	return r, nil
}

// takeHead parses one set or delete — or rename, when renames are allowed —
// from the front of p and returns the bytes after it.
func takeHead(p []byte, renames bool) (headRecord, []byte, error) {
	r := headRecord{op: p[0]}
	if r.op != opSet && r.op != opDelete && (r.op != opRename || !renames) {
		return r, p, fmt.Errorf("unknown op %d", r.op)
	}
	var ok bool
	if r.key, p, ok = takeName(p[1:]); !ok || r.key == "" {
		return r, p, errors.New("bad key")
	}
	if r.branch, p, ok = takeName(p); !ok {
		return r, p, errors.New("bad branch name")
	}
	switch r.op {
	case opSet:
		if len(p) < hash.Size {
			return r, p, errors.New("short uid")
		}
		r.uid, p = hash.Hash(p[:hash.Size]), p[hash.Size:]
	case opRename:
		if r.to, p, ok = takeName(p); !ok {
			return r, p, errors.New("bad new branch name")
		}
	}
	return r, p, nil
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

// OpenFileBranchTable opens the heads journal in dir, creating it — from the
// branches.json of an older store, when there is one — if it does not exist.
// A torn last record is truncated; any other damage fails the open with
// ErrHeadsCorrupt and leaves the file as it was.
func OpenFileBranchTable(dir string) (*HeadTable, error) {
	t := NewMemBranchTable()
	t.path = filepath.Join(dir, headsFile)
	legacy := filepath.Join(dir, legacyHeads)
	data, err := os.ReadFile(t.path)
	switch {
	case err == nil:
		err = t.replay(data)
	case errors.Is(err, os.ErrNotExist):
		err = t.convert(legacy)
	default:
		err = fmt.Errorf("core: heads journal: %w", err)
	}
	if err != nil {
		return nil, err
	}
	// The journal is complete before the JSON file goes, so when a crash
	// leaves both, the journal is the one to keep.
	if err := os.Remove(legacy); err != nil && !errors.Is(err, os.ErrNotExist) {
		t.file.Close()
		return nil, fmt.Errorf("core: %w", err)
	}
	return t, nil
}

// replay rebuilds the heads from the journal's bytes and opens the journal
// for appending, first cutting off a torn tail — scanJournal has checked
// that no intact record follows one, so no other head is lost with it.  A
// version 1 journal is rewritten as a version 2 snapshot instead, so no
// version 2 record follows a version 1 header.
func (t *HeadTable) replay(data []byte) error {
	intact, err := scanJournal(data, t.install)
	if err != nil {
		return fmt.Errorf("%w (%s)", err, t.path)
	}
	if data[len(headsMagic)] != headsVersion {
		return t.compact()
	}
	file, err := os.OpenFile(t.path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return fmt.Errorf("core: heads journal: %w", err)
	}
	if intact < len(data) {
		if err = file.Truncate(int64(intact)); err == nil {
			err = t.sync(file)
		}
		if err != nil {
			file.Close()
			return fmt.Errorf("core: heads journal: cutting off a torn tail: %w", err)
		}
	}
	t.file, t.size = file, int64(intact)
	t.compactAt = compactionPoint(len(appendSnapshot(nil, t.heads)))
	return nil
}

// convert creates the journal as a snapshot of legacy, an older store's
// branches.json, or of no heads when there is none.
func (t *HeadTable) convert(legacy string) error {
	data, err := os.ReadFile(legacy)
	if errors.Is(err, os.ErrNotExist) {
		return t.compact()
	}
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	var raw map[string]map[string]string
	if err := json.Unmarshal(data, &raw); err != nil {
		return fmt.Errorf("core: %s: %w", legacy, err)
	}
	var ops []HeadOp
	for key, branches := range raw {
		for br, s := range branches {
			uid, err := hash.Parse(s)
			if err != nil {
				return fmt.Errorf("core: %s: %w", legacy, err)
			}
			ops = append(ops, HeadOp{Key: key, Branch: br, Any: true, Set: uid})
		}
	}
	if err := checkOps(ops); err != nil {
		return fmt.Errorf("core: %s: %w", legacy, err)
	}
	changes, _ := plan(ops, func(k, b string) hash.Hash { return t.heads[k][b] })
	_ = t.install(headRecord{op: opBatch, batch: changes}) // plan's records apply
	return t.compact()
}

// compact rewrites the journal as a snapshot of the live heads — written to
// a temporary file, fsynced, renamed over the journal, directory fsynced —
// and appends continue in the new file.  The caller holds t.mu, or owns t.
func (t *HeadTable) compact() error {
	snap := appendSnapshot(nil, t.heads)
	tmp := t.path + ".tmp"
	file, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("core: heads journal: %w", err)
	}
	_, err = file.Write(snap)
	if err == nil {
		err = t.sync(file)
	}
	if err == nil {
		err = os.Rename(tmp, t.path)
	}
	if err != nil {
		file.Close()
		os.Remove(tmp)
		return fmt.Errorf("core: heads journal compaction: %w", err)
	}
	if d, err := os.Open(filepath.Dir(t.path)); err == nil {
		_ = d.Sync() // best effort: some platforms cannot fsync a directory
		d.Close()
	}
	if t.file != nil {
		t.file.Close() // every record in it is in the snapshot
	}
	t.file, t.size, t.compactAt = file, int64(len(snap)), compactionPoint(len(snap))
	return nil
}
