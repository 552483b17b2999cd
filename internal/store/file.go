package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"forkbase/internal/chunk"
	"forkbase/internal/hash"
)

// FileStore is a durable content-addressed chunk store backed by segmented
// append-only log files plus an in-memory index rebuilt on open.
//
// On-disk record format (all integers little-endian):
//
//	[32B id][4B payload length][1B type][payload]
//
// Records are immutable; deduplication means a chunk id appears at most once
// in the index (compaction may briefly leave a duplicate copy on disk after
// a crash; recovery collapses it).  The store is safe for concurrent use.
//
// The log is write-through: Put writes its record, and PutBatch each run of
// records, with one write(2) before it returns, and a record's index entry is
// published only once its bytes are in the file.  An acknowledged write is
// therefore in the OS — it survives the death of the process, though not of
// the machine.  The store's one durability contract, which the heads journal
// keeps too: rotation, compaction and quarantine fsync their own rewrites,
// and Close fsyncs the active segment, so a cleanly closed store is on disk.
//
// Segment lifecycle:
//
//	active  — the tail segment.  Appends write through to its file; it is
//	          mapped read-only at open at max(SegmentSize, its size), and a
//	          record that would cross SegmentSize starts the next segment
//	          first, so no index entry points past the mapping.
//	sealed  — a segment the tail rotated past (or found on open): immutable,
//	          fsynced, and still read through the mapping it had as active.
//	retired — a sealed segment rewritten by compaction.  Its file is
//	          unlinked, but the mapping is parked so zero-copy slices
//	          handed out earlier stay valid: at least until the *next*
//	          sweep, and until Close while at most maxRetiredMaps retired
//	          mappings exist (older ones are released at sweep starts).
//
// Active and sealed segments are read alike: Get serves a zero-copy slice of
// the mapping without a syscall, a copy, a lock shared with the writer, or a
// hash (the id comes from the index; the chunk is marked *claimed* so the
// engine's verifying layer rehashes it unless the index entry carries its
// stamp).  The index is sharded indexShards ways, so concurrent readers of
// different chunks never contend on one mutex.
//
// Zero-copy contract: payloads returned by Get alias the segment mapping.
// They are valid until Close, except that data whose segment was compacted
// away is only guaranteed through the sweep *after* the one that retired it —
// callers holding chunk data across multiple GC cycles (or past Close) must
// copy.  On platforms without mmap every read falls back to positioned reads
// through persistent per-segment handles, which copy and verify.
type FileStore struct {
	dir        string
	maxSegment int64
	noMmap     bool

	// syncs counts the fsyncs the store completed, of the active segment
	// (tail) and of its directory (dir), so tests can pin each path's
	// durability cost.
	syncs struct{ tail, dir atomic.Int64 }

	shards [indexShards]indexShard

	// mu guards the write path: the active segment, stats, per-segment disk
	// accounting, and compaction.  Reads never take it.
	mu      sync.Mutex
	active  *os.File
	actSize int64  // bytes of the active segment in its file
	buf     []byte // records staged for the next write (see stage)
	err     error  // set when a failed append could not be cut off again
	stats   Stats  // Gets excluded; tracked in gets
	segUse  map[int]*segUsage
	closed  bool

	actSeg atomic.Int64 // current active segment number (lock-free read path)

	// placeEpoch counts the events after which previously-served bytes for an
	// id may live somewhere new (compaction rewrites, quarantine rescues).
	// Verified stamps (recordLoc.verifiedAt) carry it, so a remap can never
	// satisfy a stale "verified" read.  Sealing does not bump it: a seal
	// changes how bytes are served, not which bytes an id resolves to.
	placeEpoch atomic.Uint64

	// segMu guards the mapping table (active and sealed segments) and the
	// retired list.
	segMu   sync.RWMutex
	maps    map[int]*mseg
	retired []*mseg // parked mappings of compacted segments (munmap at Close)

	gets atomic.Int64

	// verifiedServes counts GetVerified calls answered with a fresh verified
	// stamp (see MarkVerified) — reads where the verifying layer above was
	// told it can skip the rehash.
	verifiedServes atomic.Int64

	// readersMu guards the read-handle table of the no-mmap fallback.
	// Positioned reads hold it shared for the duration of the ReadAt, so
	// Close (which takes it exclusively) can never close a handle out from
	// under a reader.
	readersMu     sync.RWMutex
	readers       map[int]*os.File
	readersClosed bool

	// hook, when set, runs at the named crash points of the segment
	// lifecycle (see CrashPoint* constants).  Fault-injection harnesses
	// panic or snapshot the directory there to make torn-write recovery
	// tests systematic instead of ad hoc.
	hook func(point string, seg int)

	// scrubMu guards the scrub/health state (see scrub.go).  Lock order:
	// f.mu → scrubMu → shard locks; Health takes scrubMu without f.mu.
	scrubMu     sync.Mutex
	lastScrub   *ScrubStats
	lastScrubAt time.Time
	// lost holds ids whose every on-disk copy was found damaged; entries are
	// dropped once the id is indexed again (repair).
	lost map[hash.Hash]struct{}
	// damaged holds the segments in which recovery found a record failing
	// its hash, or, sealed, could not parse to their end; they are left
	// byte-for-byte on disk, exempt from compaction, until a scrub
	// quarantines them.
	damaged map[int]struct{}
}

// Named crash points, in lifecycle order.  Each fires with the relevant
// segment number while the store's invariants are at their most fragile:
// recovery must succeed from a crash at any of them.
const (
	// CrashRotateBeforeSeal: the active segment is fsynced and closed, but
	// not yet sealed.
	CrashRotateBeforeSeal = "rotate.before-seal"
	// CrashRotateAfterSeal: the segment is sealed but the next active
	// segment does not exist yet.
	CrashRotateAfterSeal = "rotate.after-seal"
	// CrashCompactAfterRewrite: every victim's live records are rewritten
	// into the tail but the durability barrier (fsync) has not run.
	CrashCompactAfterRewrite = "compact.after-rewrite"
	// CrashCompactBeforeUnlink: the durability barrier has run and the
	// victim segment is about to be unlinked.
	CrashCompactBeforeUnlink = "compact.before-unlink"
)

// SetCrashHook installs fn at every named crash point (nil uninstalls).
// fn runs synchronously on the mutating goroutine with store locks held —
// it must only observe (snapshot the directory) or panic (simulated crash),
// never call back into the store.
func (f *FileStore) SetCrashHook(fn func(point string, seg int)) { f.hook = fn }

// at fires the named crash point.
func (f *FileStore) at(point string, seg int) {
	if f.hook != nil {
		f.hook(point, seg)
	}
}

// indexShards is the sharding factor of the in-memory index.  Shard choice
// uses the top byte of the (uniform) chunk id, so load is even.
const indexShards = 16

type indexShard struct {
	mu sync.RWMutex
	m  map[hash.Hash]recordLoc
}

// segUsage is the per-segment disk accounting compaction decides from.
type segUsage struct {
	total int64 // bytes of records written to the segment
	dead  int64 // bytes of records no longer referenced by the index
}

// mseg is a segment's memory mapping.  refs starts at 1 (the store's own
// reference); Get acquires it around each zero-copy read, and Close
// drops the store reference — the mapping is released when the count drains,
// so an in-flight read can never fault.  Compacted segments keep the store
// reference until Close (their file is already unlinked), which is what
// keeps previously returned zero-copy slices valid.
type mseg struct {
	seg  int
	data []byte
	refs atomic.Int64
}

func (m *mseg) acquire() bool {
	for {
		r := m.refs.Load()
		if r <= 0 {
			return false
		}
		if m.refs.CompareAndSwap(r, r+1) {
			return true
		}
	}
}

func (m *mseg) release() {
	if m.refs.Add(-1) == 0 {
		_ = munmapFile(m.data)
	}
}

// maxReadHandles bounds the persistent read-handle table so a store with
// many segments cannot exhaust the process fd limit; excess handles are
// evicted (closed) on insert.
const maxReadHandles = 64

// maxRetiredMaps bounds the parked mappings of compacted segments so a
// long-running store collected many times does not accumulate address
// space without bound: the most recent retirements stay mapped
// (keeping recently handed-out zero-copy slices valid), and older ones are
// released — by then their relocated chunks have long been re-served from
// their new homes and their cache entries purged.  Callers holding
// zero-copy data across many GC cycles must copy (the documented
// long-term-hold rule).
const maxRetiredMaps = 8

type recordLoc struct {
	segment int
	offset  int64
	length  int32 // payload length
	typ     chunk.Type
	// verifiedAt is the placement epoch at which the verifying layer last
	// rehashed this record's bytes, plus one; zero means never.  The stamp is
	// minted only by MarkVerified (called by a VerifyingStore after a
	// successful recheck) and dies with the entry: every relocation —
	// compaction, quarantine rescue, repair — builds a fresh recordLoc, and an
	// epoch bump retires surviving stamps wholesale.
	verifiedAt uint64
}

// diskBytes is the on-disk footprint of the record at loc.
func (l recordLoc) diskBytes() int64 { return int64(recordHeader) + int64(l.length) }

const recordHeader = hash.Size + 4 + 1

// recordAt is the one decoder of the record header: the claimed id, type
// and payload (aliasing data) of the record at off in data (one segment's
// bytes), or ok false when its header is cut short, names an invalid type,
// or claims a negative length or more bytes than remain.  Nothing is hashed
// or allocated here; what a bad record means is the caller's call.
func recordAt(data []byte, off int64) (id hash.Hash, typ chunk.Type, payload []byte, ok bool) {
	rest := int64(len(data)) - off - recordHeader // payload bytes left
	if rest < 0 {
		return id, 0, nil, false
	}
	h := data[off : off+recordHeader]
	plen := int32(binary.LittleEndian.Uint32(h[hash.Size:]))
	if typ = chunk.Type(h[hash.Size+4]); plen < 0 || !typ.Valid() || int64(plen) > rest {
		return id, 0, nil, false
	}
	end := off + recordHeader + int64(plen)
	return hash.Hash(h[:hash.Size]), typ, data[off+recordHeader : end : end], true
}

// scanRecords walks data from the start, calling fn with each record's
// offset, claimed id, type and payload, and returns the offset where parsing
// stopped: len(data) for a clean segment, otherwise the start of the first
// record recordAt refuses.
func scanRecords(data []byte, fn func(off int64, id hash.Hash, typ chunk.Type, payload []byte)) int64 {
	off := int64(0)
	for {
		id, typ, payload, ok := recordAt(data, off)
		if !ok {
			return off
		}
		fn(off, id, typ, payload)
		off += recordHeader + int64(len(payload))
	}
}

// nextIntact returns the first offset after from where an intact record
// starts (recordAt parses it and its bytes hash to its id), or -1.  Each
// offset costs a header parse, plus a hash of the payload a parsed one claims.
func nextIntact(data []byte, from int64) int64 {
	for off := from + 1; off+recordHeader <= int64(len(data)); off++ {
		if id, typ, payload, ok := recordAt(data, off); ok && chunk.New(typ, payload).ID() == id {
			return off
		}
	}
	return -1
}

// walkRecords is the one record walk of recovery and scrub, so the two
// classify the same bytes the same way.  It calls fn with each record
// scanRecords parses; at one it refuses, it resumes at the next intact
// record (nextIntact), and where none follows the rest of data is a torn
// tail.  It returns how many spans it could not parse (resynced ones and
// the tail), the bytes the resynced ones cover, and where the last parsed
// record ends: len(data) unless the tail is torn.
func walkRecords(data []byte, fn func(off int64, id hash.Hash, typ chunk.Type, payload []byte)) (torn int, skipped, end int64) {
	end = scanRecords(data, fn)
	for end < int64(len(data)) {
		torn++
		next := nextIntact(data, end)
		if next < 0 {
			break
		}
		skipped += next - end
		end = next + scanRecords(data[next:], func(off int64, id hash.Hash, typ chunk.Type, payload []byte) {
			fn(next+off, id, typ, payload)
		})
	}
	return torn, skipped, end
}

// DefaultSegmentSize is the size at which a new log segment is started.
const DefaultSegmentSize = 64 << 20

// FileStoreOptions tune OpenFileStoreWith.
type FileStoreOptions struct {
	// SegmentSize is the size at which the active segment rotates
	// (0 = DefaultSegmentSize).
	SegmentSize int64
}

var (
	_ Store     = (*FileStore)(nil)
	_ Collector = (*FileStore)(nil)
)

// VerifyCacheTrusted implements VerifyCacheTruster: the store owns its local
// disk, so a verification performed here stays valid until the placement
// epoch moves or scrub/heal says otherwise.
func (f *FileStore) VerifyCacheTrusted() bool { return true }

// PlacementEpoch implements PlacementEpocher.
func (f *FileStore) PlacementEpoch() uint64 { return f.placeEpoch.Load() }

// OpenFileStore opens (creating if needed) a file store rooted at dir.
// Existing segments are scanned to rebuild the index, so reopening a store
// recovers all previously written chunks.
func OpenFileStore(dir string) (*FileStore, error) {
	return OpenFileStoreWith(dir, FileStoreOptions{})
}

// OpenFileStoreWith opens a file store with explicit options.
func OpenFileStoreWith(dir string, opts FileStoreOptions) (*FileStore, error) {
	if opts.SegmentSize <= 0 {
		opts.SegmentSize = DefaultSegmentSize
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("filestore: %w", err)
	}
	fs := &FileStore{
		dir:        dir,
		maxSegment: opts.SegmentSize,
		noMmap:     !mmapSupported,
		segUse:     make(map[int]*segUsage),
		maps:       make(map[int]*mseg),
		readers:    make(map[int]*os.File),
		damaged:    make(map[int]struct{}),
	}
	for i := range fs.shards {
		fs.shards[i].m = make(map[hash.Hash]recordLoc)
	}
	if err := fs.recover(); err != nil {
		return nil, err
	}
	if err := fs.openActive(); err != nil {
		return nil, err
	}
	return fs, nil
}

func (f *FileStore) segmentPath(n int) string {
	return filepath.Join(f.dir, fmt.Sprintf("seg-%06d.log", n))
}

func (f *FileStore) shard(id hash.Hash) *indexShard {
	return &f.shards[id[0]&(indexShards-1)]
}

func (f *FileStore) lookup(id hash.Hash) (recordLoc, bool) {
	sh := f.shard(id)
	sh.mu.RLock()
	loc, ok := sh.m[id]
	sh.mu.RUnlock()
	return loc, ok
}

// listSegments returns the numbers of existing segment files, sorted.
// Compaction leaves gaps in the numbering, so the directory is globbed
// rather than probed sequentially.
func (f *FileStore) listSegments() ([]int, error) {
	names, err := filepath.Glob(filepath.Join(f.dir, "seg-*.log"))
	if err != nil {
		return nil, fmt.Errorf("filestore: %w", err)
	}
	segs := make([]int, 0, len(names))
	for _, name := range names {
		base := filepath.Base(name)
		numStr := strings.TrimSuffix(strings.TrimPrefix(base, "seg-"), ".log")
		n, err := strconv.Atoi(numStr)
		if err != nil {
			continue // foreign file matching the glob; ignore
		}
		segs = append(segs, n)
	}
	sort.Ints(segs)
	return segs, nil
}

// recover scans every existing segment in ascending order, rebuilding the
// index (first occurrence of an id wins, which collapses the duplicate a
// crash mid-compaction can leave), and maps each one but the highest-numbered
// as sealed.
//
// The scan doubles as the scrubber's classifier (ok / corrupt / torn): the
// resulting ScrubStats seed the store's health state, so a store that comes
// up with rotted records reports unhealthy immediately instead of waiting
// for the first background scrub.  A torn tail of the last segment is *not*
// unhealthy — it is the expected residue of a crash mid-append, and
// truncating it loses nothing acknowledged as durable.  A sealed segment was
// fsynced whole, so a record in it that will not parse is damage: see
// scanSegment.
func (f *FileStore) recover() error {
	segs, err := f.listSegments()
	if err != nil {
		return err
	}
	act := 0
	if len(segs) > 0 {
		act = segs[len(segs)-1]
	}
	var st ScrubStats
	var claimed []hash.Hash // claimed ids of corrupt records
	for _, seg := range segs {
		if err := f.scanSegment(seg, seg == act, &st, &claimed); err != nil {
			return err
		}
		if seg != act {
			if err := f.mapIn(seg, 0); err != nil {
				return err
			}
		}
	}
	f.actSeg.Store(int64(act))
	// A corrupt record's claimed id is lost only when no intact copy of it
	// was indexed (a duplicate left by compaction may have survived).
	for _, id := range claimed {
		if _, ok := f.lookup(id); !ok {
			st.Lost = append(st.Lost, id)
		}
	}
	if len(segs) > 0 {
		f.noteScrub(st)
	}
	return nil
}

// scanSegment indexes one segment at open and classifies its records into
// st.  A record whose bytes fail their hash is damage wherever it is: it
// stays unindexed and the segment is marked damaged.  A record that will
// not parse counts as torn.  In either kind of segment it is damage when an
// intact record starts after it (walkRecords resyncs there): the segment is
// marked damaged.  Otherwise the rest is a torn tail, cut off in the last
// segment (a crash mid-append) and damage in a sealed one.  A damaged
// segment stays byte-for-byte as it was, compaction skips it, and Health
// reports ErrCorrupt until a scrub quarantines it.
func (f *FileStore) scanSegment(seg int, last bool, st *ScrubStats, claimed *[]hash.Hash) error {
	data, release, err := f.segmentBytes(seg)
	if err != nil {
		return fmt.Errorf("filestore: %w", err)
	}
	size := int64(len(data))
	st.Segments++
	st.ScannedBytes += size
	use := f.useOf(seg)
	index := func(off int64, id hash.Hash, typ chunk.Type, payload []byte) {
		rec := int64(recordHeader + len(payload))
		sh := f.shard(id)
		_, dup := sh.m[id]
		switch {
		case chunk.New(typ, payload).ID() != id:
			// Bit rot inside a record: refuse to index it but keep going;
			// readers will get ErrNotFound rather than corrupt data.  The
			// segment is evidence, kept whole for a scrub to quarantine.
			use.dead += rec
			st.Corrupt++
			*claimed = append(*claimed, id)
			f.damaged[seg] = struct{}{}
		case dup:
			// Duplicate copy (crash between compaction's rewrite and its
			// unlink): the first occurrence won, this one is garbage.
			use.dead += rec
			st.Ok++
		default:
			sh.m[id] = recordLoc{segment: seg, offset: off, length: int32(len(payload)), typ: typ}
			f.stats.UniqueChunks++
			f.stats.PhysicalBytes += int64(1 + len(payload))
			st.Ok++
		}
	}
	torn, skipped, end := walkRecords(data, index)
	st.Torn += torn
	if skipped > 0 {
		use.dead += skipped
		f.damaged[seg] = struct{}{}
	}
	release()
	use.total = size
	if end == size {
		return nil
	}
	if !last {
		use.dead += size - end
		f.damaged[seg] = struct{}{}
		return nil
	}
	if err := os.Truncate(f.segmentPath(seg), end); err != nil {
		return fmt.Errorf("filestore: truncating torn tail: %w", err)
	}
	use.total = end
	return nil
}

// segmentBytes returns a segment's bytes and a func that releases them: the
// table's mapping when there is one (refcounted, so quarantine's rename or a
// retire cannot unmap it mid-use), cut at the segment's size because an
// active segment's mapping reaches past its file; otherwise a private
// read-only mapping of the file, and a copy read into memory only where
// nothing is mapped.  Callers hold f.mu (or are recovering), so no append
// races the read.
func (f *FileStore) segmentBytes(seg int) ([]byte, func(), error) {
	if f.noMmap {
		b, err := os.ReadFile(f.segmentPath(seg))
		return b, func() {}, err
	}
	f.segMu.RLock()
	m := f.maps[seg]
	f.segMu.RUnlock()
	if m != nil && m.acquire() {
		return m.data[:f.useOf(seg).total], m.release, nil
	}
	data, err := f.mapSegment(seg, 0)
	if err != nil {
		return nil, nil, err
	}
	return data, func() { _ = munmapFile(data) }, nil
}

// mapSegment maps a segment file read-only and shared, at size bytes or at
// its size on disk now if that is more.
func (f *FileStore) mapSegment(seg int, size int64) ([]byte, error) {
	file, err := os.Open(f.segmentPath(seg))
	if err != nil {
		return nil, err
	}
	defer file.Close()
	fi, err := file.Stat()
	if err != nil {
		return nil, err
	}
	return mmapFile(file, max(size, fi.Size()))
}

// useOf returns (creating if needed) the disk accounting of a segment.
// Callers hold f.mu, except during single-goroutine recovery.
func (f *FileStore) useOf(seg int) *segUsage {
	u, ok := f.segUse[seg]
	if !ok {
		u = &segUsage{}
		f.segUse[seg] = u
	}
	return u
}

// mapIn maps a segment read-only and shared, at size bytes or its file's
// size if that is more, into the table Get reads from.  A mapping it replaces
// is released: that is only ever an empty active segment's, which no index
// entry points into.  In no-mmap mode it maps nothing.
func (f *FileStore) mapIn(seg int, size int64) error {
	if f.noMmap {
		return nil
	}
	data, err := f.mapSegment(seg, size)
	if err != nil {
		return fmt.Errorf("filestore: mmap seg %d: %w", seg, err)
	}
	m := &mseg{seg: seg, data: data}
	m.refs.Store(1)
	f.segMu.Lock()
	old := f.maps[seg]
	f.maps[seg] = m
	f.segMu.Unlock()
	if old != nil {
		old.release()
	}
	return nil
}

// openActive opens the active segment for appending and maps it at
// max(SegmentSize, its size): it grows inside that mapping until it seals.
func (f *FileStore) openActive() error {
	seg := int(f.actSeg.Load())
	file, err := os.OpenFile(f.segmentPath(seg), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("filestore: %w", err)
	}
	fi, err := file.Stat()
	if err != nil {
		file.Close()
		return fmt.Errorf("filestore: %w", err)
	}
	f.active, f.actSize = file, fi.Size()
	f.useOf(seg).total = fi.Size()
	return f.mapIn(seg, f.maxSegment)
}

// writable reports why the log takes no append, if it takes none.  Callers
// hold f.mu.
func (f *FileStore) writable() error {
	if f.closed {
		return fmt.Errorf("filestore: closed")
	}
	return f.err
}

// Put implements Store: a PutBatch of one.
func (f *FileStore) Put(c *chunk.Chunk) (bool, error) {
	fresh, err := f.PutBatch([]*chunk.Chunk{c})
	return fresh[0], err
}

// PutBatch implements Store with group commit: one write-lock acquisition,
// one dedup index pass and one write for the whole batch (one per segment
// when it spans a rotation), so every record of the batch is in the OS when
// PutBatch returns.  Records are laid out exactly as per-chunk Puts would lay
// them out, so recovery after a crash mid-batch truncates at the first torn
// record and keeps every fully-written one.  Duplicate ids inside one batch
// dedup against each other.
func (f *FileStore) PutBatch(cs []*chunk.Chunk) ([]bool, error) {
	fresh := make([]bool, len(cs))
	if err := checkSizes(cs...); err != nil {
		return fresh, err
	}
	// The deferred unlock also covers simulated crashes (panics from
	// injected crash hooks).
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.writable(); err != nil {
		return fresh, err
	}
	return fresh, f.appendLocked(cs, fresh)
}

// appendLocked appends a record for every chunk of cs the index does not
// hold yet, a duplicate inside cs included, and marks it in fresh.  Callers
// hold f.mu.
func (f *FileStore) appendLocked(cs []*chunk.Chunk, fresh []bool) error {
	run := make([]segEntry, 0, len(cs))
	var err error
	for i, c := range cs {
		f.stats.LogicalBytes += int64(c.Size())
		id := c.ID()
		if _, dup := f.lookup(id); dup || slices.ContainsFunc(run, func(e segEntry) bool { return e.id == id }) {
			f.stats.DedupHits++
			continue
		}
		if run, err = f.stage(run, true, id, c.Type(), c.Data()); err != nil {
			return err
		}
		fresh[i] = true
	}
	return f.writeStaged(run, true)
}

// maxStaged bounds the staging buffer: staged records are written out once
// they fill it, so relocating a whole segment holds no more than this.
const maxStaged = 1 << 20

// stage encodes the record of (id, typ, payload) at the end of the staging
// buffer and adds its index entry to run, the entries of the staged records;
// writeStaged writes them with one write and only then publishes the entries
// (as new chunks when newChunks is set, as moved ones otherwise).  What is
// staged is written out first when the buffer is full, and when this record
// would carry a non-empty active segment past SegmentSize, which then
// rotates — so a segment never outgrows its mapping, and a record larger
// than a segment gets an empty one to itself, remapped at its size.  Callers
// hold f.mu.
func (f *FileStore) stage(run []segEntry, newChunks bool, id hash.Hash, typ chunk.Type, payload []byte) ([]segEntry, error) {
	n := int64(recordHeader + len(payload))
	at := f.actSize + int64(len(f.buf))
	if cross := at > 0 && at+n > f.maxSegment; cross || len(f.buf) >= maxStaged {
		if err := f.writeStaged(run, newChunks); err != nil {
			return run, err
		}
		run = run[:0]
		if cross {
			if err := f.rotate(); err != nil {
				return run, err
			}
		}
	}
	if n > f.maxSegment { // the active segment is empty here
		if err := f.mapIn(int(f.actSeg.Load()), n); err != nil {
			return run, err
		}
	}
	off := f.actSize + int64(len(f.buf))
	f.buf = append(f.buf, id[:]...)
	f.buf = binary.LittleEndian.AppendUint32(f.buf, uint32(len(payload)))
	f.buf = append(append(f.buf, byte(typ)), payload...)
	loc := recordLoc{segment: int(f.actSeg.Load()), offset: off, length: int32(len(payload)), typ: typ}
	return append(run, segEntry{id, loc}), nil
}

// writeStaged writes the staged records to the active segment with one
// write, then publishes run, their index entries: no entry points at bytes
// that are not in the file.  A failed or short write is cut back off the
// file, because a partial record left in place would be read as a torn tail
// in front of the next one; if even that fails, the log takes no more
// appends.  Callers hold f.mu.
func (f *FileStore) writeStaged(run []segEntry, newChunks bool) error {
	if len(f.buf) == 0 {
		return nil
	}
	_, err := f.active.Write(f.buf)
	written := int64(len(f.buf))
	f.buf = f.buf[:0]
	if cap(f.buf) > 2*maxStaged {
		f.buf = nil // staged a record larger than the bound: keep no copy of it
	}
	if err != nil {
		if terr := f.active.Truncate(f.actSize); terr != nil {
			f.err = fmt.Errorf("filestore: segment log unusable after a failed append: %w", terr)
		}
		return fmt.Errorf("filestore: %w", err)
	}
	f.actSize += written
	f.useOf(int(f.actSeg.Load())).total = f.actSize
	for _, e := range run {
		sh := f.shard(e.id)
		sh.mu.Lock()
		sh.m[e.id] = e.loc
		sh.mu.Unlock()
		if newChunks {
			f.stats.UniqueChunks++
			f.stats.PhysicalBytes += int64(1 + e.loc.length)
		}
	}
	return nil
}

// rotate seals the active segment and starts the next one.  The sealed
// segment is fsynced first — sealed segments are always durable, which is
// what lets compaction unlink a victim as soon as its live records land in
// (or beyond) the new active segment.
func (f *FileStore) rotate() error {
	if err := f.syncTail(); err != nil {
		return err
	}
	if err := f.active.Close(); err != nil {
		return fmt.Errorf("filestore: %w", err)
	}
	seg := int(f.actSeg.Load())
	f.at(CrashRotateBeforeSeal, seg)
	// Sealing maps nothing: the segment keeps the mapping it was read
	// through while active.
	f.at(CrashRotateAfterSeal, seg)
	f.actSeg.Store(int64(seg + 1))
	if err := f.openActive(); err != nil {
		return err
	}
	f.syncDir() // the new segment's name, so its synced records are found
	return nil
}

// syncTail fsyncs the active segment.  Callers hold f.mu.
func (f *FileStore) syncTail() error {
	if err := f.active.Sync(); err != nil {
		return fmt.Errorf("filestore: %w", err)
	}
	f.syncs.tail.Add(1)
	return nil
}

// Get implements Store.
//
// Every segment, active or sealed, is served from its memory mapping: no
// syscall, no copy, no lock shared with the writer or with other chunks —
// just a sharded index lookup and a refcount bump.  The returned chunk's
// payload aliases the mapping (valid until Close) and its id is *claimed*
// from the index rather than recomputed; the engine always reads through a
// VerifyingStore, which rehashes claimed chunks, so end-to-end tamper
// evidence is unchanged.  Raw callers that need integrity without the
// verifying layer can call Recheck themselves.
func (f *FileStore) Get(id hash.Hash) (*chunk.Chunk, error) {
	c, _, err := f.get(id, false)
	return c, err
}

// GetVerified is Get plus the verified-index verdict: verified reports that
// the verifying layer previously rehashed exactly these bytes (MarkVerified)
// and that no placement event has intervened, so the caller may skip its own
// recheck.  The chunk itself is still claimed — the verdict is a witness
// riding alongside, not a change to the chunk's trust state — so any reader
// that ignores the verdict gets exactly the plain Get contract.
func (f *FileStore) GetVerified(id hash.Hash) (c *chunk.Chunk, verified bool, err error) {
	return f.get(id, true)
}

func (f *FileStore) get(id hash.Hash, wantVerdict bool) (*chunk.Chunk, bool, error) {
	f.gets.Add(1)
	// Compaction can move a record between the index lookup and the segment
	// access; re-looking up and retrying converges because moves are rare
	// and forward-only.
	for attempt := 0; attempt < 8; attempt++ {
		loc, ok := f.lookup(id)
		if !ok {
			return nil, false, ErrNotFound
		}
		if !f.noMmap {
			f.segMu.RLock()
			m := f.maps[loc.segment]
			f.segMu.RUnlock()
			if m == nil || !m.acquire() {
				continue // retired or closing: retry
			}
			start := loc.offset + recordHeader
			end := start + int64(loc.length)
			if end > int64(len(m.data)) {
				m.release()
				return nil, false, fmt.Errorf("filestore: index points past seg %d mapping", loc.segment)
			}
			c := chunk.NewClaimed(loc.typ, m.data[start:end:end], id)
			m.release()
			// The stamp is fresh only while the placement epoch it was minted
			// at is still current; the epoch is read *after* the bytes, so a
			// concurrent compaction or quarantine can only turn a fresh
			// verdict stale, never the reverse.
			if wantVerdict && loc.verifiedAt == f.placeEpoch.Load()+1 {
				f.verifiedServes.Add(1)
				return c, true, nil
			}
			return c, false, nil
		}
		c, err := f.getPread(id, loc)
		if err == nil {
			return c, false, nil
		}
		// Compaction may have relocated the record and unlinked its segment
		// mid-read; if the index moved it, retry at the new home.
		cur, ok := f.lookup(id)
		if !ok {
			return nil, false, ErrNotFound // swept concurrently
		}
		if cur != loc {
			continue
		}
		return nil, false, err
	}
	return nil, false, fmt.Errorf("filestore: get %s: segment moved too many times", id.Short())
}

// MarkVerified records that the verifying layer rehashed id's bytes while the
// placement epoch was epoch.  The stamp is refused if placement has already
// moved on (the verified bytes may no longer be the served bytes), and is
// checked under the index shard lock so it cannot interleave with a
// compaction repointing the same entry.
func (f *FileStore) MarkVerified(id hash.Hash, epoch uint64) {
	sh := f.shard(id)
	sh.mu.Lock()
	if f.placeEpoch.Load() == epoch {
		if loc, ok := sh.m[id]; ok {
			loc.verifiedAt = epoch + 1
			sh.m[id] = loc
		}
	}
	sh.mu.Unlock()
}

// UnmarkVerified drops id's verified stamp (no-op if absent); the verifying
// layer calls it when a recheck of id fails.  Stamps of bytes that move or
// die need no call: Sweep, quarantine and Repair retire them here.
func (f *FileStore) UnmarkVerified(id hash.Hash) {
	sh := f.shard(id)
	sh.mu.Lock()
	if loc, ok := sh.m[id]; ok && loc.verifiedAt != 0 {
		loc.verifiedAt = 0
		sh.m[id] = loc
	}
	sh.mu.Unlock()
}

// UnmarkAllVerified retires every verified stamp at once.  Implemented as a
// placement-epoch bump: stamps are keyed to the epoch they were minted at,
// so advancing it retires all of them in O(1) without walking the shards.
func (f *FileStore) UnmarkAllVerified() { f.placeEpoch.Add(1) }

// VerifiedServes reports how many Gets were answered with a fresh verified
// stamp since open.
func (f *FileStore) VerifiedServes() int64 { return f.verifiedServes.Load() }

// getPread is the copying read path of no-mmap mode: positioned read through
// a persistent handle, then hash verification.
func (f *FileStore) getPread(id hash.Hash, loc recordLoc) (*chunk.Chunk, error) {
	payload := make([]byte, loc.length)
	if err := f.readRecord(loc.segment, loc.offset+recordHeader, payload); err != nil {
		return nil, err
	}
	c := chunk.New(loc.typ, payload)
	if err := c.Verify(id); err != nil {
		return nil, err
	}
	return c, nil
}

// readRecord fills payload from a segment via a persistent read-only handle,
// opening it on first use.  The read executes under the shared reader lock,
// so handles are never closed (by Close or eviction) mid-read; positioned
// reads make one handle safe for any number of concurrent Gets.
func (f *FileStore) readRecord(seg int, off int64, payload []byte) error {
	for {
		f.readersMu.RLock()
		if f.readersClosed {
			f.readersMu.RUnlock()
			return fmt.Errorf("filestore: closed")
		}
		file, ok := f.readers[seg]
		if ok {
			_, err := file.ReadAt(payload, off)
			f.readersMu.RUnlock()
			if err != nil {
				return fmt.Errorf("filestore: %w", err)
			}
			return nil
		}
		f.readersMu.RUnlock()

		// Miss: open and insert under the exclusive lock, then retry the
		// read path (another goroutine may have won the race; that's fine).
		f.readersMu.Lock()
		if f.readersClosed {
			f.readersMu.Unlock()
			return fmt.Errorf("filestore: closed")
		}
		if _, ok := f.readers[seg]; !ok {
			file, err := os.Open(f.segmentPath(seg))
			if err != nil {
				f.readersMu.Unlock()
				return fmt.Errorf("filestore: %w", err)
			}
			// Bound the table: evict an arbitrary other handle.  No reader
			// is mid-ReadAt here (we hold the lock exclusively).
			for evict, h := range f.readers {
				if len(f.readers) < maxReadHandles {
					break
				}
				h.Close()
				delete(f.readers, evict)
			}
			f.readers[seg] = file
		}
		f.readersMu.Unlock()
	}
}

// dropReader closes and forgets the persistent handle of a segment (used
// when compaction retires it).
func (f *FileStore) dropReader(seg int) {
	f.readersMu.Lock()
	if h, ok := f.readers[seg]; ok {
		h.Close()
		delete(f.readers, seg)
	}
	f.readersMu.Unlock()
}

// Has implements Store.
func (f *FileStore) Has(id hash.Hash) (bool, error) {
	_, ok := f.lookup(id)
	return ok, nil
}

// HasBatch implements Store: one sharded-index probe per id, no I/O.
func (f *FileStore) HasBatch(ids []hash.Hash) ([]bool, error) {
	out := make([]bool, len(ids))
	for i, id := range ids {
		_, out[i] = f.lookup(id)
	}
	return out, nil
}

// GetBatch implements Store.  Each id resolves exactly as Get does: the
// index is sharded per id and sealed reads are lock-free, so there is no
// batch-wide lock to amortize.
func (f *FileStore) GetBatch(ids []hash.Hash) ([]*chunk.Chunk, error) { return getEach(f.Get, ids) }

// IDs returns the ids of all indexed chunks (order unspecified), for tests.
func (f *FileStore) IDs() []hash.Hash {
	var out []hash.Hash
	for i := range f.shards {
		sh := &f.shards[i]
		sh.mu.RLock()
		for id := range sh.m {
			out = append(out, id)
		}
		sh.mu.RUnlock()
	}
	return out
}

// Len returns the number of distinct indexed chunks.
func (f *FileStore) Len() int {
	n := 0
	for i := range f.shards {
		sh := &f.shards[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}

// Stats implements Store.
func (f *FileStore) Stats() Stats {
	f.mu.Lock()
	s := f.stats
	f.mu.Unlock()
	s.Gets = f.gets.Load()
	return s
}

// DiskBytes returns the summed size of all live segment files — the store's
// physical footprint on disk (compacted segments stop counting the moment
// they are unlinked).
func (f *FileStore) DiskBytes() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	var n int64
	for _, u := range f.segUse {
		n += u.total
	}
	return n
}

// Sweep implements Collector: it removes every chunk for which keep returns
// false from the index, then compacts every sealed segment holding garbage
// by rewriting its live records into the active tail and unlinking it.  A
// segment recovery found damaged is never a victim: it waits, whole, for
// Scrub to quarantine it.  Nothing keep rejects is exempt, so the caller
// computes keep with writers fenced or quiesced.
//
// Crash safety: victims are unlinked only after every rewritten record is
// flushed and fsynced (sealed segments are fsynced at rotation; the active
// tail is fsynced explicitly), so a crash at any point loses nothing — at
// worst a reopened store sees a duplicate copy (collapsed by recovery) or
// resurrects not-yet-compacted garbage (removed again by the next sweep).
//
// keep is called with the index locks held and must not call back into the
// store.  Writers are blocked for the duration; readers of sealed segments
// proceed throughout, and zero-copy slices already handed out stay valid —
// retired mappings are parked until Close (the oldest are released once
// more than maxRetiredMaps accumulate).
func (f *FileStore) Sweep(keep func(hash.Hash) bool) (SweepStats, error) {
	var res SweepStats
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.writable(); err != nil {
		return res, err
	}
	// Age out mappings parked by *previous* sweeps beyond the retention
	// window.  Doing this at the start of a pass (rather than when a
	// mapping is parked) guarantees a retired mapping survives at least
	// until the next sweep, so slices handed out just before its
	// compaction stay valid well past the pass that moved the data.
	f.segMu.Lock()
	for len(f.retired) > maxRetiredMaps {
		f.retired[0].release()
		f.retired = f.retired[1:]
	}
	f.segMu.Unlock()
	for i := range f.shards {
		sh := &f.shards[i]
		sh.mu.Lock()
		for id, loc := range sh.m {
			if keep(id) {
				continue
			}
			delete(sh.m, id)
			res.Swept++
			res.SweptBytes += int64(1 + loc.length)
			res.SweptIDs = append(res.SweptIDs, id)
			f.stats.UniqueChunks--
			f.stats.PhysicalBytes -= int64(1 + loc.length)
			f.useOf(loc.segment).dead += loc.diskBytes()
		}
		sh.mu.Unlock()
	}
	err := f.compactLocked(&res)
	return res, err
}

// compactLocked rewrites the live records of every sealed segment holding
// garbage into the active tail and unlinks the victims.  Callers hold f.mu.
func (f *FileStore) compactLocked(res *SweepStats) error {
	// Garbage in the active tail can only be reclaimed once the tail seals;
	// rotate it out of the way so the sweep really returns the space.
	act := int(f.actSeg.Load())
	if u := f.segUse[act]; u != nil && u.dead > 0 && f.actSize > 0 {
		if err := f.rotate(); err != nil {
			return err
		}
	}
	var victims []int
	f.scrubMu.Lock()
	for seg, u := range f.segUse {
		if _, bad := f.damaged[seg]; bad || seg == int(f.actSeg.Load()) || u.dead == 0 {
			continue // a damaged segment is evidence: only quarantine moves it
		}
		victims = append(victims, seg)
	}
	f.scrubMu.Unlock()
	if len(victims) == 0 {
		return nil
	}
	sort.Ints(victims)
	// Records are about to move; retire every verified stamp minted at the
	// old epoch before any index repointing becomes visible to readers.
	f.placeEpoch.Add(1)
	// Rewrite the live records into the tail in victim order, then offset
	// order, and repoint the index.  f.mu fences every writer, so the
	// gathered entries are exactly the live set until they have moved.
	live := f.gather(victims...)
	for len(live) > 0 {
		seg, n := live[0].loc.segment, 1
		for n < len(live) && live[n].loc.segment == seg {
			n++
		}
		data, release, err := f.segmentBytes(seg)
		if err != nil {
			return fmt.Errorf("filestore: %w", err)
		}
		err = f.relocateLocked(data, live[:n])
		release()
		if err != nil {
			return err
		}
		for _, e := range live[:n] {
			res.MovedIDs = append(res.MovedIDs, e.id)
			res.MovedBytes += e.loc.diskBytes()
		}
		live = live[n:]
	}
	f.at(CrashCompactAfterRewrite, victims[0])
	// Durability barrier: every rewritten record is on disk before any
	// victim disappears.  Records that landed in segments sealed during the
	// rewrite were fsynced by rotate; the tail needs an explicit sync.
	if err := f.syncTail(); err != nil {
		return err
	}
	for _, seg := range victims {
		f.at(CrashCompactBeforeUnlink, seg)
		if err := os.Remove(f.segmentPath(seg)); err != nil {
			return fmt.Errorf("filestore: unlinking compacted seg %d: %w", seg, err)
		}
		res.ReclaimedBytes += f.segUse[seg].total
		delete(f.segUse, seg)
		f.dropReader(seg)
		f.segMu.Lock()
		if m := f.maps[seg]; m != nil {
			delete(f.maps, seg)
			// Park the mapping: zero-copy slices alias it until Close or
			// until it ages out of the retention window at a *later* sweep
			// (never this one — see the trim in Sweep).
			f.retired = append(f.retired, m)
		}
		f.segMu.Unlock()
		res.CompactedSegments++
	}
	res.ReclaimedBytes -= res.MovedBytes
	f.syncDir()
	return nil
}

// segEntry is one index entry: a chunk id and where its record lives.
type segEntry struct {
	id  hash.Hash
	loc recordLoc
}

// gather returns the index entries whose records live in segs, sorted by
// segment, then offset: on-disk order.  One pass over the index shards.
// Callers hold f.mu, so no writer can add or move an entry under them.
func (f *FileStore) gather(segs ...int) []segEntry {
	want := make(map[int]bool, len(segs))
	for _, seg := range segs {
		want[seg] = true
	}
	var out []segEntry
	for i := range f.shards {
		sh := &f.shards[i]
		sh.mu.RLock()
		for id, loc := range sh.m {
			if want[loc.segment] {
				out = append(out, segEntry{id, loc})
			}
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].loc, out[j].loc
		return a.segment < b.segment || a.segment == b.segment && a.offset < b.offset
	})
	return out
}

// relocateLocked copies each entry's record out of data (the bytes of the
// segment the entries live in) onto the tail, in entry order, and repoints
// the index at the copy.  The fresh recordLoc carries no verified stamp.
// Callers hold f.mu.
func (f *FileStore) relocateLocked(data []byte, entries []segEntry) error {
	run := make([]segEntry, 0, len(entries))
	var err error
	for _, e := range entries {
		end := e.loc.offset + e.loc.diskBytes()
		if end > int64(len(data)) {
			f.buf = f.buf[:0] // abandon what is staged, with its entries
			return fmt.Errorf("filestore: index points past the end of seg %d", e.loc.segment)
		}
		if run, err = f.stage(run, false, e.id, e.loc.typ, data[e.loc.offset+recordHeader:end]); err != nil {
			return err
		}
	}
	return f.writeStaged(run, false)
}

// syncDir fsyncs the store directory so unlinks and creates survive a crash
// (best-effort: some platforms cannot fsync directories).
func (f *FileStore) syncDir() {
	if d, err := os.Open(f.dir); err == nil {
		if d.Sync() == nil {
			f.syncs.dir.Add(1)
		}
		d.Close()
	}
}

// Flush does nothing and returns nil: every acknowledged append is already
// in the OS.  The frozen benchmark harness (benchmark/harness.go) still
// calls it and is the only reason it remains.
func (f *FileStore) Flush() error { return nil }

// Close fsyncs the active segment, so every acknowledged write is on disk,
// and closes the store.  Further operations fail, and zero-copy payloads
// returned by Get become invalid: each segment mapping is released once its
// in-flight readers drain.
func (f *FileStore) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil
	}
	f.closed = true
	err := f.syncTail()
	f.readersMu.Lock()
	f.readersClosed = true
	for _, r := range f.readers {
		r.Close()
	}
	f.readers = nil
	f.readersMu.Unlock()
	f.segMu.Lock()
	for _, m := range f.maps {
		m.release() // drop the store reference; munmap when readers drain
	}
	f.maps = map[int]*mseg{}
	for _, m := range f.retired {
		m.release()
	}
	f.retired = nil
	f.segMu.Unlock()
	return errors.Join(err, f.active.Close())
}
