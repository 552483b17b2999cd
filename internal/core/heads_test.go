package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"forkbase/internal/hash"
)

// fill is a uid whose bytes are all b, so it reads plainly in a hex dump.
func fill(b byte) hash.Hash {
	var h hash.Hash
	for i := range h {
		h[i] = b
	}
	return h
}

func openHeads(t testing.TB, dir string) *HeadTable {
	t.Helper()
	f, err := OpenFileBranchTable(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

func mustCAS(t testing.TB, f BranchTable, key, branch string, old, new hash.Hash) {
	t.Helper()
	if ok, err := f.CompareAndSet(key, branch, old, new); !ok || err != nil {
		t.Fatalf("CAS %s@%s: ok=%v err=%v", key, branch, ok, err)
	}
}

func journalOf(t testing.TB, dir string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, headsFile))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// allHeadsOf lists every head of a table as key → branch → uid.
func allHeadsOf(t testing.TB, bt BranchTable) map[string]map[string]hash.Hash {
	t.Helper()
	keys, err := bt.Keys()
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]map[string]hash.Hash, len(keys))
	for _, k := range keys {
		if out[k], err = bt.Branches(k); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// journalOp is one step of a golden-vector script.
type journalOp func(*HeadTable) error

func opSetHead(key, branch string, old, new hash.Hash) journalOp {
	return func(f *HeadTable) error {
		if ok, err := f.CompareAndSet(key, branch, old, new); !ok || err != nil {
			return fmt.Errorf("CAS %s@%s: ok=%v err=%v", key, branch, ok, err)
		}
		return nil
	}
}

func opApply(ops ...HeadOp) journalOp {
	return func(f *HeadTable) error {
		if ok, err := f.Apply(ops); !ok || err != nil {
			return fmt.Errorf("Apply %v: ok=%v err=%v", ops, ok, err)
		}
		return nil
	}
}

func opDeleteHead(key, branch string) journalOp {
	return opApply(HeadOp{Key: key, Branch: branch, Any: true})
}

func opRenameHead(key, from, to string) journalOp {
	return func(f *HeadTable) error {
		uid, _, _ := f.Head(key, from)
		return opApply(renameOps(key, from, to, uid)...)(f)
	}
}

func opCompact(f *HeadTable) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.compact()
}

// goldenJournals pin the on-disk format: a changed byte in any of them is a
// format change, which needs a headsVersion bump and a reader for the old
// version.  Each row's hex is split at record boundaries.
var goldenJournals = []struct {
	name    string
	ops     []journalOp
	wantHex string
}{
	{
		name:    "header",
		wantHex: "4642484541445302",
	},
	{
		name: "set",
		ops:  []journalOp{opSetHead("k", "master", hash.Hash{}, fill(0x11))},
		wantHex: "4642484541445302" +
			"2c000000" + "f74f5edf" + "01" + "0100" + "6b" + "0600" + "6d6173746572" + strings.Repeat("11", 32),
	},
	{
		name: "delete",
		ops: []journalOp{
			opSetHead("k", "master", hash.Hash{}, fill(0x11)),
			opDeleteHead("k", "master"),
		},
		wantHex: "4642484541445302" +
			"2c000000" + "f74f5edf" + "01" + "0100" + "6b" + "0600" + "6d6173746572" + strings.Repeat("11", 32) +
			"0c000000" + "72e2ca27" + "02" + "0100" + "6b" + "0600" + "6d6173746572",
	},
	{
		// A rename is one Apply, a delete and a create: one batch record.
		name: "rename",
		ops: []journalOp{
			opSetHead("k", "master", hash.Hash{}, fill(0x11)),
			opRenameHead("k", "master", "main"),
		},
		wantHex: "4642484541445302" +
			"2c000000" + "f74f5edf" + "01" + "0100" + "6b" + "0600" + "6d6173746572" + strings.Repeat("11", 32) +
			"37000000" + "a098ed54" + "04" +
			"02" + "0100" + "6b" + "0600" + "6d6173746572" +
			"01" + "0100" + "6b" + "0400" + "6d61696e" + strings.Repeat("11", 32),
	},
	{
		// An Apply over several keys: one batch record holding each head's
		// final value, in the order the ops first name them.
		name: "batch",
		ops: []journalOp{opApply(
			HeadOp{Key: "a", Branch: "master", Set: fill(0x11)},
			HeadOp{Key: "k", Branch: "master", Set: fill(0x22)},
			HeadOp{Key: "k", Branch: "master", Expect: fill(0x22), Set: fill(0x33)},
		)},
		wantHex: "4642484541445302" +
			"59000000" + "91ee78ff" + "04" +
			"01" + "0100" + "61" + "0600" + "6d6173746572" + strings.Repeat("11", 32) +
			"01" + "0100" + "6b" + "0600" + "6d6173746572" + strings.Repeat("33", 32),
	},
	{
		// An Apply that leaves one head changed writes a plain set record.
		name: "batch moving one head",
		ops: []journalOp{opApply(
			HeadOp{Key: "k", Branch: "master", Set: fill(0x11)},
			HeadOp{Key: "k", Branch: "dev", Set: fill(0x22)},
			HeadOp{Key: "k", Branch: "dev", Expect: fill(0x22)},
		)},
		wantHex: "4642484541445302" +
			"2c000000" + "f74f5edf" + "01" + "0100" + "6b" + "0600" + "6d6173746572" + strings.Repeat("11", 32),
	},
	{
		name: "compacted snapshot",
		ops: []journalOp{
			opSetHead("k", "master", hash.Hash{}, fill(0x11)),
			opSetHead("k", "dev", hash.Hash{}, fill(0x22)),
			opSetHead("a", "master", hash.Hash{}, fill(0x33)),
			opDeleteHead("k", "dev"),
			opRenameHead("a", "master", "main"),
			opSetHead("k", "master", fill(0x11), fill(0x44)),
			opCompact,
		},
		wantHex: "4642484541445302" +
			"2a000000" + "78521aa8" + "01" + "0100" + "61" + "0400" + "6d61696e" + strings.Repeat("33", 32) +
			"2c000000" + "503b4987" + "01" + "0100" + "6b" + "0600" + "6d6173746572" + strings.Repeat("44", 32),
	},
}

// goldenV1Journals are journals a version 1 writer left — its set, delete
// and rename records — and the heads each holds.
var goldenV1Journals = []struct {
	name string
	hex  string
	want map[string]map[string]hash.Hash
}{
	{"header", "4642484541445301", map[string]map[string]hash.Hash{}},
	{"set",
		"4642484541445301" +
			"2c000000" + "f74f5edf" + "01" + "0100" + "6b" + "0600" + "6d6173746572" + strings.Repeat("11", 32),
		map[string]map[string]hash.Hash{"k": {"master": fill(0x11)}}},
	{"delete",
		"4642484541445301" +
			"2c000000" + "f74f5edf" + "01" + "0100" + "6b" + "0600" + "6d6173746572" + strings.Repeat("11", 32) +
			"0c000000" + "72e2ca27" + "02" + "0100" + "6b" + "0600" + "6d6173746572",
		map[string]map[string]hash.Hash{}},
	{"rename",
		"4642484541445301" +
			"2c000000" + "f74f5edf" + "01" + "0100" + "6b" + "0600" + "6d6173746572" + strings.Repeat("11", 32) +
			"12000000" + "8c007a01" + "03" + "0100" + "6b" + "0600" + "6d6173746572" + "0400" + "6d61696e",
		map[string]map[string]hash.Hash{"k": {"main": fill(0x11)}}},
	{"compacted snapshot",
		"4642484541445301" +
			"2a000000" + "78521aa8" + "01" + "0100" + "61" + "0400" + "6d61696e" + strings.Repeat("33", 32) +
			"2c000000" + "503b4987" + "01" + "0100" + "6b" + "0600" + "6d6173746572" + strings.Repeat("44", 32),
		map[string]map[string]hash.Hash{"a": {"main": fill(0x33)}, "k": {"master": fill(0x44)}}},
}

func TestHeadsJournalGoldenVectors(t *testing.T) {
	for _, tc := range goldenJournals {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			f := openHeads(t, dir)
			for i, op := range tc.ops {
				if err := op(f); err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
			}
			if got := hex.EncodeToString(journalOf(t, dir)); got != tc.wantHex {
				t.Fatalf("journal\n got %s\nwant %s", got, tc.wantHex)
			}
			// The journal replays to the table that wrote it.
			want := allHeadsOf(t, f)
			f.Close()
			if got := allHeadsOf(t, openHeads(t, dir)); !reflect.DeepEqual(got, want) {
				t.Fatalf("reopened %v, want %v", got, want)
			}
		})
	}
}

// TestHeadsJournalReadsVersion1: a version 1 journal opens to the heads it
// holds and is rewritten, before anything is appended, as a version 2
// snapshot of them; the next append follows that snapshot.
func TestHeadsJournalReadsVersion1(t *testing.T) {
	for _, tc := range goldenV1Journals {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			b, err := hex.DecodeString(tc.hex)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, headsFile), b, 0o644); err != nil {
				t.Fatal(err)
			}
			f := openHeads(t, dir)
			if got := allHeadsOf(t, f); !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("opened %v, want %v", got, tc.want)
			}
			snap := appendSnapshot(nil, f.heads)
			if got := journalOf(t, dir); !bytes.Equal(got, snap) || got[len(headsMagic)] != headsVersion {
				t.Fatalf("journal after open\n got %x\nwant %x", got, snap)
			}
			mustCAS(t, f, "z", "master", hash.Hash{}, fill(0x55))
			rec := appendRecord(nil, headRecord{op: opSet, key: "z", branch: "master", uid: fill(0x55)})
			if got := journalOf(t, dir); !bytes.Equal(got, cat(snap, rec)) {
				t.Fatalf("append after the rewrite left %x", got)
			}
		})
	}
}

// frameOf frames payload as a record with a correct length and checksum.
func frameOf(payload []byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(payload, castagnoli))
	return append(b, payload...)
}

func cat(parts ...[]byte) []byte {
	var out []byte
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// hostileJournals are journals no writer produces.  Each begins with the
// header and a record setting a@master (unless the header itself is the
// damage); torn ones must open with exactly that head, the rest must fail
// with ErrHeadsCorrupt and leave the file alone.
func hostileJournals() []struct {
	name    string
	journal []byte
	corrupt bool
} {
	hdr := []byte(headsMagic + "\x02")
	hdrV1 := []byte(headsMagic + "\x01")
	recA := appendRecord(nil, headRecord{op: opSet, key: "a", branch: "master", uid: fill(0x11)})
	recB := appendRecord(nil, headRecord{op: opSet, key: "b", branch: "master", uid: fill(0x22)})
	withA := func(tail ...[]byte) []byte { return cat(append([][]byte{hdr, recA}, tail...)...) }
	lenAs := func(rec []byte, n uint32) []byte {
		rec = slices.Clone(rec)
		binary.LittleEndian.PutUint32(rec, n)
		return rec
	}
	flip := func(rec []byte, at int) []byte {
		rec = slices.Clone(rec)
		rec[at] ^= 0x40
		return rec
	}
	setPayload := recB[frameLen:]
	deletePayload := []byte{opDelete, 1, 0, 'a', 0, 0}
	return []struct {
		name    string
		journal []byte
		corrupt bool
	}{
		{"length past EOF", withA(lenAs(recB, 1000)), false},
		{"length past EOF, intact record after", withA(lenAs(recB, 1000), recA), true},
		{"checksum failure on the last record", withA(flip(recB, frameLen+5)), false},
		{"length 0xFFFFFFFF", withA(lenAs(recB, 0xFFFFFFFF)), true},
		{"length below any record", withA(lenAs(recB, 3), recB), true},
		{"checksum failure mid-file", cat(hdr, flip(recA, frameLen+5), recB), true},
		{"key length past its record", withA(frameOf(cat([]byte{opSet, 0xFF, 0xFF}, setPayload[3:]))), true},
		{"empty key", withA(frameOf([]byte{opDelete, 0, 0, 1, 0, 'x'})), true},
		{"unknown op", withA(frameOf(cat([]byte{9}, setPayload[1:]))), true},
		{"short uid", withA(frameOf(setPayload[:len(setPayload)-1])), true},
		{"trailing bytes", withA(frameOf(cat(setPayload, []byte{0}))), true},
		{"delete of a branch that is not there", withA(appendRecord(nil, headRecord{op: opDelete, key: "b", branch: "master"})), true},
		{"rename onto a branch that is there", cat(hdrV1, recA, appendRecord(nil, headRecord{op: opRename, key: "a", branch: "master", to: "master"})), true},
		{"wrong magic", cat([]byte("FBHEADX\x01"), recA), true},
		{"wrong version", cat([]byte(headsMagic+"\x03"), recA), true},
		{"header cut short", hdr[:5], true},
		{"empty file", nil, true},
		{"length at the record cap, past EOF", withA(lenAs(recB, maxPayload)), false},
		{"length one past the record cap", withA(lenAs(recB, maxPayload+1)), true},
		{"batch of one head", withA(frameOf(cat([]byte{opBatch}, setPayload))), true},
		{"batch inside a batch", withA(frameOf(cat([]byte{opBatch, opBatch}, setPayload, setPayload))), true},
		{"batch with a torn head", withA(frameOf(cat([]byte{opBatch}, setPayload, deletePayload[:4]))), true},
		{"batch that deletes a branch that is not there", withA(frameOf(cat([]byte{opBatch}, setPayload, []byte{opDelete, 1, 0, 'c', 0, 0}))), true},
		{"batch in a version 1 journal", cat(hdrV1, recA, frameOf(cat([]byte{opBatch}, setPayload, deletePayload))), true},
		{"rename in a version 2 journal", withA(appendRecord(nil, headRecord{op: opRename, key: "a", branch: "master", to: "main"})), true},
	}
}

func TestHeadsJournalHostile(t *testing.T) {
	wantA := map[string]map[string]hash.Hash{"a": {"master": fill(0x11)}}
	intactA := headerLen + len(appendRecord(nil, headRecord{op: opSet, key: "a", branch: "master", uid: fill(0x11)}))
	for _, tc := range hostileJournals() {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, headsFile)
			if err := os.WriteFile(path, tc.journal, 0o644); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			f, err := OpenFileBranchTable(dir)
			runtime.ReadMemStats(&after)
			// A length field sizes nothing: the open allocates by the bytes
			// that are there.
			if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
				t.Fatalf("opening a %d-byte journal allocated %d bytes", len(tc.journal), got)
			}
			if tc.corrupt {
				if !errors.Is(err, ErrHeadsCorrupt) {
					t.Fatalf("opened with err %v, want ErrHeadsCorrupt", err)
				}
				if got := journalOf(t, dir); !bytes.Equal(got, tc.journal) {
					t.Fatalf("a refused journal was changed:\n got %x\nwant %x", got, tc.journal)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if got := allHeadsOf(t, f); !reflect.DeepEqual(got, wantA) {
				t.Fatalf("heads %v, want %v", got, wantA)
			}
			if got := journalOf(t, dir); !bytes.Equal(got, tc.journal[:intactA]) {
				t.Fatalf("torn tail not cut off: %x", got)
			}
		})
	}
}

// TestHeadsJournalTornTail cuts the last record short at every byte: each
// cut opens with every earlier head, and the next append lands where the
// torn record began.
func TestHeadsJournalTornTail(t *testing.T) {
	src := t.TempDir()
	f := openHeads(t, src)
	mustCAS(t, f, "a", "master", hash.Hash{}, fill(0x11))
	mustCAS(t, f, "a", "dev", hash.Hash{}, fill(0x22))
	before := allHeadsOf(t, f)
	last := len(journalOf(t, src))
	if err := opRenameHead("a", "dev", "feature")(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	full := journalOf(t, src)
	for cut := last + 1; cut < len(full); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, headsFile), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		g, err := OpenFileBranchTable(dir)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if got := allHeadsOf(t, g); !reflect.DeepEqual(got, before) {
			t.Fatalf("cut at %d: heads %v, want %v", cut, got, before)
		}
		mustCAS(t, g, "b", "master", hash.Hash{}, fill(0x33))
		g.Close()
		rec := appendRecord(nil, headRecord{op: opSet, key: "b", branch: "master", uid: fill(0x33)})
		if got := journalOf(t, dir); !bytes.Equal(got, cat(full[:last], rec)) {
			t.Fatalf("cut at %d: append after recovery left %x", cut, got)
		}
		if _, ok, _ := openHeads(t, dir).Head("b", "master"); !ok {
			t.Fatalf("cut at %d: the append after recovery did not survive a reopen", cut)
		}
	}
}

// TestHeadsJournalEveryBitFlip flips each bit of a three-record journal in
// turn and opens it.  A flip is refused (ErrHeadsCorrupt, file unchanged)
// or cuts the journal, but a cut may drop only the last record: no crash
// leaves a complete record after the one it tore, so a cut that drops an
// intact record loses an acknowledged head in silence.
func TestHeadsJournalEveryBitFlip(t *testing.T) {
	src := t.TempDir()
	f := openHeads(t, src)
	var heads []map[string]map[string]hash.Hash // heads[i]: after i records
	var ends []int                              // ends[i]: journal length after i records
	heads, ends = append(heads, allHeadsOf(t, f)), append(ends, len(journalOf(t, src)))
	for i, key := range []string{"a", "b", "c"} {
		mustCAS(t, f, key, "master", hash.Hash{}, fill(byte(0x11*(i+1))))
		heads, ends = append(heads, allHeadsOf(t, f)), append(ends, len(journalOf(t, src)))
	}
	f.Close()
	full := journalOf(t, src)
	dir := t.TempDir()
	path := filepath.Join(dir, headsFile)
	var refused, lostLast int
	for bit := 0; bit < 8*len(full); bit++ {
		b := slices.Clone(full)
		b[bit/8] ^= 1 << (bit % 8)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		g, err := OpenFileBranchTable(dir)
		if err != nil {
			if !errors.Is(err, ErrHeadsCorrupt) {
				t.Fatalf("bit %d: %v", bit, err)
			}
			if got := journalOf(t, dir); !bytes.Equal(got, b) {
				t.Fatalf("bit %d: a refused journal was changed", bit)
			}
			refused++
			continue
		}
		got, size := allHeadsOf(t, g), len(journalOf(t, dir))
		g.Close()
		kept := slices.Index(ends, size)
		if kept < 0 || !reflect.DeepEqual(got, heads[kept]) {
			t.Fatalf("bit %d: opened to %d bytes with heads %v", bit, size, got)
		}
		switch {
		case kept == len(ends)-2:
			lostLast++
		case kept < len(ends)-2:
			t.Errorf("bit %d (byte %d): the cut to %d bytes drops %d complete records", bit, bit/8, size, len(ends)-2-kept)
		}
	}
	t.Logf("%d flips: %d refused, %d lose only the last record", 8*len(full), refused, lostLast)
}

// FuzzHeadsJournal: the journal decoder reads whatever is on disk.  It must
// not panic or allocate by a length field instead of by the input, and the
// records it accepts must re-encode to exactly the bytes they came from; a
// snapshot of the table they build must decode to the same table.
func FuzzHeadsJournal(f *testing.F) {
	for _, tc := range goldenJournals {
		b, err := hex.DecodeString(tc.wantHex)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, tc := range goldenV1Journals {
		b, err := hex.DecodeString(tc.hex)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, tc := range hostileJournals() {
		f.Add(tc.journal)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m := NewMemBranchTable()
		var recs []headRecord
		intact, err := scanJournal(b, func(r headRecord) error {
			if err := m.install(r); err != nil {
				return err
			}
			recs = append(recs, r)
			return nil
		})
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<16+256*len(b)); got > limit {
			t.Fatalf("%d-byte journal allocated %d bytes (limit %d)", len(b), got, limit)
		}
		if intact > len(b) || (err != nil) != errors.Is(err, ErrHeadsCorrupt) {
			t.Fatalf("intact %d of %d, err %v", intact, len(b), err)
		}
		if intact == 0 {
			return // the header was refused
		}
		enc := []byte(headsMagic + string(b[len(headsMagic)]))
		for _, r := range recs {
			enc = appendRecord(enc, r)
		}
		if !bytes.Equal(enc, b[:intact]) {
			t.Fatalf("%x decoded to %d records, which encode as %x", b[:intact], len(recs), enc)
		}
		snap := appendSnapshot(nil, m.heads)
		m2 := NewMemBranchTable()
		if n, err := scanJournal(snap, func(r headRecord) error { return m2.install(r) }); err != nil || n != len(snap) {
			t.Fatalf("snapshot %x: intact %d, err %v", snap, n, err)
		}
		if !reflect.DeepEqual(allHeadsOf(t, m), allHeadsOf(t, m2)) || !bytes.Equal(appendSnapshot(nil, m2.heads), snap) {
			t.Fatalf("snapshot %x does not round-trip", snap)
		}
	})
}

const (
	killDirEnv  = "FORKBASE_TEST_HEADS_KILL_DIR"
	killSeedEnv = "FORKBASE_TEST_HEADS_KILL_SEED"
)

// killChildUID is the head the kill test's child gives key under seed.
func killChildUID(seed int, key string) hash.Hash {
	return hash.Of([]byte(strconv.Itoa(seed) + "/" + key))
}

// killStep is the kill test's Apply number i under seed.  An even step sets
// one new key; an odd step is a batch over four keys: three new ones, and a
// rename of the key the step before set.
func killStep(seed, i int) []HeadOp {
	key := fmt.Sprintf("k%06d", i)
	if i%2 == 0 {
		return []HeadOp{{Key: key, Branch: "master", Set: killChildUID(seed, key)}}
	}
	var ops []HeadOp
	for j := 0; j < 3; j++ {
		k := fmt.Sprintf("%s.%d", key, j)
		ops = append(ops, HeadOp{Key: k, Branch: "master", Set: killChildUID(seed, k)})
	}
	prev := fmt.Sprintf("k%06d", i-1)
	return append(ops, renameOps(prev, "master", "moved", killChildUID(seed, prev))...)
}

// killHeads is the table the kill test's first n steps leave.
func killHeads(t testing.TB, seed, n int) map[string]map[string]hash.Hash {
	m := NewMemBranchTable()
	for i := 0; i < n; i++ {
		if ok, err := m.Apply(killStep(seed, i)); !ok || err != nil {
			t.Fatalf("step %d: ok=%v err=%v", i, ok, err)
		}
	}
	return allHeadsOf(t, m)
}

// TestHeadsSurviveKill kills a writer with SIGKILL mid-stream, not with a
// panic hook: a child process (this test binary, re-executed) runs killStep's
// Applies — single heads, and four-key batches with a rename in them — and
// prints each step's number once Apply has returned; the parent kills it
// after about 200 lines and reopens the journal.  The heads must be exactly
// those of the printed steps, or of those and the one step after: every
// acknowledged Apply is there, and every Apply is there whole or not at all.
func TestHeadsSurviveKill(t *testing.T) {
	if dir := os.Getenv(killDirEnv); dir != "" {
		seed, _ := strconv.Atoi(os.Getenv(killSeedEnv))
		headsKillChild(dir, seed)
		return
	}
	for seed := 1; seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			acked := 0
			killAfter := 180 + rand.New(rand.NewSource(int64(seed))).Intn(40)
			killMidStream(t, "TestHeadsSurviveKill", dir, seed, func(line string) bool {
				if line != strconv.Itoa(acked) {
					t.Errorf("child printed %q after %d steps", line, acked)
				}
				acked++
				return acked < killAfter
			})

			got := allHeadsOf(t, openHeads(t, dir))
			switch {
			case reflect.DeepEqual(got, killHeads(t, seed, acked)):
				t.Logf("killed after %d acked steps", acked)
			case reflect.DeepEqual(got, killHeads(t, seed, acked+1)):
				t.Logf("killed after %d acked steps and one unprinted", acked)
			default:
				t.Fatalf("reopened %d keys, which are not the heads of the %d acked steps, nor of one more", len(got), acked)
			}
		})
	}
}

// killMidStream is the kill tests' harness.  It re-executes this test binary
// as a child running only test name, with dir and seed in its environment,
// and hands line each line the child prints until line returns false.  Then
// it SIGKILLs the child, hands line what the child printed before it died,
// and fails t unless the kill is what ended the child.
func killMidStream(t *testing.T, name, dir string, seed int, line func(string) bool) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^"+name+"$")
	cmd.Env = append(os.Environ(), killDirEnv+"="+dir, killSeedEnv+"="+strconv.Itoa(seed))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(out)
	enough := false
	for !enough && sc.Scan() {
		enough = !line(sc.Text())
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	for sc.Scan() {
		line(sc.Text())
	}
	if err := cmd.Wait(); err == nil || !enough {
		t.Fatalf("child exited with %v before it was killed; stderr:\n%s", err, stderr.Bytes())
	}
}

// headsKillChild is the kill test's child: it applies steps until it is
// killed.
func headsKillChild(dir string, seed int) {
	f, err := OpenFileBranchTable(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	for i := 0; i < 100000; i++ {
		if ok, err := f.Apply(killStep(seed, i)); !ok || err != nil {
			fmt.Fprintln(os.Stderr, "Apply:", ok, err)
			os.Exit(2)
		}
		fmt.Println(i)
	}
	os.Exit(3) // not killed in time
}

// TestHeadsBigApply: a 10,000-op Apply commits as one record and replays
// after a reopen.
func TestHeadsBigApply(t *testing.T) {
	dir := t.TempDir()
	f := openHeads(t, dir)
	ops := make([]HeadOp, 10000)
	for i := range ops {
		ops[i] = HeadOp{Key: fmt.Sprintf("k%05d", i), Branch: "master", Set: hash.Of([]byte(strconv.Itoa(i)))}
	}
	before := len(journalOf(t, dir))
	if ok, err := f.Apply(ops); !ok || err != nil {
		t.Fatalf("Apply: ok=%v err=%v", ok, err)
	}
	journal := journalOf(t, dir)
	var recs []headRecord
	if _, err := scanJournal(cat(journal[:headerLen], journal[before:]), func(r headRecord) error {
		recs = append(recs, r)
		return nil
	}); err != nil || len(recs) != 1 || len(recs[0].batch) != len(ops) {
		t.Fatalf("the Apply wrote %d records (err %v), want one batch of %d", len(recs), err, len(ops))
	}
	want := allHeadsOf(t, f)
	f.Close()
	if got := allHeadsOf(t, openHeads(t, dir)); len(got) != len(ops) || !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened %d keys, want %d", len(got), len(ops))
	}
}

// TestHeadsBytesPerCASIndependentOfKeys: moving one head appends one record,
// whether the table holds 10 heads or 10,000.
func TestHeadsBytesPerCASIndependentOfKeys(t *testing.T) {
	grow := func(keys int) int64 {
		dir := t.TempDir()
		f := openHeads(t, dir)
		for i := 0; i < keys; i++ {
			mustCAS(t, f, fmt.Sprintf("k%05d", i), "master", hash.Hash{}, fill(0x11))
		}
		size := func() int64 {
			fi, err := os.Stat(filepath.Join(dir, headsFile))
			if err != nil {
				t.Fatal(err)
			}
			return fi.Size()
		}
		before := size()
		mustCAS(t, f, "k00000", "master", fill(0x11), fill(0x22))
		return size() - before
	}
	few, many := grow(10), grow(10000)
	if few != many || few >= 128 {
		t.Fatalf("one CAS grew the journal by %d bytes at 10 keys and %d at 10,000; want equal and under 128", few, many)
	}
}

func BenchmarkFileBranchTableCAS(b *testing.B) {
	for _, keys := range []int{10, 10000} {
		b.Run(fmt.Sprintf("keys=%d", keys), func(b *testing.B) {
			f := openHeads(b, b.TempDir())
			names, heads := make([]string, keys), make([]hash.Hash, keys)
			for i := range names {
				names[i], heads[i] = fmt.Sprintf("k%05d", i), fill(0xFF)
				mustCAS(b, f, names[i], "master", hash.Hash{}, heads[i])
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k, next := i%keys, hash.Hash{byte(i), byte(i >> 8), byte(i >> 16), byte(i >> 24)}
				if ok, err := f.CompareAndSet(names[k], "master", heads[k], next); !ok || err != nil {
					b.Fatalf("CAS: ok=%v err=%v", ok, err)
				}
				heads[k] = next
			}
		})
	}
}

// TestHeadsJournalCompacts drives one head through more moves than the
// compaction floor holds: the journal stays bounded, the rewrite leaves no
// temporary file, and the compacted journal reopens to the same heads.
func TestHeadsJournalCompacts(t *testing.T) {
	dir := t.TempDir()
	f := openHeads(t, dir)
	mustCAS(t, f, "keep", "master", hash.Hash{}, fill(0x11))
	mustCAS(t, f, "gone", "master", hash.Hash{}, fill(0x22))
	if err := opDeleteHead("gone", "master")(f); err != nil {
		t.Fatal(err)
	}
	rec := int64(len(appendRecord(nil, headRecord{op: opSet, key: "hot", branch: "master"})))
	head := hash.Hash{}
	for i := 0; int64(i) < 2*compactFloor/rec; i++ {
		next := hash.Hash{1, byte(i), byte(i >> 8), byte(i >> 16)}
		mustCAS(t, f, "hot", "master", head, next)
		head = next
		if f.size > compactFloor+rec {
			t.Fatalf("journal at %d bytes after %d moves, compaction floor %d", f.size, i+1, compactFloor)
		}
	}
	if err := opRenameHead("keep", "master", "main")(f); err != nil {
		t.Fatal(err)
	}
	want := allHeadsOf(t, f)
	f.Close()
	if _, err := os.Stat(filepath.Join(dir, headsFile+".tmp")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("compaction left its temporary file: %v", err)
	}
	if got := allHeadsOf(t, openHeads(t, dir)); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened %v, want %v", got, want)
	}
}

// TestHeadsConvertBranchesJSON: a store written before the journal opens
// with the heads its branches.json held, converted once into heads.log.
func TestHeadsConvertBranchesJSON(t *testing.T) {
	legacy, err := os.ReadFile(filepath.Join("testdata", legacyHeads))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]map[string]hash.Hash{}
	for key, branches := range map[string][]string{
		"orders": {"master", "dev", "q3-fix"},
		"users":  {"master"},
		"events": {"master", "staging"},
	} {
		want[key] = map[string]hash.Hash{}
		for _, br := range branches {
			want[key][br] = hash.Of([]byte(key + "@" + br))
		}
	}
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, legacyHeads)
	if err := os.WriteFile(jsonPath, legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	f := openHeads(t, dir)
	if got := allHeadsOf(t, f); !reflect.DeepEqual(got, want) {
		t.Fatalf("converted %v, want %v", got, want)
	}
	f.Close()
	if _, err := os.Stat(jsonPath); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("branches.json still there after conversion: %v", err)
	}
	journal := journalOf(t, dir)
	if journal[len(headsMagic)] != headsVersion {
		t.Fatalf("converted into a version %d journal, want %d", journal[len(headsMagic)], headsVersion)
	}
	if got := allHeadsOf(t, openHeads(t, dir)); !reflect.DeepEqual(got, want) || !bytes.Equal(journalOf(t, dir), journal) {
		t.Fatalf("reopened %v, want %v, journal unchanged", got, want)
	}

	// A crash between the journal's rename and the JSON file's removal
	// leaves both: the journal wins, and the conversion finishes.
	if err := os.WriteFile(jsonPath, []byte(`{"stale":{"master":"`+fill(0x55).String()+`"}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := allHeadsOf(t, openHeads(t, dir)); !reflect.DeepEqual(got, want) {
		t.Fatalf("with a leftover branches.json: %v, want %v", got, want)
	}
	if _, err := os.Stat(jsonPath); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("leftover branches.json not removed: %v", err)
	}
}

// TestFileBranchTableClose: after Close every mutation fails without
// touching the journal, reads still answer, and Close is idempotent.
func TestFileBranchTableClose(t *testing.T) {
	dir := t.TempDir()
	f := openHeads(t, dir)
	mustCAS(t, f, "k", "master", hash.Hash{}, fill(0x11))
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	journal := journalOf(t, dir)
	if ok, err := f.CompareAndSet("k", "master", fill(0x11), fill(0x22)); ok || !errors.Is(err, errHeadsClosed) {
		t.Fatalf("CAS after Close: ok=%v err=%v", ok, err)
	}
	if ok, err := f.Apply(renameOps("k", "master", "main", fill(0x11))); ok || !errors.Is(err, errHeadsClosed) {
		t.Fatalf("rename after Close: ok=%v err=%v", ok, err)
	}
	if ok, err := f.Apply([]HeadOp{{Key: "k", Branch: "master", Any: true}}); ok || !errors.Is(err, errHeadsClosed) {
		t.Fatalf("delete after Close: ok=%v err=%v", ok, err)
	}
	if uid, ok, err := f.Head("k", "master"); !ok || err != nil || uid != fill(0x11) {
		t.Fatalf("Head after Close: %s %v %v", uid.Short(), ok, err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(journalOf(t, dir), journal) {
		t.Fatal("the journal changed after Close")
	}
}

// TestHeadsCloseFsyncsTheJournal pins Close as the journal's durability
// point: after N acknowledged Applies, none of which fsynced, Close makes
// exactly one journal fsync, so a cleanly closed table has every head on
// disk.
func TestHeadsCloseFsyncsTheJournal(t *testing.T) {
	f := openHeads(t, t.TempDir())
	before := f.syncs.Load()
	for i := 0; i < 10; i++ {
		mustCAS(t, f, fmt.Sprint("k", i), "master", hash.Hash{}, fill(byte(i+1)))
	}
	if got := f.syncs.Load() - before; got != 0 {
		t.Fatalf("10 acked Applies made %d journal fsyncs, want 0", got)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if got := f.syncs.Load() - before; got != 1 {
		t.Errorf("10 acked Applies and a Close made %d journal fsyncs, want 1", got)
	}
}

// TestHeadsRefusalsWriteNothing: a mutation the table refuses — a stale
// CAS, a missing or clashing branch, a name no record can hold — leaves the
// journal as it was.
func TestHeadsRefusalsWriteNothing(t *testing.T) {
	dir := t.TempDir()
	f := openHeads(t, dir)
	long := strings.Repeat("x", maxName+1)
	mustCAS(t, f, strings.Repeat("k", maxName), strings.Repeat("b", maxName), hash.Hash{}, fill(0x11))
	mustCAS(t, f, "k", "", hash.Hash{}, fill(0x11))
	mustCAS(t, f, "k", "dev", hash.Hash{}, fill(0x22))
	journal := journalOf(t, dir)
	for _, c := range [][2]string{{"", "master"}, {long, "master"}, {"k", long}} {
		if ok, err := f.CompareAndSet(c[0], c[1], hash.Hash{}, fill(0x22)); ok || err == nil {
			t.Fatalf("CAS of a %d-byte key and %d-byte branch accepted", len(c[0]), len(c[1]))
		}
	}
	if ok, err := f.CompareAndSet("k", "dev", fill(0x11), fill(0x33)); ok || err != nil {
		t.Fatalf("stale CAS: ok=%v err=%v", ok, err)
	}
	for name, ops := range map[string][]HeadOp{
		"rename to an over-long name":     renameOps("k", "", long, fill(0x11)),
		"rename onto an existing branch":  renameOps("k", "", "dev", fill(0x11)),
		"rename of a missing branch":      renameOps("k", "nope", "new", fill(0x11)),
		"delete of a missing branch":      {{Key: "k", Branch: "nope", Expect: fill(0x11)}},
		"delete of a missing branch, any": {{Key: "k", Branch: "nope", Any: true}},
		"a head set to itself":            {{Key: "k", Branch: "dev", Expect: fill(0x22), Set: fill(0x22)}},
		"a create then its delete":        {{Key: "k", Branch: "tmp", Set: fill(0x33)}, {Key: "k", Branch: "tmp", Expect: fill(0x33)}},
		"a batch whose last op is stale": {
			{Key: "k", Branch: "", Expect: fill(0x11), Set: fill(0x44)},
			{Key: "k", Branch: "dev", Expect: fill(0x11), Set: fill(0x44)},
		},
	} {
		f.Apply(ops)
		if !bytes.Equal(journalOf(t, dir), journal) {
			t.Fatalf("%s reached the journal", name)
		}
	}
	if got := allHeadsOf(t, f); !reflect.DeepEqual(got["k"], map[string]hash.Hash{"": fill(0x11), "dev": fill(0x22)}) {
		t.Fatalf("heads of k after refusals: %v", got["k"])
	}
	if !bytes.Equal(journalOf(t, dir), journal) {
		t.Fatal("a refused mutation reached the journal")
	}
}

// TestHeadTablesAgree runs one seeded script of Applys — sets, deletes,
// renames as a delete plus a create, multi-head batches and stale
// expectations — against a table without a journal and a journaled one:
// both give the same answer and hold the same heads after every op, a
// refused Apply writes nothing, and a reopen of the journaled table
// reproduces the heads.
func TestHeadTablesAgree(t *testing.T) {
	keys, branches := []string{"a", "b", "c"}, []string{"master", "dev", "x"}
	for _, seed := range []int64{1, 2, 3} {
		dir := t.TempDir()
		mem, file := NewMemBranchTable(), openHeads(t, dir)
		rng := rand.New(rand.NewSource(seed))
		pick := func() (string, string) { return keys[rng.Intn(len(keys))], branches[rng.Intn(len(branches))] }
		uid := func() hash.Hash { return fill(byte(1 + rng.Intn(255))) }
		for i := 0; i < 500; i++ {
			heads := allHeadsOf(t, mem)
			k, b := pick()
			var ops []HeadOp
			stale := false
			switch rng.Intn(5) {
			case 0: // a create or a move
				ops = []HeadOp{{Key: k, Branch: b, Expect: heads[k][b], Set: uid()}}
			case 1: // a delete
				ops = []HeadOp{{Key: k, Branch: b, Expect: heads[k][b]}}
			case 2: // a rename
				ops = renameOps(k, b, branches[rng.Intn(len(branches))], heads[k][b])
			case 3: // a batch over several heads, some unchecked
				for _, j := range rng.Perm(len(keys))[:2+rng.Intn(2)] {
					op := HeadOp{Key: keys[j], Branch: b, Expect: heads[keys[j]][b], Any: rng.Intn(3) == 0}
					if rng.Intn(4) > 0 {
						op.Set = uid()
					}
					ops = append(ops, op)
				}
			case 4: // a batch whose last expectation is stale
				stale = true
				other := uid()
				for other == heads[k][b] {
					other = uid()
				}
				ops = []HeadOp{{Key: keys[0], Branch: "y", Any: true, Set: uid()}, {Key: k, Branch: b, Expect: other, Set: uid()}}
			}
			journal := journalOf(t, dir)
			okMem, errMem := mem.Apply(ops)
			okFile, errFile := file.Apply(ops)
			if okMem != okFile || errMem != nil || errFile != nil {
				t.Fatalf("seed %d op %d %v: mem ok=%v err=%v, journaled ok=%v err=%v", seed, i, ops, okMem, errMem, okFile, errFile)
			}
			if stale && okMem {
				t.Fatalf("seed %d op %d: a stale expectation was accepted", seed, i)
			}
			if !okFile && !bytes.Equal(journalOf(t, dir), journal) {
				t.Fatalf("seed %d op %d: a refused Apply reached the journal", seed, i)
			}
			if got, want := allHeadsOf(t, file), allHeadsOf(t, mem); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d op %d: journaled heads %v, mem heads %v", seed, i, got, want)
			}
			uidMem, okMem, _ := mem.Head(k, b)
			uidFile, okFile, _ := file.Head(k, b)
			if uidMem != uidFile || okMem != okFile {
				t.Fatalf("seed %d op %d: Head(%s, %s) answers differ", seed, i, k, b)
			}
		}
		if err := file.Close(); err != nil {
			t.Fatal(err)
		}
		if got, want := allHeadsOf(t, openHeads(t, dir)), allHeadsOf(t, mem); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: reopened heads %v, want %v", seed, got, want)
		}
		if err := mem.Close(); err != nil {
			t.Fatalf("Close without a journal: %v", err)
		}
	}
}
