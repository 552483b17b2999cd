package store

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"forkbase/internal/chunk"
	"forkbase/internal/hash"
)

// recHex spells one segment record in hex: a 32-byte id of repeated idByte,
// the little-endian length field exactly as given, the type byte, then the
// payload.  Writing the length field out keeps hostile lengths literal.
func recHex(idByte byte, lenLE string, typ chunk.Type, payload string) string {
	return strings.Repeat(fmt.Sprintf("%02x", idByte), hash.Size) + lenLE +
		fmt.Sprintf("%02x", byte(typ)) + hex.EncodeToString([]byte(payload))
}

// scanned is one record as scanRecords reports it.
type scanned struct {
	off     int64
	idByte  byte
	typ     chunk.Type
	payload string
}

var (
	recABC = recHex(0x11, "03000000", chunk.TypeBlobLeaf, "abc") // 40 bytes
	recHi  = recHex(0x22, "02000000", chunk.TypeMapLeaf, "hi")   // 39 bytes
)

// scanVectors are the golden and hostile segment images: what scanRecords
// reports for each, and where it stops.  They also seed FuzzSegmentScan.
var scanVectors = []struct {
	name    string
	in      string // hex
	want    []scanned
	wantEnd int64
}{
	{"empty", "", nil, 0},
	{"one record", recABC, []scanned{{0, 0x11, chunk.TypeBlobLeaf, "abc"}}, 40},
	{"two records", recABC + recHi,
		[]scanned{{0, 0x11, chunk.TypeBlobLeaf, "abc"}, {40, 0x22, chunk.TypeMapLeaf, "hi"}}, 79},
	{"zero-length payload", recHex(0x33, "00000000", chunk.TypeTag, ""),
		[]scanned{{0, 0x33, chunk.TypeTag, ""}}, 37},
	{"torn header", recABC + recHi[:40],
		[]scanned{{0, 0x11, chunk.TypeBlobLeaf, "abc"}}, 40},
	{"torn payload", recABC + recHex(0x22, "05000000", chunk.TypeMapLeaf, "hi"),
		[]scanned{{0, 0x11, chunk.TypeBlobLeaf, "abc"}}, 40},
	{"invalid type", recHex(0x11, "03000000", chunk.TypeInvalid, "abc"), nil, 0},
	{"type past the last", recHex(0x11, "03000000", chunk.Type(10), "abc"), nil, 0},
	{"negative length", recHex(0x11, "ffffffff", chunk.TypeBlobLeaf, "abc"), nil, 0},
	{"length past end", recHex(0x11, "f0ffff7f", chunk.TypeBlobLeaf, "abc"), nil, 0},
	{"damage hides later records", recABC + recHex(0x22, "02000000", chunk.TypeInvalid, "hi") + recABC,
		[]scanned{{0, 0x11, chunk.TypeBlobLeaf, "abc"}}, 40},
}

func TestScanRecords(t *testing.T) {
	for _, tc := range scanVectors {
		t.Run(tc.name, func(t *testing.T) {
			data, err := hex.DecodeString(tc.in)
			if err != nil {
				t.Fatal(err)
			}
			var got []scanned
			end := scanRecords(data, func(off int64, id hash.Hash, typ chunk.Type, payload []byte) {
				if id != hash.Hash(bytes.Repeat(id[:1], hash.Size)) {
					t.Fatalf("record at %d: id %x is not one repeated byte", off, id)
				}
				got = append(got, scanned{off, id[0], typ, string(payload)})
			})
			if !reflect.DeepEqual(got, tc.want) || end != tc.wantEnd {
				t.Fatalf("got %v end %d, want %v end %d", got, end, tc.want, tc.wantEnd)
			}
		})
	}
}

// TestRecoveryResyncsPastDamage: a length field rotted in the active
// segment (bit 6 of its high byte, so the record claims about a GiB) is
// damage, not a torn tail, when intact records follow it.  Recovery indexes
// every record after it, cuts nothing, and reports the segment unhealthy
// until a scrub quarantines it and rescues those records.
func TestRecoveryResyncsPastDamage(t *testing.T) {
	for _, r := range []int{0, 5, 18} {
		t.Run(fmt.Sprint("record ", r), func(t *testing.T) {
			dir, path, data, ids := rotLengthField(t, r)
			s2, err := OpenFileStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			if fi, err := os.Stat(path); err != nil || fi.Size() != int64(len(data)) {
				t.Fatalf("recovery cut the segment: %v (err %v), had %d bytes", fi.Size(), err, len(data))
			}
			for i, id := range ids {
				if _, err := s2.Get(id); (i == r) != (err != nil) {
					t.Fatalf("record %d (damage at %d): get err %v", i, r, err)
				}
			}
			if err := s2.Health(); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("health after recovery = %v, want ErrCorrupt", err)
			}
			st, err := s2.Scrub()
			if err != nil {
				t.Fatal(err)
			}
			if st.QuarantinedSegments != 1 || st.Rescued != len(ids)-1 {
				t.Fatalf("scrub quarantined=%d rescued=%d, want 1/%d", st.QuarantinedSegments, st.Rescued, len(ids)-1)
			}
			if err := s2.Health(); err != nil {
				t.Fatalf("health after quarantine = %v", err)
			}
			for i, id := range ids {
				if _, err := s2.Get(id); (i == r) != (err != nil) {
					t.Fatalf("after scrub, record %d (damage at %d): get err %v", i, r, err)
				}
			}
		})
	}
}

// rotLengthField writes 20 small chunks to a fresh store in dir, closes it
// and flips bit 6 of the high byte of record r's length field, so the
// record claims about a GiB.  It returns the damaged segment's path and
// bytes, and the chunk ids in write order.
func rotLengthField(t *testing.T, r int) (dir, path string, data []byte, ids []hash.Hash) {
	t.Helper()
	dir = t.TempDir()
	s, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		c := chunk.New(chunk.TypeBlobLeaf, []byte(fmt.Sprintf("chunk %02d", i)))
		if _, err := s.Put(c); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, c.ID())
	}
	loc, _ := s.lookup(ids[r])
	path = s.segmentPath(loc.segment)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if data, err = os.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	data[loc.offset+hash.Size+3] ^= 1 << 6
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir, path, data, ids
}

// TestScrubCountsAsRecoveryDoes: scrub and recovery walk a segment's
// records the same way, so the first scrub after open classifies the
// damaged segment exactly as open did: every record past the rotted one is
// ok, and the rotted one is one torn span.
func TestScrubCountsAsRecoveryDoes(t *testing.T) {
	for _, r := range []int{0, 5, 18} {
		t.Run(fmt.Sprint("record ", r), func(t *testing.T) {
			dir, _, _, ids := rotLengthField(t, r)
			s, err := OpenFileStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			open, _, ok := s.LastScrub()
			if !ok {
				t.Fatal("open recorded no classification")
			}
			if open.Ok != len(ids)-1 || open.Corrupt != 0 || open.Torn != 1 {
				t.Fatalf("open: ok=%d corrupt=%d torn=%d, want %d/0/1", open.Ok, open.Corrupt, open.Torn, len(ids)-1)
			}
			st, err := s.Scrub()
			if err != nil {
				t.Fatal(err)
			}
			if st.Ok != open.Ok || st.Corrupt != open.Corrupt || st.Torn != open.Torn {
				t.Fatalf("scrub: ok=%d corrupt=%d torn=%d; open: ok=%d corrupt=%d torn=%d", st.Ok, st.Corrupt, st.Torn, open.Ok, open.Corrupt, open.Torn)
			}
		})
	}
}

// FuzzSegmentScan: on any bytes, scanRecords does not panic, allocates
// nothing, and reports contiguous records from offset 0 that lie inside
// data, stopping exactly where the last one ends.
func FuzzSegmentScan(f *testing.F) {
	for _, tc := range scanVectors {
		data, err := hex.DecodeString(tc.in)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		next := int64(0)
		end := scanRecords(data, func(off int64, id hash.Hash, typ chunk.Type, payload []byte) {
			stop := off + recordHeader + int64(len(payload))
			if off != next || stop > int64(len(data)) || !typ.Valid() ||
				!bytes.Equal(id[:], data[off:off+hash.Size]) || !bytes.Equal(payload, data[off+recordHeader:stop]) {
				t.Fatalf("record at %d (+%d payload bytes) is not the next record inside %d bytes", off, len(payload), len(data))
			}
			next = stop
		})
		if end != next {
			t.Fatalf("scan stopped at %d, last record ended at %d", end, next)
		}
		if n := testing.AllocsPerRun(1, func() {
			scanRecords(data, func(int64, hash.Hash, chunk.Type, []byte) {})
		}); n != 0 {
			t.Fatalf("scan of %d bytes allocated %v times", len(data), n)
		}
	})
}
