package store

import (
	"bytes"
	"encoding/hex"
	"fmt"
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
