package rest

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"forkbase/internal/chunker"
	"forkbase/internal/core"
	"forkbase/internal/index"
	"forkbase/internal/server"
	"forkbase/internal/store"
)

// The request shapes, tagged for encoding/json: the oracle FuzzRequestBody
// holds the decoder to, and what the tests marshal requests from.
type putBody struct {
	Kind    string            `json:"kind"` // string|int|float|bool|map|set|list|blob
	Value   string            `json:"value,omitempty"`
	Entries map[string]string `json:"entries,omitempty"` // map kind
	Items   []string          `json:"items,omitempty"`   // list/set kind
	Meta    map[string]string `json:"meta,omitempty"`
}

type batchOpBody struct {
	Key    string `json:"key"`
	Branch string `json:"branch,omitempty"`
	putBody
}

type batchBody struct {
	Ops []batchOpBody `json:"ops"`
}

type branchBody struct {
	New  string `json:"new"`
	From string `json:"from,omitempty"`
}

type mergeBody struct {
	Into    string `json:"into"`
	From    string `json:"from"`
	Resolve string `json:"resolve,omitempty"` // "", "ours", "theirs"
	Message string `json:"message,omitempty"`
}

// filler reads as an endless run of 'A'.
type filler struct{}

func (filler) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 'A'
	}
	return len(p), nil
}

// hostileBodies are well-formed bodies for every route that reads one, each
// a head and a tail around a run of filler.
var hostileBodies = []struct {
	name, method, path, head, tail string
	json                           bool // read by readBody
}{
	{"put", http.MethodPut, "/v1/obj/k", `{"kind":"string","value":"`, `"}`, true},
	{"batch", http.MethodPost, "/v1/batch", `{"ops":[{"key":"k","kind":"string","value":"`, `"}]}`, true},
	{"branch", http.MethodPost, "/v1/obj/d/branch", `{"new":"`, `"}`, true},
	{"merge", http.MethodPost, "/v1/obj/d/merge", `{"into":"master","from":"master","message":"`, `"}`, true},
	{"dataset import", http.MethodPost, "/v1/dataset/e?key=id", "id,v\n1,", "\n", false},
	{"dataset append", http.MethodPost, "/v1/dataset/d?append=1", "id,v\n2,", "\n", false},
}

// TestHostileBodies: a request body past server.MaxPayload, the TCP edge's
// frame cap, costs the client a 413 on every route that reads one — not a
// commit and not an allocation the size of the body.  A body that declares
// its length is refused unread; one of unknown length is cut off at the cap,
// and a JSON route's reader (readBody) has then allocated twice the cap, give
// or take the request's own few KiB.  The dataset routes stream their CSV
// through the dataset package's reader, which refuses the one long line past
// chunk.MaxSize within the same bound, and a record of 1 MiB of commas under
// the cap with 400 at about one copy of the body, before the CSV reader
// spends its per-field cost on it.
func TestHostileBodies(t *testing.T) {
	db := core.Open(core.Options{Store: store.NewMemStore(), Chunking: chunker.SmallConfig()})
	h := New(db)
	seed := httptest.NewRecorder()
	h.ServeHTTP(seed, httptest.NewRequest(http.MethodPost, "/v1/dataset/d?key=id", strings.NewReader("id,v\n1,x\n")))
	if seed.Code != http.StatusCreated {
		t.Fatalf("seeding the dataset: %d %s", seed.Code, seed.Body)
	}
	const over = server.MaxPayload + 1<<16
	type row struct {
		name, method, path, head, tail string
		declared, json                 bool
	}
	rows := []row{{"put, declared length", http.MethodPut, "/v1/obj/k", `{"kind":"string","value":"`, `"}`, true, true}}
	for _, b := range hostileBodies {
		rows = append(rows, row{b.name, b.method, b.path, b.head, b.tail, false, b.json})
	}
	for _, tc := range rows {
		// A well-formed body one step past the cap.
		body := io.MultiReader(strings.NewReader(tc.head),
			io.LimitReader(filler{}, over-int64(len(tc.head)+len(tc.tail))), strings.NewReader(tc.tail))
		req := httptest.NewRequest(tc.method, tc.path, body)
		req.ContentLength = -1
		if tc.declared {
			req.ContentLength = over
		}
		rec := httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		h.ServeHTTP(rec, req)
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: %d %.80s, want 413", tc.name, rec.Code, rec.Body)
		}
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: %d bytes allocated, %.2f× the cap", tc.name, got, float64(got)/server.MaxPayload)
		if tc.declared && got > server.MaxPayload+1<<20 {
			t.Errorf("%s: refusing the body allocated %d bytes; the cap is %d", tc.name, got, server.MaxPayload)
		}
		if !tc.declared && got > 2*server.MaxPayload+1<<20 {
			t.Errorf("%s: cutting the body off allocated %d bytes (%.2f× the cap %d), want at most 2×",
				tc.name, got, float64(got)/server.MaxPayload, server.MaxPayload)
		}
	}
	// A body under the cap whose record has 1 MiB of commas: the dataset
	// package refuses its width before the CSV reader spends about 150
	// bytes per field on it.
	for _, b := range hostileBodies[len(hostileBodies)-2:] {
		body := b.head + strings.Repeat(",", 1<<20) + b.tail
		rec := httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		h.ServeHTTP(rec, httptest.NewRequest(b.method, b.path, strings.NewReader(body)))
		runtime.ReadMemStats(&after)
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s, a row of commas: %d bytes allocated, %.2f× the body", b.name, got, float64(got)/float64(len(body)))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s, a row of commas: %d %.80s, want 400", b.name, rec.Code, rec.Body)
		}
		if got > 4*uint64(len(body))+1<<20 {
			t.Errorf("%s, a row of commas: %d bytes allocated for a %d-byte body, want at most 4× + 1 MiB", b.name, got, len(body))
		}
	}
	if keys, err := db.ListKeys(); err != nil || len(keys) != 1 {
		t.Fatalf("keys after hostile bodies: %v, %v; want only the seeded dataset", keys, err)
	}
	if branches, err := db.ListBranches("d"); err != nil || len(branches) != 1 {
		t.Fatalf("branches of d after hostile bodies: %d, %v; want master alone", len(branches), err)
	}
}

// TestBodyShapes: the decoder's structs are the sizes of the oracle's, so
// an ops or items slice grows through the capacities Decode's did, and a
// repeated array member finds the same elements in place (decodeSlice).
func TestBodyShapes(t *testing.T) {
	if a, b := unsafe.Sizeof(batchOp{}), unsafe.Sizeof(batchOpBody{}); a != b {
		t.Errorf("batchOp is %d bytes, batchOpBody %d", a, b)
	}
	if a, b := unsafe.Sizeof(putReq{}), unsafe.Sizeof(putBody{}); a != b {
		t.Errorf("putReq is %d bytes, putBody %d", a, b)
	}
}

// TestRepeatedEntryKeyKeepsTheLast: a map entry key that repeats in a PUT
// body, or in a batch op, stores its last value under either index
// structure; the decoder hands the entries over in body order, and the
// build keeps the last of a key.
func TestRepeatedEntryKeyKeepsTheLast(t *testing.T) {
	for _, kind := range []index.Kind{index.KindPOS, index.KindMPT} {
		db := core.Open(core.Options{Store: store.NewMemStore(), Chunking: chunker.SmallConfig(), Index: kind})
		srv := httptest.NewServer(New(db))
		for _, tc := range []struct{ path, body string }{
			{"/v1/obj/p", `{"kind":"map","entries":{"a":"1","b":"2","a":"3"},"entries":{"b":"4"}}`},
			{"/v1/batch", `{"ops":[{"key":"q","kind":"map","entries":{"a":"1","b":"2","a":"3"},"entries":{"b":"4"}}]}`},
		} {
			method := http.MethodPut
			if tc.path == "/v1/batch" {
				method = http.MethodPost
			}
			req, _ := http.NewRequest(method, srv.URL+tc.path, strings.NewReader(tc.body))
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusCreated {
				t.Fatalf("%v %s: %d", kind, tc.path, resp.StatusCode)
			}
		}
		for _, key := range []string{"p", "q"} {
			v, err := db.Get(key, core.DefaultBranch)
			if err != nil {
				t.Fatal(err)
			}
			ix, err := db.IndexOf(v)
			if err != nil {
				t.Fatal(err)
			}
			a, errA := ix.Get([]byte("a"))
			b, errB := ix.Get([]byte("b"))
			if errA != nil || errB != nil || string(a) != "3" || string(b) != "4" || v.Value.Count() != 2 {
				t.Errorf("%v %s: a=%q (%v) b=%q (%v) count %d, want a=3 b=4 count 2",
					kind, key, a, errA, b, errB, v.Value.Count())
			}
		}
		srv.Close()
	}
}

// TestDecodePutAllocs pins what decoding a rest-collab body allocates: the
// entries list's holder, its 16 slots and their growth to 32, and the kind
// string.  Keys and values alias the body.
func TestDecodePutAllocs(t *testing.T) {
	body := collabBody(rand.New(rand.NewSource(1)))
	p, err := decodePut(body)
	if err != nil || p.kind != "map" || p.entries == nil || len(*p.entries) != 32 {
		t.Fatalf("decodePut: %v", err)
	}
	if got := testing.AllocsPerRun(100, func() { _, _ = decodePut(body) }); got > 4 {
		t.Errorf("decoding a %d-byte, 32-entry body allocates %v times, want at most 4", len(body), got)
	}
}

// bodySeeds are FuzzRequestBody's seeds, one or more for each rule the
// decoder shares with encoding/json.
var bodySeeds = []string{
	// The four shapes.
	`{"kind":"map","entries":{"a":"1","b":"2"},"meta":{"author":"x"}}`,
	`{"ops":[{"key":"k","kind":"map","entries":{"a":"1"}},{"key":"j","branch":"dev","kind":"list","items":["x","y"]}]}`,
	`{"new":"dev","from":"master"}`,
	`{"into":"master","from":"dev","resolve":"ours","message":"m"}`,
	// Escapes and surrogates: pairs, lone highs and lows, a high before a
	// character or a non-surrogate escape, and escapes cut short.
	`{"value":"\"\\\/\b\f\n\r\t\u00e9é","entries":{"\ud83d\ude00":"\ud800","\udc00":"\ud800A"}}`,
	`{"kind":"map","entries":{"\u0000":"\ud800\ud800\udc00","\uDBFF\uDFFF":"\udbff\u0041"}}`,
	`{"a":"\x"}`, `{"a":"\u12"}`, `{"a":"\uZZZZ"}`, `{"value":"\ud800\u00"}`, `{"value":"\ud800\uZZZZ"}`,
	// Invalid UTF-8, in names and values, and a literal U+FFFD.
	"{\"value\":\"\xff\xc3\x28\xed\xa0\x80\xef\xbf\xbd\",\"entries\":{\"\xfe\":\"\xe2\x82\"}}",
	"{\"k\xffind\":\"map\",\"\xf0\x9f\x98\":\"x\"}",
	// Case-folded names: ASCII case, KELVIN SIGN for k, LONG S for s.
	`{"KIND":"map","Entries":{"a":"1"},"entrieſ":{"b":"2"},"ops":[{"KEY":"x","Kind":"int"}]}`,
	`{"Key":"k","NEW":"b","fRoM":"a","InTo":"m","ReSoLvE":"theirs","MESSAGE":"hi","ITEMS":["i"],"Meta":{"M":"v"}}`,
	// Duplicates: a later member wins, entries and meta merge, null resets,
	// and a repeated array is decoded over the earlier one in place.
	`{"kind":"int","kind":"map","entries":{"a":"1","a":"2"},"entries":{"b":"3"},"value":"x","value":null}`,
	`{"entries":{"a":"1"},"entries":null,"entries":{"b":"2"},"meta":{"a":"1"},"meta":null,"meta":{"b":null}}`,
	`{"items":["a","b","c"],"items":["d"],"items":["e",null,null],"items":[],"items":[null]}`,
	`{"ops":[{"key":"a","entries":{"x":"1"},"items":["p","q"]},{"key":"b"}],"ops":[{"key":"c"}],"ops":[{"items":[null]},null,{}]}`,
	`{"new":"a","new":"b","from":"x","from":null}`,
	// Nulls everywhere a value may be.
	`null`, `nullgarbage`, ` null `, `nul`,
	`{"kind":null,"entries":{"a":null},"items":[null],"meta":{"a":null},"ops":null,"new":null,"into":null}`,
	`{"ops":[null]}`, `{"ops":[]}`, `{"ops":{}}`,
	// Numbers, booleans, arrays and objects where strings belong.
	`{"value":1}`, `{"value":-0.5e+3}`, `{"kind":true}`, `{"entries":{"a":1}}`, `{"entries":[]}`,
	`{"items":"x"}`, `{"items":[1]}`, `{"meta":"m"}`, `{"ops":[1]}`, `{"ops":"x"}`, `{"new":{}}`, `{"from":[]}`,
	`[]`, `"str"`, `12`, `true`, `-`,
	// Unknown members, skipped with their syntax checked.
	`{"x":[1,-0,2.5e-3,1E+2,true,false,null,{"y":{"z":[]}}],"kind":"string","value":"v"}`,
	`{"x":01}`, `{"x":1.}`, `{"x":1e}`, `{"x":-}`, `{"x":.5}`, `{"x":tru}`, `{"x":nulL}`, `{"x":[1,]}`, `{"x":{"a"}}`,
	// Bytes after the first value.
	`{"kind":"string"} trailing`, `{"kind":"string"}{"kind":"int"}`, `{} ]`, `{"new":"b"}` + "\x00",
	// Truncated and malformed.
	``, ` `, `{`, `{"kind"`, `{"kind":`, `{"kind":"x"`, `{"kind":"x",}`, `{,}`, `{"a" "b"}`, `{"a":"b" "c":"d"}`,
	"{\"a\":\"\x01\"}", "\xef\xbb\xbf{}", `{"a":"b"]`, `{"a":["b"}`,
	// Nesting, in an unknown member and in a known one.
	`{"x":` + strings.Repeat(`[{"a":`, 50) + "1" + strings.Repeat("}]", 50) + `}`,
	`{"ops":[{"key":"k","x":` + strings.Repeat("[", 100) + strings.Repeat("]", 100) + `}]}`,
}

// TestBodyNestingLimit: the decoders refuse what encoding/json refuses past
// its nesting limit, and accept what it accepts at the limit.  These bodies
// are not fuzz seeds: each takes milliseconds to decode five ways, which
// stalls the fuzzer while it minimizes one.
func TestBodyNestingLimit(t *testing.T) {
	for _, depth := range []int{maxDepth - 1, maxDepth} { // the body's object is one more level
		for _, body := range []string{
			`{"x":` + strings.Repeat("[", depth) + strings.Repeat("]", depth) + `}`,
			`{"x":` + strings.Repeat(`{"a":`, depth) + "1" + strings.Repeat("}", depth) + `}`,
			`{"ops":[` + strings.Repeat("[", depth-1) + strings.Repeat("]", depth-1) + `]}`,
		} {
			checkBody(t, []byte(body))
		}
	}
}

// FuzzRequestBody: on any bytes, each of the four body decoders accepts
// exactly what encoding/json's Decoder.Decode accepts into the oracle's
// shape and yields the same values (entries compared as the map a later
// duplicate wins in), allocating in proportion to the input.
func FuzzRequestBody(f *testing.F) {
	for _, s := range bodySeeds {
		f.Add([]byte(s))
	}
	for _, b := range hostileBodies {
		if b.json {
			f.Add([]byte(b.head + "AAAA" + b.tail))
		}
	}
	f.Fuzz(checkBody)
}

// checkBody runs the four decoders and encoding/json on body and fails t
// where they disagree, or where the decoders allocate out of proportion.
func checkBody(t *testing.T, body []byte) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	put, putErr := decodePut(body)
	ops, batchErr := decodeBatch(body)
	br, branchErr := decodeBranch(body)
	mg, mergeErr := decodeMerge(body)
	runtime.ReadMemStats(&after)
	// The costliest input byte is one of a three-byte "{}," op: a
	// 104-byte slot in an ops slice grown by doubling.
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<16+160*len(body)); got > limit {
		t.Fatalf("%d-byte body allocated %d bytes (limit %d)", len(body), got, limit)
	}

	var wantPut putBody
	if agree(t, "put", body, putErr, &wantPut) {
		if diff := diffPut(put, wantPut); diff != "" {
			t.Fatalf("put %q: %s", body, diff)
		}
	}
	var wantBatch batchBody
	if agree(t, "batch", body, batchErr, &wantBatch) {
		if (ops == nil) != (wantBatch.Ops == nil) || len(ops) != len(wantBatch.Ops) {
			t.Fatalf("batch %q: %d ops (nil %v), want %d (nil %v)",
				body, len(ops), ops == nil, len(wantBatch.Ops), wantBatch.Ops == nil)
		}
		for i, op := range ops {
			want := wantBatch.Ops[i]
			diff := diffPut(op.putReq, want.putBody)
			if op.key != want.Key || op.branch != want.Branch || diff != "" {
				t.Fatalf("batch %q: op %d is %q on %q (%s), want %q on %q",
					body, i, op.key, op.branch, diff, want.Key, want.Branch)
			}
		}
	}
	var wantBranch branchBody
	if agree(t, "branch", body, branchErr, &wantBranch) && (br != branchReq{wantBranch.New, wantBranch.From}) {
		t.Fatalf("branch %q: %+v, want %+v", body, br, wantBranch)
	}
	var wantMerge mergeBody
	if agree(t, "merge", body, mergeErr, &wantMerge) &&
		(mg != mergeReq{wantMerge.Into, wantMerge.From, wantMerge.Resolve, wantMerge.Message}) {
		t.Fatalf("merge %q: %+v, want %+v", body, mg, wantMerge)
	}
}

// agree decodes body into want with encoding/json, fails t unless the
// decoder's err says the same (accepted or refused), and reports whether
// both accepted it.
func agree(t *testing.T, shape string, body []byte, err error, want any) bool {
	t.Helper()
	werr := json.NewDecoder(bytes.NewReader(body)).Decode(want)
	if (err == nil) != (werr == nil) {
		t.Fatalf("%s %q: decoder says %v, encoding/json %v", shape, body, err, werr)
	}
	return err == nil
}

// diffPut describes how p differs from the oracle's b, "" when it does not.
func diffPut(p putReq, b putBody) string {
	var entries map[string]string
	if p.entries != nil {
		entries = map[string]string{}
		for _, e := range *p.entries {
			entries[string(e.Key)] = string(e.Val)
		}
	}
	switch {
	case p.kind != b.Kind || p.value != b.Value:
		return "kind " + p.kind + " value " + p.value
	case !reflect.DeepEqual(entries, b.Entries):
		return "entries differ"
	case !reflect.DeepEqual(p.items, b.Items):
		return "items differ"
	case !reflect.DeepEqual(p.meta, b.Meta):
		return "meta differs"
	}
	return ""
}
