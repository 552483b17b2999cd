package forkbase_test

import (
	"bufio"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestSourceGuards pins design decisions the compiler cannot see.  Each row
// names a line pattern, the paths searched for it (a directory is walked,
// except the one directory a row may name as its home; only non-test .go
// files count) and how many matching lines there must be — exactly, so a
// rename that leaves a guard aimed at nothing fails too.
func TestSourceGuards(t *testing.T) {
	for _, g := range []struct {
		name    string
		pattern string
		paths   []string
		except  string
		want    int
	}{{
		// The framed protocol replaced gob; nothing may bring it back as a
		// second codec.
		name:    "one wire codec",
		pattern: `"encoding/gob"`,
		paths:   []string{"."},
		want:    0,
	}, {
		// GC mark, verify, heal and replica sync are fetch functions under
		// fnode.Walk, whose edge rule (fnode.Refs) is the only caller of the
		// two structures' child decoders, one arm each; a second call site is
		// a second definition of what a version keeps reachable.
		name:    "one object-graph walk",
		pattern: `pos\.IndexChildren\(|mpt\.Children\(`,
		paths:   []string{"internal"},
		want:    2,
	}, {
		// The two index structures are a closed set picked in one switch
		// (value's build/load, fnode.Refs's edge rule): nothing registers
		// itself at init, so no import is made for its side effect.
		name:    "no init-time registration",
		pattern: `^func init\(|_ "forkbase/internal/`,
		paths:   []string{"."},
		want:    0,
	}, {
		// A publish pulls every head it sets in one post-order walk; a
		// per-head pull would bring back one fetch round per level per head
		// and the landing order that left holes under mixed-depth paths.
		name:    "one walk per publish",
		pattern: `\bsyncRoot\(`,
		paths:   []string{"internal"},
		want:    0,
	}, {
		// A replica's round trip is retried once, by server.Client; a sync
		// round that fails is retried by the follower's round backoff, and
		// the next pull resumes from what landed.  A retry loop inside the
		// walk would nest a third layer between the two.
		name:    "one retry layer per hop on the replica path",
		pattern: `\.Do\(`,
		paths:   []string{"internal/repl"},
		want:    0,
	}, {
		// A sink hashes on its producer's goroutine, and every build, edit,
		// diff and merge runs on its caller's, as does the verifier's batch
		// recheck: a server uses more cores by serving more requests, never
		// by a pool below one, and nothing in the index layer changes course
		// on GOMAXPROCS.
		name:    "one producer, no pool beneath it",
		pattern: `^\s*go |runtime\.GOMAXPROCS`,
		paths:   []string{"internal/store/sink.go", "internal/store/wrappers.go", "internal/pos", "internal/mpt", "internal/index"},
		want:    0,
	}, {
		// Chunk boundaries are the cyclic-polynomial rolling hash of package
		// rolling and nothing else: a second hash, or a setting that picks
		// one, is a second chunking that forfeits dedup against the first.
		name:    "one boundary hash",
		pattern: `Gear|\bAlgo\b`,
		paths:   []string{"internal"},
		want:    0,
	}, {
		// Map, list and blob leaves and every index level get their scanner
		// and its constants from pos.newLevelScan, so they cannot cut
		// differently.
		name:    "one scan constructor",
		pattern: `rolling\.NewScan\(`,
		paths:   []string{"internal"},
		want:    1,
	}, {
		// The byte-wise hasher backs only chunker.ByteChunker, the reference
		// form of the leaf cut; a product caller beside it is a second cutter.
		name:    "one cutter in the product",
		pattern: `rolling\.New\(`,
		paths:   []string{"internal"},
		want:    1,
	}, {
		// Heads live in the append-only journal; branches.json is only ever
		// read, to convert an older store, never written again.
		name:    "one heads format",
		pattern: `json\.Marshal`,
		paths:   []string{"internal/core/branches.go"},
		want:    0,
	}, {
		// A warm read skips its rehash only on the stamp the store keeps in
		// its own index entry; a second witness beside it, or a knob sizing
		// one, is a second answer to "were these bytes checked?".
		name:    "one verified-read witness",
		pattern: `VerifiedSet|VerifyCacheBytes|WithVerifyCache|NewVerifyingStoreCache`,
		paths:   []string{"internal", "forkbase.go"},
		want:    0,
	}, {
		// FileStore alone retires a verified stamp: a swept or lost id leaves
		// its index, compaction and quarantine move the placement epoch, and
		// Repair writes a fresh entry.  An engine hook unmarking beside it is
		// a second answer to "when does a stamp die?".
		name:    "one owner for the verified stamp",
		pattern: `\.Invalidate(All)?\(`,
		paths:   []string{"internal"},
		want:    0,
	}, {
		// Recovery, scrub, compaction and quarantine agree on what a segment
		// record is because recordAt is the only code that parses its
		// header; a second parser is a second answer to "where does this
		// segment stop making sense?".
		name:    "one segment-record decoder",
		pattern: `binary\.LittleEndian\.Uint32\(`,
		paths:   []string{"internal/store"},
		want:    1,
	}, {
		// The store's maintenance (recovery, compaction, scrub) and its sync
		// policy run on the caller's goroutine under f.mu; a worker pool or a
		// ticker here is a second schedule the crash matrix cannot see.
		name:    "no goroutines in FileStore",
		pattern: `^\s*go `,
		paths:   []string{"internal/store/file.go", "internal/store/scrub.go"},
		want:    0,
	}, {
		// An acknowledged segment write is in the OS, and every segment is
		// read through its mapping: an append buffer is a second, private
		// state a killed process loses, and a second read path for the
		// records still in it.
		name:    "one state for an acked write",
		pattern: `actBuf|actFlushed|getActive|bufio\.`,
		paths:   []string{"internal/store/file.go", "internal/store/scrub.go"},
		want:    0,
	}, {
		// One durability contract for segments and heads.log: an ack is in
		// the OS, rewrites fsync themselves, Close fsyncs both files.  A
		// per-ack fsync policy that covers the chunks and not the head
		// naming them buys no power-cut guarantee.
		name:    "one durability contract",
		pattern: `SyncAlways|SyncPolicy|groupSyncer|afterCommit`,
		paths:   []string{"internal", "cmd", "forkbase.go"},
		want:    0,
	}, {
		// POS nodes, MPT nodes and FNodes share the engine's one byte budget
		// (core.Options.NodeCacheBytes, built in core/db.go); a second cache
		// is a second budget and a second set of ids GC must purge.
		name:    "one decoded-node cache",
		pattern: `nodecache\.New\(`,
		paths:   []string{"internal"},
		want:    1,
	}, {
		// Deep verify, GC mark and heal read each version object's bytes
		// through fnode.Walk; fnode.Load may answer from the decoded-node
		// cache, which vouches for nothing about what the store holds now.
		name:    "verify reads bytes",
		pattern: `fnode\.Load\(`,
		paths:   []string{"internal/core/verify.go", "internal/core/gc.go", "internal/core/heal.go"},
		want:    0,
	}, {
		// GC is the one collection: one mark and sweep, fenced against
		// writers from mark to sweep, rewriting every sealed segment holding
		// garbage.  A ratio-gated pass, an unfenced mark or a sweep grace for
		// young chunks is a second collection with its own safety argument.
		name:    "one collection mode",
		pattern: `CompactEvery|CompactRatio|GenerationalCollector|GraceGenerations|minDeadRatio|graceSeg|WithAutoCompact|\.Compact\(\)`,
		paths:   []string{"internal", "cmd", "forkbase.go"},
		want:    0,
	}, {
		// Every engine operation, GC included, runs on its caller's
		// goroutine: the engine has no background schedule of its own, so
		// Close has nothing to stop.
		name:    "the engine starts no goroutine",
		pattern: `^\s*go `,
		paths:   []string{"internal/core"},
		want:    0,
	}, {
		// A commit's chunks reach the store in one PutBatch, and the put is
		// the only dedup and the only revalidation of a write's cache fill: a
		// presence check before or after it is a round trip per batch over
		// the wire.  The one call left is store.Nodes.Load's revalidation of
		// a node it fetched on a cache miss.
		name:    "one dedup, in the store's put",
		pattern: `\.Has(Batch)?\(`,
		paths:   []string{"internal/store/sink.go", "internal/store/nodecache.go"},
		want:    1,
	}, {
		// POS nodes, MPT nodes and FNodes are read and written through one
		// gateway, store.Nodes, so the rules that keep the decoded-node cache
		// coherent with GC are written once; a package reaching the cache
		// itself is a second copy of them.
		name:    "one node-cache protocol",
		pattern: `nodecache\.|NodeCacheOf\(`,
		paths:   []string{"internal/pos", "internal/mpt", "internal/fnode"},
		want:    0,
	}, {
		// An index's structure is recorded on its FNode or known to whoever
		// built the value; nothing reads a root chunk to guess it.
		name:    "no root sniff",
		pattern: `KindOfRoot|RegisterRoot`,
		paths:   []string{"internal"},
		want:    0,
	}, {
		// The FNode's trailing kind byte is the one record of a value's
		// structure: FNode.Value is the decoded value, which carries it, so
		// no caller stamps it, passes it as a hint or keeps a copy beside it.
		name:    "one record of a value's structure",
		pattern: `WithIndexKind|idxKnown|DecodedValue|kindOf\(`,
		paths:   []string{"internal"},
		want:    0,
	}, {
		// Dedup is the store's job; a setting that dedups above it is a second
		// answer to "is this chunk stored?".
		name:    "no dedup setting above the store",
		pattern: `Dedup\s+bool|\bDeduped\b|Dedup:\s*true`,
		paths:   []string{"internal"},
		want:    0,
	}, {
		// Heads move only through BranchTable.Apply: no per-op mutators on
		// the wire, no follower loop forcing heads one at a time, no REST
		// explanation of a partly committed batch.
		name:    "one head mutation",
		pattern: `forceSetHead|allStaleHead|OpCAS|OpDeleteBranch|OpRenameBranch`,
		paths:   []string{"internal"},
		want:    0,
	}, {
		// One write frame: every engine write runs in core's DB.write, which
		// holds the head table's GC fence read side (heal, not a write, holds
		// it too, and FeedTable.Apply and a remote writer's FeedTable.Commit
		// hold it for every other publisher) …
		name:    "one write frame: the fence",
		pattern: `fence\.RLock\(`,
		paths:   []string{"internal/core"},
		want:    4,
	}, {
		// … derives its version objects in one successor rule (a merge's
		// two-base FNode aside) …
		name:    "one write frame: the successor",
		pattern: `fnode\.New\(`,
		paths:   []string{"internal/core"},
		want:    2,
	}, {
		// … and publishes them with one Apply, through the fence it holds.
		name:    "one write frame: the publish",
		pattern: `heads\.apply\(`,
		paths:   []string{"internal/core"},
		want:    1,
	}, {
		// One collection rule: the GC fence and the collection clock belong
		// to the head table every publish passes through (core.FeedTable),
		// not to the engine, so TCP and follower Applies keep the rule too.
		name:    "one collection rule",
		pattern: `writeMu|gcClock`,
		paths:   []string{"internal/core"},
		want:    0,
	}, {
		// One POS node form: a decoded node is its payload plus a span table,
		// so the decode path builds no per-entry, per-ref or per-item structs …
		name:    "one POS node form: no per-element structs",
		pattern: `make\(\[\](childRef|Entry|\[\]byte)`,
		paths:   []string{"internal/pos/source.go", "internal/pos/encoding.go"},
		want:    0,
	}, {
		// … and the four per-type decoders that built them are test oracles.
		name:    "one POS node form: one decoder",
		pattern: `decodeMapLeaf|decodeMapIndex|decodeSeqLeaf|decodeSeqIndex`,
		paths:   []string{"internal/pos"},
		want:    0,
	}, {
		// forkbase.DB embeds the engine, so its operations are core.DB's
		// methods; a facade method of the same name is a forwarder to keep
		// in step, and Engine() an escape hatch to a type DB already is.
		name:    "the facade re-declares no engine operation",
		pattern: `func \(db \*DB\) (Put|WriteBatch|Get|GetVersion|IndexOf|IndexKind|Head|Latest|History|Branch|BranchFromVersion|DeleteBranch|RenameBranch|ListBranches|ListKeys|Diff|DiffBranches|Merge|EditMap|AppendList|SpliceBlob|GC|Scrub|StoreHealth|Stats|Metrics|Engine)\(`,
		paths:   []string{"forkbase.go"},
		want:    0,
	}, {
		// The engine, the chunk store and the TCP server meter their
		// operations with obs.Op: one place draws the 1-in-32 latency
		// sample (internal/obs/op.go), so a fix to sampling or to the
		// slow-op record is made once.
		name:    "one op meter",
		pattern: `\.Add\(1\)\s*&\s*\w+\s*==\s*1`,
		paths:   []string{"internal"},
		want:    1,
	}, {
		// Chunks travel only in batches: the single-chunk opcodes of wire
		// versions 1 and 2 are retired, and a single put, get or has is a
		// one-id batch.
		name:    "the wire speaks batches only",
		pattern: `OpPutChunk\b|OpGetChunk\b|OpHasChunk\b`,
		paths:   []string{"internal"},
		want:    0,
	}, {
		// One landing rule: every chunk a client sends lands through
		// core.FeedTable.Commit, which lands a carried chunk only when it is
		// complete or a fresh op's Set reaches it through carried chunks,
		// whatever the client sent, so every chunk a server holds was
		// complete when it landed.  A put the server lands in its store
		// directly is a second rule that check cannot see.
		name:    "one landing rule",
		pattern: `s\.st\.PutBatch\(`,
		paths:   []string{"internal/server"},
		want:    0,
	}, {
		// The server holds the whole landing rule, so a Remote client
		// polices nothing: its writers share one staging and build and
		// commit concurrently, with no lock that spans a write.
		name:    "a Remote client does not serialise its writers",
		pattern: `\.write\.(Lock|Unlock)\(|write\s+sync\.Mutex`,
		paths:   []string{"internal/server"},
		want:    0,
	}, {
		// A Remote engine runs over the server.Client itself, which is the
		// chunk store and the branch table it serves; an adapter type that
		// forwards each method into the client is a second home for its
		// staging, epoch and remembered heads.
		name:    "one Remote type",
		pattern: `type Remote(Store|BranchTable) struct`,
		paths:   []string{"internal/server"},
		want:    0,
	}, {
		// A chunk read inside a write answers what staging holds and asks
		// the server once for the rest, in one helper that GetChunks and
		// HasChunks share.
		name:    "staging answers reads in one place",
		pattern: `stage\.lookup\(`,
		paths:   []string{"internal/server"},
		want:    1,
	}, {
		// A node's TCP service is built from its DB (DB.NewServer), which
		// shares the DB's store, branch table, feed, registry and read-only
		// state; forkbased, the examples and the CLI do not wire a server
		// beside an engine by hand, so a fence between the two has one home.
		// Its two lines are the two constructors: New, and NewReadOnly for a
		// replica.
		name:    "one node assembly",
		pattern: `server\.New(ReadOnly)?\(`,
		paths:   []string{"cmd", "examples", "internal/cli", "forkbase.go"},
		want:    2,
	}, {
		// A Remote client runs the engine over one server's store and
		// branch table, and a replica follows one primary: every node
		// service (GC mark, sync, heal, deep verify) walks a version's
		// whole graph in one store, so no client-side layer splits that
		// graph across servers.  The three lines are Remote's and
		// WithFollow's dials in Open and HealFrom's dial of its peer.
		name:    "one server behind a Remote",
		pattern: `server\.Dial\(`,
		paths:   []string{"forkbase.go"},
		want:    3,
	}, {
		// A follower's lease on its feed cursor keeps what it pulls safe
		// from the primary's collector; per-head pins, two round trips a
		// head, do not come back beside it.
		name:    "no per-head pins",
		pattern: `PinHead|PinnedHeads|pins\s+map`,
		paths:   []string{"internal"},
		want:    0,
	}, {
		// A replica's REST API refuses writes because its engine is
		// read-only (core.DB.ReadOnly); the handler keeps no copy to set.
		name:    "REST keeps no read-only state",
		pattern: `readOnly`,
		paths:   []string{"internal/rest"},
		want:    0,
	}, {
		// Every JSON request body is read once and parsed by the one decoder
		// in internal/rest/body.go, which FuzzRequestBody holds to
		// encoding/json's answers; encoding/json only encodes responses, so
		// a route that decodes with it is a second reading of the same body.
		name:    "one request decoder",
		pattern: `json\.(NewDecoder|Unmarshal)\(`,
		paths:   []string{"internal/rest"},
		want:    0,
	}, {
		// internal/rest's route table says which methods each path answers
		// and which of them write; its dispatcher answers 405 and a
		// replica's 403 for every route.  The two lines reading the method
		// are the dispatcher's and the slow-request log's; a handler that
		// checks the method or the replica gate itself is a second table.
		name:    "one route table: the method",
		pattern: `r\.Method`,
		paths:   []string{"internal/rest"},
		want:    2,
	}, {
		name:    "one route table: the replica gate",
		pattern: `denyWrite|ReadOnly\(\)`,
		paths:   []string{"internal/rest"},
		want:    1,
	}, {
		// index.VersionedIndex is what the engine, the edges and the paper's
		// figures call.  Order statistics, positional diffs of lists and
		// blobs, delta replay and the other operations no product path
		// reached are gone, and do not come back beside the contract.
		name:    "the index contract is what the engine calls",
		pattern: `func \([a-z]+ \*(Tree|Trie)\) (At|Rank|RangeCount|Config|ApplyDeltas)\(|^func (DiffSeq|DiffBlob|NewEmpty(Tree|Seq|Blob)|Equal)\(`,
		paths:   []string{"internal"},
		want:    0,
	}, {
		// The index layer's vocabulary has one home, package index.  pos
		// names only the record and mutation types its builders and edits
		// are written in: Entry, Op, Put and Del.
		name:    "pos re-exports only Entry and Op",
		pattern: `^\s*(type\s+)?[A-Z]\w*\s+=\s+index\.`,
		paths:   []string{"internal/pos"},
		want:    4,
	}, {
		// Every binary encoding is read through internal/codec: Reader's
		// latching, count-bounded fields, and Uvarint's minimal-form rule, so
		// each accepted payload has one encoding.  A decoder that reads a
		// varint itself is a second set of bounds to get right.
		name:    "one bounded decoder",
		pattern: `binary\.(Uvarint|Varint)\(`,
		paths:   []string{"internal"},
		except:  "internal/codec",
		want:    0,
	}, {
		// A three-way merge is its two side diffs, its conflict pass and one
		// Apply.  Listing the merged index's chunks or reading the store's
		// counters costs what the table holds, not what the sides changed;
		// reuse is measured over chunk-id sets by the Fig 3 experiment.
		name:    "a merge costs what it changed",
		pattern: `\.ChunkIDs\(|\.Stats\(\)`,
		paths:   []string{"internal/index"},
		want:    0,
	}} {
		re := regexp.MustCompile(g.pattern)
		var hits []string
		for _, root := range g.paths {
			err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if d.IsDir() {
					if path != root && strings.HasPrefix(d.Name(), ".") || path == g.except {
						return filepath.SkipDir
					}
					return nil
				}
				if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
					return nil
				}
				f, err := os.Open(path)
				if err != nil {
					return err
				}
				defer f.Close()
				sc := bufio.NewScanner(f)
				sc.Buffer(nil, 1<<20)
				for n := 1; sc.Scan(); n++ {
					if re.MatchString(sc.Text()) {
						hits = append(hits, fmt.Sprintf("%s:%d: %s", path, n, sc.Text()))
					}
				}
				return sc.Err()
			})
			if err != nil {
				t.Errorf("%s: %v", g.name, err)
			}
		}
		if len(hits) != g.want {
			t.Errorf("%s: %d lines match %s, want %d:\n%s", g.name, len(hits), g.pattern, g.want, strings.Join(hits, "\n"))
		}
	}
}
