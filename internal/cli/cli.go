// Package cli implements the forkbase command-line interface — the
// "Command Line scripting" entry point of the paper's Fig 1, exposing the
// full operation set: Put Get List Branch Merge Diff Head Latest Meta
// Rename Stat Export Verify History.
package cli

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"

	"forkbase"
	"forkbase/internal/index"
	"forkbase/internal/store"
	"forkbase/internal/value"
)

// Run executes a CLI invocation and returns a process exit code.
func Run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("forkbase", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", "", "file-backed data directory (default: in-memory)")
	remote := fs.String("remote", "", "address (host:port) of the forkbased server holding the data")
	indexKind := fs.String("index", "", "index structure for new composite values: pos|mpt (default pos)")
	fs.Usage = func() { usage(stderr, fs) }
	if err := fs.Parse(args); err != nil {
		return 2
	}
	rest := fs.Args()
	if len(rest) == 0 {
		usage(stderr, fs)
		return 2
	}

	// An empty flag is unset.  Every backend flag given goes to Open, whose
	// "at most one" rule refuses a pair.
	if strings.Contains(*remote, ",") {
		fmt.Fprintf(stderr, "forkbase: -remote accepts one server address, got %q\n", *remote)
		return 2
	}
	var opts []forkbase.Option
	if *remote != "" {
		opts = append(opts, forkbase.Remote(*remote))
	}
	if *dir != "" {
		opts = append(opts, forkbase.FileBacked(*dir))
	}
	if *indexKind != "" {
		k, err := index.ParseKind(*indexKind)
		if err != nil {
			fmt.Fprintf(stderr, "forkbase: %v\n", err)
			return 2
		}
		opts = append(opts, forkbase.WithIndex(k))
	}
	db, err := forkbase.Open(opts...)
	if err != nil {
		fmt.Fprintf(stderr, "forkbase: %v\n", err)
		return 1
	}
	defer db.Close()

	cmd, cmdArgs := rest[0], rest[1:]
	handler, ok := commands[cmd]
	if !ok {
		fmt.Fprintf(stderr, "forkbase: unknown command %q\n", cmd)
		usage(stderr, fs)
		return 2
	}
	if err := handler(db, cmdArgs, stdout); err != nil {
		fmt.Fprintf(stderr, "forkbase %s: %v\n", cmd, err)
		return 1
	}
	return 0
}

func usage(w io.Writer, fs *flag.FlagSet) {
	fmt.Fprintln(w, "usage: forkbase [-dir DIR | -remote ADDR] COMMAND [ARGS]")
	fmt.Fprintln(w, "\ncommands:")
	names := make([]string, 0, len(commands))
	for n := range commands {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-8s %s\n", n, commandHelp[n])
	}
	fmt.Fprintln(w, "\nflags:")
	fs.PrintDefaults()
}

type command func(db *forkbase.DB, args []string, out io.Writer) error

var commandHelp = map[string]string{
	"put":     "put KEY VALUE [-branch B] [-meta k=v ...]   write a string value",
	"get":     "get KEY [-branch B] [-uid UID]              read a value",
	"list":    "list                                        list keys",
	"branch":  "branch KEY NEW [FROM]                       fork a branch",
	"merge":   "merge KEY INTO FROM [-resolve ours|theirs]  three-way merge",
	"diff":    "diff KEY FROM TO                            differential query",
	"head":    "head KEY [BRANCH]                           branch head uid",
	"latest":  "latest KEY                                  newest version anywhere",
	"meta":    "meta KEY [-branch B]                        version metadata",
	"rename":  "rename KEY OLD NEW                          rename a branch",
	"stat":    "stat KEY [-branch B]                        dataset statistics",
	"export":  "export KEY [-branch B]                      dataset as CSV to stdout",
	"import":  "import KEY CSVFILE [-branch B] [-key COL] [-append]  CSV file as dataset (-append bulk-upserts into the existing one)",
	"history": "history KEY [-branch B] [-n N]              version chain",
	"verify":  "verify KEY [-uid UID] [-deep]               tamper validation",
	"stats":   "stats                                       store dedup accounting, health, feed lag",
	"metrics": "metrics [-addr HTTPADDR]                    metrics snapshot as JSON (local engine, or a node's /v1/metrics.json)",
	"gc":      "gc                                          collect unreachable chunks",
	"scrub":   "scrub                                       verify on-disk chunks, quarantine damage (-dir only)",
	"heal":    "heal -from ADDR                             refetch missing/corrupt chunks from a peer",
}

var commands = map[string]command{
	"put":     cmdPut,
	"get":     cmdGet,
	"list":    cmdList,
	"branch":  cmdBranch,
	"merge":   cmdMerge,
	"diff":    cmdDiff,
	"head":    cmdHead,
	"latest":  cmdLatest,
	"meta":    cmdMeta,
	"rename":  cmdRename,
	"stat":    cmdStat,
	"export":  cmdExport,
	"import":  cmdImport,
	"history": cmdHistory,
	"verify":  cmdVerify,
	"stats":   cmdStats,
	"metrics": cmdMetrics,
	"gc":      cmdGC,
	"scrub":   cmdScrub,
	"heal":    cmdHeal,
}

func cmdPut(db *forkbase.DB, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("put", flag.ContinueOnError)
	branch := fs.String("branch", "", "target branch")
	var metas multiFlag
	fs.Var(&metas, "meta", "k=v metadata (repeatable)")
	pos, err := parseArgs(fs, args, 2)
	if err != nil {
		return err
	}
	key, val := pos[0], pos[1]
	meta := map[string]string{}
	for _, m := range metas {
		k, v, ok := strings.Cut(m, "=")
		if !ok {
			return fmt.Errorf("bad -meta %q, want k=v", m)
		}
		meta[k] = v
	}
	ver, err := db.PutString(key, *branch, val, meta)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, ver.UID)
	return nil
}

func cmdGet(db *forkbase.DB, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("get", flag.ContinueOnError)
	branch := fs.String("branch", "", "branch")
	uidStr := fs.String("uid", "", "specific version uid")
	pos, err := parseArgs(fs, args, 1)
	if err != nil {
		return err
	}
	key := pos[0]
	var ver forkbase.Version
	if *uidStr != "" {
		uid, perr := parseHash(*uidStr)
		if perr != nil {
			return perr
		}
		ver, err = db.GetVersion(key, uid)
	} else {
		ver, err = db.Get(key, *branch)
	}
	if err != nil {
		return err
	}
	fmt.Fprintln(out, ver.Value.Display())
	return nil
}

func cmdList(db *forkbase.DB, args []string, out io.Writer) error {
	keys, err := db.ListKeys()
	if err != nil {
		return err
	}
	for _, k := range keys {
		branches, err := db.ListBranches(k)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%s\t[%s]\n", k, strings.Join(branches, " "))
	}
	return nil
}

func cmdBranch(db *forkbase.DB, args []string, out io.Writer) error {
	if len(args) < 2 || len(args) > 3 {
		return errors.New("usage: branch KEY NEW [FROM]")
	}
	from := ""
	if len(args) == 3 {
		from = args[2]
	}
	if err := db.Branch(args[0], args[1], from); err != nil {
		return err
	}
	uid, err := db.Head(args[0], args[1])
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "branch %s created at %s\n", args[1], uid)
	return nil
}

func cmdMerge(db *forkbase.DB, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("merge", flag.ContinueOnError)
	resolve := fs.String("resolve", "", "conflict resolution: ours|theirs")
	msg := fs.String("m", "", "merge message")
	p, err := parseArgs(fs, args, 3)
	if err != nil {
		return err
	}
	var resolver forkbase.Resolver
	switch *resolve {
	case "":
	case "ours":
		resolver = forkbase.ResolveOurs
	case "theirs":
		resolver = forkbase.ResolveTheirs
	default:
		return fmt.Errorf("bad -resolve %q", *resolve)
	}
	meta := map[string]string{}
	if *msg != "" {
		meta["message"] = *msg
	}
	res, err := db.Merge(p[0], p[1], p[2], resolver, meta)
	if err != nil {
		var ce *index.ErrConflict
		if errors.As(err, &ce) {
			for _, c := range ce.Conflicts {
				fmt.Fprintf(out, "CONFLICT %s: ours=%q theirs=%q base=%q\n", c.Key, c.A, c.B, c.Base)
			}
		}
		return err
	}
	if res.FastForward {
		fmt.Fprintf(out, "fast-forward to %s\n", res.Version.UID)
	} else {
		fmt.Fprintf(out, "merged as %s (changed keys: %d on %s, %d on %s)\n",
			res.Version.UID, res.Stats.DeltasA, p[1], res.Stats.DeltasB, p[2])
	}
	return nil
}

func cmdDiff(db *forkbase.DB, args []string, out io.Writer) error {
	if len(args) != 3 {
		return errors.New("usage: diff KEY FROM TO")
	}
	key, from, to := args[0], args[1], args[2]
	// Datasets get cell-level output; plain maps get key-level.
	if res, err := db.DiffDatasets(key, from, to); err == nil {
		for _, d := range res.Deltas {
			switch {
			case d.From == nil:
				fmt.Fprintf(out, "+ %s\t%s\n", d.Key, strings.Join(d.To, ","))
			case d.To == nil:
				fmt.Fprintf(out, "- %s\t%s\n", d.Key, strings.Join(d.From, ","))
			default:
				fmt.Fprintf(out, "~ %s", d.Key)
				for _, c := range d.Cells {
					fmt.Fprintf(out, "\t%s: %q -> %q", c.Column, c.From, c.To)
				}
				fmt.Fprintln(out)
			}
		}
		fmt.Fprintln(out, res.Summary())
		return nil
	}
	deltas, stats, err := db.DiffBranches(key, from, to)
	if err != nil {
		return err
	}
	for _, d := range deltas {
		switch d.Kind() {
		case index.Added:
			fmt.Fprintf(out, "+ %s\t%s\n", d.Key, d.To)
		case index.Removed:
			fmt.Fprintf(out, "- %s\t%s\n", d.Key, d.From)
		default:
			fmt.Fprintf(out, "~ %s\t%q -> %q\n", d.Key, d.From, d.To)
		}
	}
	fmt.Fprintf(out, "%d deltas (%d pages touched)\n", len(deltas), stats.TouchedChunks)
	return nil
}

func cmdHead(db *forkbase.DB, args []string, out io.Writer) error {
	if len(args) < 1 || len(args) > 2 {
		return errors.New("usage: head KEY [BRANCH]")
	}
	branch := ""
	if len(args) == 2 {
		branch = args[1]
	}
	uid, err := db.Head(args[0], branch)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, uid)
	return nil
}

func cmdLatest(db *forkbase.DB, args []string, out io.Writer) error {
	if len(args) != 1 {
		return errors.New("usage: latest KEY")
	}
	branch, ver, err := db.Latest(args[0])
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s@%s seq=%d %s\n", args[0], branch, ver.Seq, ver.UID)
	return nil
}

func cmdMeta(db *forkbase.DB, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("meta", flag.ContinueOnError)
	branch := fs.String("branch", "", "branch")
	pos, err := parseArgs(fs, args, 1)
	if err != nil {
		return err
	}
	ver, err := db.Get(pos[0], *branch)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "uid:  %s\nseq:  %d\nkind: %s\n", ver.UID, ver.Seq, ver.Value.Kind())
	if k := ver.Value.Kind(); k == value.KindMap || k == value.KindSet {
		fmt.Fprintf(out, "index: %s\n", ver.Value.IndexKind())
	}
	for _, b := range ver.Bases {
		fmt.Fprintf(out, "base: %s\n", b)
	}
	keys := make([]string, 0, len(ver.Meta))
	for k := range ver.Meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(out, "meta: %s=%s\n", k, ver.Meta[k])
	}
	return nil
}

func cmdRename(db *forkbase.DB, args []string, out io.Writer) error {
	if len(args) != 3 {
		return errors.New("usage: rename KEY OLD NEW")
	}
	if err := db.RenameBranch(args[0], args[1], args[2]); err != nil {
		return err
	}
	fmt.Fprintf(out, "renamed %s -> %s\n", args[1], args[2])
	return nil
}

func cmdStat(db *forkbase.DB, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("stat", flag.ContinueOnError)
	branch := fs.String("branch", "", "branch")
	pos, err := parseArgs(fs, args, 1)
	if err != nil {
		return err
	}
	ds, err := db.OpenDataset(pos[0], *branch)
	if err != nil {
		return err
	}
	st, err := ds.Stat()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "dataset:  %s@%s\nrows:     %d\ncolumns:  %d\nversions: %d\nindex:    %s\n",
		st.Name, st.Branch, st.Rows, st.Columns, st.Versions, st.Index)
	fmt.Fprintf(out, "tree:     height=%d nodes=%d leaf-bytes=%d avg-leaf=%.0f\n",
		st.Tree.Height, st.Tree.Nodes, st.Tree.LeafBytes, st.Tree.AvgLeaf())
	return nil
}

func cmdExport(db *forkbase.DB, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("export", flag.ContinueOnError)
	branch := fs.String("branch", "", "branch")
	pos, err := parseArgs(fs, args, 1)
	if err != nil {
		return err
	}
	ds, err := db.OpenDataset(pos[0], *branch)
	if err != nil {
		return err
	}
	return ds.ExportCSV(out)
}

func cmdImport(db *forkbase.DB, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("import", flag.ContinueOnError)
	branch := fs.String("branch", "", "branch")
	keyCol := fs.String("key", "id", "primary key column")
	appendRows := fs.Bool("append", false, "bulk-upsert rows into the existing dataset instead of creating a fresh version from scratch")
	pos, err := parseArgs(fs, args, 2)
	if err != nil {
		return err
	}
	f, err := os.Open(pos[1])
	if err != nil {
		return err
	}
	defer f.Close()
	if *appendRows {
		keySet := false
		fs.Visit(func(f *flag.Flag) { keySet = keySet || f.Name == "key" })
		if keySet {
			return errors.New("-key applies only to fresh imports; -append keys rows by the existing dataset schema")
		}
		cur, err := db.OpenDataset(pos[0], *branch)
		if err != nil {
			return err
		}
		ds, err := cur.AppendCSV(f, nil)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "appended to %d rows as %s\n", ds.Rows(), ds.Version().UID)
		return nil
	}
	ds, err := db.LoadCSVDataset(pos[0], *branch, *keyCol, f, nil)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "imported %d rows as %s\n", ds.Rows(), ds.Version().UID)
	return nil
}

func cmdHistory(db *forkbase.DB, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("history", flag.ContinueOnError)
	branch := fs.String("branch", "", "branch")
	n := fs.Int("n", 0, "limit")
	pos, err := parseArgs(fs, args, 1)
	if err != nil {
		return err
	}
	versions, err := db.History(pos[0], *branch, *n)
	if err != nil {
		return err
	}
	for _, v := range versions {
		msg := v.Meta["message"]
		fmt.Fprintf(out, "%s seq=%d %s %s\n", v.UID, v.Seq, v.Value.Kind(), msg)
	}
	return nil
}

func cmdVerify(db *forkbase.DB, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("verify", flag.ContinueOnError)
	uidStr := fs.String("uid", "", "version uid (default: master head)")
	deep := fs.Bool("deep", false, "verify full derivation history")
	pos, err := parseArgs(fs, args, 1)
	if err != nil {
		return err
	}
	key := pos[0]
	var uid forkbase.Hash
	if *uidStr != "" {
		var err error
		if uid, err = parseHash(*uidStr); err != nil {
			return err
		}
	} else {
		var err error
		if uid, err = db.Head(key, ""); err != nil {
			return err
		}
	}
	rep, err := db.VerifyVersion(key, uid, *deep)
	fmt.Fprintf(out, "uid:      %s\nchunks:   %d\nversions: %d\n", rep.UID, rep.ChunksChecked, rep.VersionsChecked)
	if err != nil {
		for _, f := range rep.Failures {
			label := "TAMPERED"
			switch {
			case errors.Is(f.Err, store.ErrNotFound):
				label = "MISSING"
			case errors.Is(f.Err, store.ErrUnavailable):
				label = "UNAVAILABLE"
			}
			fmt.Fprintf(out, "%s: %s (%s): %v\n", label, f.ChunkID, f.Context, f.Err)
		}
		return err
	}
	fmt.Fprintln(out, "status:   OK — content and history verified")
	return nil
}

func cmdStats(db *forkbase.DB, args []string, out io.Writer) error {
	s := db.Stats()
	fmt.Fprintf(out, "unique chunks:  %d\nphysical bytes: %d\nlogical bytes:  %d\ndedup ratio:    %.2fx\ndedup hits:     %d\nindex:          %s\n",
		s.UniqueChunks, s.PhysicalBytes, s.LogicalBytes, s.DedupRatio(), s.DedupHits, db.IndexKind())
	if err := db.StoreHealth(); err != nil {
		fmt.Fprintf(out, "health:         %v\n", err)
	} else {
		fmt.Fprintln(out, "health:         ok")
	}
	if vs := db.VerifyStats(); vs.Enabled {
		fmt.Fprintf(out, "verify cache:   %d hits / %d misses, %d hashes skipped\n",
			vs.Hits, vs.Misses, vs.SkippedHashes)
	} else {
		fmt.Fprintf(out, "verify cache:   off (%d hashes skipped by provenance)\n", vs.SkippedHashes)
	}
	if db.Following() {
		if lag, err := db.FeedLag(); err == nil {
			fmt.Fprintf(out, "feed lag:       %d\n", lag)
		} else {
			fmt.Fprintf(out, "feed lag:       unknown (%v)\n", err)
		}
	}
	return nil
}

// cmdMetrics prints a metrics snapshot as JSON: the local engine's registry
// by default, or — with -addr — a running node's /v1/metrics.json, so one
// verb inspects both embedded and daemon deployments.
func cmdMetrics(db *forkbase.DB, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("metrics", flag.ContinueOnError)
	addr := fs.String("addr", "", "REST address of a running node (fetches /v1/metrics.json)")
	if _, err := parseArgs(fs, args, 0); err != nil {
		return err
	}
	if *addr != "" {
		url := *addr
		if !strings.Contains(url, "://") {
			url = "http://" + url
		}
		resp, err := http.Get(strings.TrimSuffix(url, "/") + "/v1/metrics.json")
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("GET /v1/metrics.json: %s", resp.Status)
		}
		_, err = io.Copy(out, resp.Body)
		return err
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(db.Metrics().Snapshot())
}

func cmdGC(db *forkbase.DB, args []string, out io.Writer) error {
	stats, err := db.GC()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "live chunks:  %d\nswept chunks: %d\nswept bytes:  %d\nreclaimed:    %d bytes\n",
		stats.Live, stats.Swept, stats.SweptBytes, stats.ReclaimedBytes)
	if stats.CompactedSegments > 0 {
		fmt.Fprintf(out, "compacted:    %d segments (%d live chunks rewritten)\n",
			stats.CompactedSegments, stats.Relocated)
	}
	return nil
}

func cmdScrub(db *forkbase.DB, args []string, out io.Writer) error {
	st, err := db.Scrub()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "segments:     %d (%d bytes scanned)\nok chunks:    %d\ncorrupt:      %d\ntorn:         %d\nunreadable:   %d\n",
		st.Segments, st.ScannedBytes, st.Ok, st.Corrupt, st.Torn, st.Unreadable)
	if st.QuarantinedSegments > 0 {
		fmt.Fprintf(out, "quarantined:  %d segment(s), %d record(s) rescued\n", st.QuarantinedSegments, st.Rescued)
	}
	for _, id := range st.Lost {
		fmt.Fprintf(out, "lost:         %s\n", id)
	}
	if err := db.StoreHealth(); err != nil {
		fmt.Fprintf(out, "health:       %v\n", err)
		fmt.Fprintln(out, "run `forkbase heal -from ADDR` against a peer holding an intact copy")
	} else {
		fmt.Fprintln(out, "health:       ok")
	}
	return nil
}

func cmdHeal(db *forkbase.DB, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("heal", flag.ContinueOnError)
	from := fs.String("from", "", "forkbased peer address holding an intact copy")
	if _, err := parseArgs(fs, args, 0); err != nil {
		return err
	}
	if *from == "" {
		return errors.New("need -from ADDR")
	}
	st, err := db.HealFrom(*from)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "branches:     %d\nchecked:      %d\nmissing:      %d\ncorrupt:      %d\nrepaired:     %d (%d bytes fetched)\n",
		st.Branches, st.Checked, st.Missing, st.Corrupt, st.Repaired, st.BytesFetched)
	if err := db.StoreHealth(); err != nil {
		fmt.Fprintf(out, "health:       %v\n", err)
	} else {
		fmt.Fprintln(out, "health:       ok")
	}
	return nil
}

// --- helpers -----------------------------------------------------------------

type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(s string) error { *m = append(*m, s); return nil }

// parseArgs parses args allowing flags and positionals to be interspersed
// (the flag package stops at the first positional otherwise) and returns the
// positional arguments in order.
func parseArgs(fs *flag.FlagSet, args []string, minPos int) ([]string, error) {
	fs.SetOutput(io.Discard)
	var pos []string
	for {
		if err := fs.Parse(args); err != nil {
			return nil, err
		}
		if fs.NArg() == 0 {
			break
		}
		pos = append(pos, fs.Arg(0))
		args = fs.Args()[1:]
	}
	if len(pos) < minPos {
		return nil, fmt.Errorf("need at least %d argument(s)", minPos)
	}
	return pos, nil
}

func parseHash(s string) (forkbase.Hash, error) {
	return forkbase.ParseHash(s)
}
