package cli

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"forkbase"
)

// run executes the CLI against a shared file-backed directory so state
// persists across invocations, mimicking real usage.
func run(t *testing.T, dir string, args ...string) (string, string, int) {
	t.Helper()
	var out, errb bytes.Buffer
	code := Run(append([]string{"-dir", dir}, args...), &out, &errb)
	return out.String(), errb.String(), code
}

func TestPutGetFlow(t *testing.T) {
	dir := t.TempDir()
	out, errs, code := run(t, dir, "put", "greeting", "hello world")
	if code != 0 {
		t.Fatalf("put failed: %s", errs)
	}
	uid := strings.TrimSpace(out)
	if len(uid) != 52 {
		t.Fatalf("uid = %q", uid)
	}
	out, _, code = run(t, dir, "get", "greeting")
	if code != 0 || strings.TrimSpace(out) != "hello world" {
		t.Fatalf("get = %q (%d)", out, code)
	}
	out, _, code = run(t, dir, "get", "greeting", "-uid", uid)
	if code != 0 || strings.TrimSpace(out) != "hello world" {
		t.Fatalf("get -uid = %q (%d)", out, code)
	}
}

func TestBranchMergeDiffFlow(t *testing.T) {
	dir := t.TempDir()
	run(t, dir, "put", "obj", "base")
	out, errs, code := run(t, dir, "branch", "obj", "dev")
	if code != 0 || !strings.Contains(out, "branch dev created") {
		t.Fatalf("branch: %q %q", out, errs)
	}
	run(t, dir, "put", "obj", "dev-edit", "-branch", "dev")
	out, _, code = run(t, dir, "head", "obj", "dev")
	if code != 0 || len(strings.TrimSpace(out)) != 52 {
		t.Fatalf("head: %q", out)
	}
	out, _, code = run(t, dir, "latest", "obj")
	if code != 0 || !strings.Contains(out, "obj@dev seq=2") {
		t.Fatalf("latest: %q", out)
	}
	out, _, code = run(t, dir, "merge", "obj", "master", "dev")
	if code != 0 || !strings.Contains(out, "fast-forward") {
		t.Fatalf("merge: %q", out)
	}
	out, _, code = run(t, dir, "history", "obj")
	if code != 0 || len(strings.Split(strings.TrimSpace(out), "\n")) != 2 {
		t.Fatalf("history: %q", out)
	}
}

func TestImportExportStatDiff(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "in.csv")
	csv := "id,name\n1,ann\n2,bo\n3,cy\n"
	if err := os.WriteFile(csvPath, []byte(csv), 0o644); err != nil {
		t.Fatal(err)
	}
	out, errs, code := run(t, dir, "import", "people", csvPath)
	if code != 0 || !strings.Contains(out, "imported 3 rows") {
		t.Fatalf("import: %q %q", out, errs)
	}
	out, _, code = run(t, dir, "export", "people")
	if code != 0 || out != csv {
		t.Fatalf("export: %q", out)
	}
	out, _, code = run(t, dir, "stat", "people")
	if code != 0 || !strings.Contains(out, "rows:     3") {
		t.Fatalf("stat: %q", out)
	}

	// Branch, edit via import on the branch, then diff.
	run(t, dir, "branch", "people", "vendor")
	csv2 := "id,name\n1,ann\n2,bob\n4,dee\n"
	if err := os.WriteFile(csvPath, []byte(csv2), 0o644); err != nil {
		t.Fatal(err)
	}
	_, errs, code = run(t, dir, "import", "people", csvPath, "-branch", "vendor")
	if code != 0 {
		t.Fatalf("import branch: %q", errs)
	}
	out, _, code = run(t, dir, "diff", "people", "master", "vendor")
	if code != 0 {
		t.Fatalf("diff: %q", out)
	}
	if !strings.Contains(out, "~ 2") || !strings.Contains(out, "- 3") || !strings.Contains(out, "+ 4") {
		t.Fatalf("diff output: %q", out)
	}
}

func TestMetaRenameListStats(t *testing.T) {
	dir := t.TempDir()
	run(t, dir, "put", "k", "v", "-meta", "author=alice", "-meta", "tag=x")
	out, _, code := run(t, dir, "meta", "k")
	if code != 0 || !strings.Contains(out, "meta: author=alice") || !strings.Contains(out, "kind: string") {
		t.Fatalf("meta: %q", out)
	}
	run(t, dir, "branch", "k", "tmp")
	out, _, code = run(t, dir, "rename", "k", "tmp", "perm")
	if code != 0 || !strings.Contains(out, "renamed") {
		t.Fatalf("rename: %q", out)
	}
	out, _, code = run(t, dir, "list")
	if code != 0 || !strings.Contains(out, "k\t[master perm]") {
		t.Fatalf("list: %q", out)
	}
	out, _, code = run(t, dir, "stats")
	if code != 0 || !strings.Contains(out, "unique chunks") {
		t.Fatalf("stats: %q", out)
	}
}

func TestVerifyCommand(t *testing.T) {
	dir := t.TempDir()
	run(t, dir, "put", "k", "payload")
	out, _, code := run(t, dir, "verify", "k", "-deep")
	if code != 0 || !strings.Contains(out, "OK — content and history verified") {
		t.Fatalf("verify: %q", out)
	}
}

// TestVerifyCommandReportsMissing: a version the store does not hold is
// reported as missing, not as tampering, and fails the command.
func TestVerifyCommandReportsMissing(t *testing.T) {
	elsewhere, _, _ := run(t, t.TempDir(), "put", "k", "written to another directory")
	dir := t.TempDir()
	run(t, dir, "put", "k", "payload")
	out, _, code := run(t, dir, "verify", "k", "-uid", strings.TrimSpace(elsewhere))
	if code == 0 || !strings.Contains(out, "MISSING: ") || strings.Contains(out, "TAMPERED") {
		t.Fatalf("verify of an absent version: exit %d, %q", code, out)
	}
}

func TestErrorExitCodes(t *testing.T) {
	dir := t.TempDir()
	for _, args := range [][]string{
		{"get", "missing"},
		{"head", "missing"},
		{"nonsense"},
		{"merge", "a"},  // too few args
		{"branch", "a"}, // too few args
		{"put", "k", "v", "-meta", "malformed"},
	} {
		if _, _, code := run(t, dir, args...); code == 0 {
			t.Fatalf("args %v exited 0", args)
		}
	}
	// No command at all.
	var out, errb bytes.Buffer
	if code := Run(nil, &out, &errb); code == 0 {
		t.Fatal("empty invocation exited 0")
	}
	if !strings.Contains(errb.String(), "usage:") {
		t.Fatalf("no usage text: %q", errb.String())
	}
}

func TestImportAppend(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "in.csv")
	if err := os.WriteFile(csvPath, []byte("id,name\n1,ann\n2,bo\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, errs, code := run(t, dir, "import", "people", csvPath)
	if code != 0 {
		t.Fatalf("import: %q", errs)
	}
	// Bulk-upsert a delta into the existing dataset.
	if err := os.WriteFile(csvPath, []byte("id,name\n2,bobby\n3,cy\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, errs, code := run(t, dir, "import", "people", csvPath, "-append")
	if code != 0 || !strings.Contains(out, "appended to 3 rows") {
		t.Fatalf("append: %q %q", out, errs)
	}
	out, _, code = run(t, dir, "export", "people")
	if code != 0 || !strings.Contains(out, "bobby") || !strings.Contains(out, "3,cy") {
		t.Fatalf("export after append: %q", out)
	}
	// Two versions in history now.
	out, _, code = run(t, dir, "history", "people")
	if code != 0 || strings.Count(out, "\n") < 2 {
		t.Fatalf("history: %q", out)
	}
	// Appending to a missing dataset fails with a nonzero exit.
	if _, _, code := run(t, dir, "import", "ghost", csvPath, "-append"); code == 0 {
		t.Fatal("append to missing dataset succeeded")
	}
}

func TestGCCommand(t *testing.T) {
	dir := t.TempDir()
	run(t, dir, "put", "keep", "survivor")
	// Churn: data reachable only from a branch, then the branch goes away.
	if _, errs, code := run(t, dir, "put", "churn", strings.Repeat("garbage ", 200), "-branch", "tmp"); code != 0 {
		t.Fatalf("churn put: %s", errs)
	}
	out, errs, code := run(t, dir, "gc")
	if code != 0 {
		t.Fatalf("gc on file-backed store failed: %s", errs)
	}
	if !strings.Contains(out, "swept chunks: 0") {
		t.Fatalf("gc swept reachable data:\n%s", out)
	}
	// Deleting the only branch of churn orphans its chunks.
	db := openTestDB(t, dir)
	if err := db.DeleteBranch("churn", "tmp"); err != nil {
		t.Fatal(err)
	}
	db.Close()
	out, errs, code = run(t, dir, "gc")
	if code != 0 {
		t.Fatalf("gc failed: %s", errs)
	}
	if strings.Contains(out, "swept chunks: 0") || !strings.Contains(out, "reclaimed:") {
		t.Fatalf("gc reclaimed nothing after branch delete:\n%s", out)
	}
	if got, _, code := run(t, dir, "get", "keep"); code != 0 || strings.TrimSpace(got) != "survivor" {
		t.Fatalf("live data lost after gc: %q (%d)", got, code)
	}
}

// openTestDB opens the CLI's file-backed store directly, for state the
// command surface cannot reach (branch deletion).
func openTestDB(t *testing.T, dir string) *forkbase.DB {
	t.Helper()
	db, err := forkbase.Open(forkbase.FileBacked(dir))
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestRemoteFlow drives the CLI's -remote path against an in-process node:
// a put in one invocation is read back by the next, both over TCP.  A
// comma-separated list is a usage error, since a client dials one server.
func TestRemoteFlow(t *testing.T) {
	node := forkbase.MustOpen()
	defer node.Close()
	srv := node.NewServer(nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	remote := func(args ...string) (string, string, int) {
		var out, errb bytes.Buffer
		code := Run(append([]string{"-remote", addr}, args...), &out, &errb)
		return out.String(), errb.String(), code
	}

	out, errs, code := remote("put", "greeting", "hello over tcp")
	if code != 0 {
		t.Fatalf("put failed: %s", errs)
	}
	uid := strings.TrimSpace(out)
	if head, err := node.Head("greeting", ""); err != nil || head.String() != uid {
		t.Fatalf("node head = %v (%v), CLI printed %q", head, err, uid)
	}
	out, errs, code = remote("get", "greeting")
	if code != 0 || strings.TrimSpace(out) != "hello over tcp" {
		t.Fatalf("get = %q %q (%d)", out, errs, code)
	}

	// Two backends are refused by Open, not settled by the first flag seen.
	var errb bytes.Buffer
	if code := Run([]string{"-remote", addr, "-dir", t.TempDir(), "get", "greeting"}, io.Discard, &errb); code != 1 ||
		!strings.Contains(errb.String(), "at most one") {
		t.Fatalf("-remote with -dir exited %d (%q), want 1 and Open's one-backend error", code, errb.String())
	}
	errb.Reset()
	if code := Run([]string{"-remote", addr + "," + addr, "get", "greeting"}, io.Discard, &errb); code != 2 {
		t.Fatalf("two addresses exited %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "one server address") {
		t.Fatalf("usage error does not say one address is accepted: %q", errb.String())
	}
}
