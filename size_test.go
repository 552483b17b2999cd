package forkbase_test

import (
	"bytes"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var updateSize = flag.Bool("update", false, "rewrite testdata/size.golden from the tree")

const sizeGolden = "testdata/size.golden"

// TestSizeGolden records the non-test Go lines of each directory outside
// benchmark/ in testdata/size.golden, so a change's growth or shrinkage
// shows in its diff.  It counts what `find . -name '*.go' ! -name
// '*_test.go' -not -path './benchmark/*' | xargs cat | wc -l` counts (the
// fixtures under testdata included), less hidden directories, which the go
// tool ignores too.  It records and never caps: -update rewrites the file.
func TestSizeGolden(t *testing.T) {
	lines := map[string]int{}
	total := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || path == "benchmark") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		n := bytes.Count(src, []byte("\n"))
		lines[filepath.ToSlash(filepath.Dir(path))] += n
		total += n
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	dirs := make([]string, 0, len(lines))
	for dir := range lines {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)
	var b strings.Builder
	b.WriteString("# Non-test Go lines per directory outside benchmark/ (TestSizeGolden).\n")
	b.WriteString("# Rewrite with: go test -run TestSizeGolden -update .\n")
	fmt.Fprintf(&b, "total %d\n", total)
	for _, dir := range dirs {
		fmt.Fprintf(&b, "%s %d\n", dir, lines[dir])
	}
	got := b.String()
	if *updateSize {
		if err := os.WriteFile(sizeGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(sizeGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("non-test line counts differ from %s (run with -update to record them):\n%s", sizeGolden, lineDiff(string(want), got))
	}
}
