package forkbase_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIRunListsNameRealTests: every alternative of a quoted -run pattern in
// the CI workflow matches some func Test… of the module, so a renamed or
// deleted test cannot silently drop out of the job that names it.
func TestCIRunListsNameRealTests(t *testing.T) {
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	var tests []string
	decl := regexp.MustCompile(`(?m)^func (Test\w*)\(`)
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		for _, m := range decl.FindAllSubmatch(src, -1) {
			tests = append(tests, string(m[1]))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	runs := regexp.MustCompile(`-run '([^']*)'`).FindAllSubmatch(ci, -1)
	if len(runs) == 0 {
		t.Fatal("no -run '…' list in the CI workflow: re-aim this test")
	}
	for _, run := range runs {
		for _, alt := range strings.Split(string(run[1]), "|") {
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Errorf("-run alternative %q: %v", alt, err)
				continue
			}
			found := false
			for _, name := range tests {
				if found = re.MatchString(name); found {
					break
				}
			}
			if !found {
				t.Errorf("-run alternative %q matches no func Test… in the module", alt)
			}
		}
	}
}
