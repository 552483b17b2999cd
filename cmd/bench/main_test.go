package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantNames is everything cmd/bench may register: the paper's table and
// figures plus the three ablations.
var wantNames = []string{"table1", "fig2", "fig3", "fig4", "fig5", "fig6", "a1", "a2", "a3"}

func TestRegistryIsThePaperReproductions(t *testing.T) {
	got := expNames()
	want := append([]string{"all"}, wantNames...)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("registered experiments %v, want %v", got, want)
	}
}

func TestRunDispatch(t *testing.T) {
	allHeaders := []string{"TABLE I", "FIG 2", "FIG 3", "FIG 4", "FIG 5", "FIG 6", "ABLATION A1", "ABLATION A2", "ABLATION A3"}
	for _, tc := range []struct {
		name    string
		args    []string
		code    int
		headers []string // table headers the run must print, in order; none on failure
	}{
		{"known", []string{"-exp", "fig4", "-quick"}, 0, []string{"FIG 4"}},
		{"all", []string{"-quick"}, 0, allHeaders},
		{"unknown", []string{"-exp", "typo", "-quick"}, 2, nil},
		{"removed suite", []string{"-exp", "perf", "-quick"}, 2, nil},
		{"removed flag", []string{"-exp", "fig6", "-quick", "-json", "out.json"}, 2, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			if code := run(tc.args, &out); code != tc.code {
				t.Fatalf("run(%v) = %d, want %d\n%s", tc.args, code, tc.code, out.String())
			}
			var got []string
			for _, line := range strings.Split(out.String(), "\n") {
				if head, _, ok := strings.Cut(line, " — "); ok && head == strings.ToUpper(head) {
					got = append(got, head)
				}
			}
			if strings.Join(got, ",") != strings.Join(tc.headers, ",") {
				t.Errorf("run(%v) printed tables %v, want %v", tc.args, got, tc.headers)
			}
			if tc.code != 0 && out.Len() != 0 {
				t.Errorf("run(%v) failed but printed results:\n%s", tc.args, out.String())
			}
		})
	}
}

// TestDocsNameOnlyRegisteredExperiments is the doc-drift guard: every name
// that follows `-exp` in README, the CI workflow, the verify skill and the Go
// sources (the frozen benchmark/ aside) must be a registered experiment, and
// neither a retired per-suite JSON report nor a mention of one may come
// back.
func TestDocsNameOnlyRegisteredExperiments(t *testing.T) {
	root := filepath.Join("..", "..")
	registered := map[string]bool{}
	for _, n := range expNames() {
		registered[n] = true
	}
	expRE := regexp.MustCompile(`-exp[ =]+([A-Za-z0-9_|]+)`)
	reportRE := regexp.MustCompile(`BENCH_[0-9N]+`)

	if reports, _ := filepath.Glob(filepath.Join(root, "BENCH_*.json")); len(reports) != 0 {
		t.Errorf("retired report files are back at the repo root: %v", reports)
	}

	scan := func(path string) {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(b), "\n") {
			for _, m := range expRE.FindAllStringSubmatch(line, -1) {
				for _, name := range strings.Split(m[1], "|") {
					if !registered[name] {
						t.Errorf("%s:%d: `-exp %s` is not a registered experiment", path, i+1, name)
					}
				}
			}
			if m := reportRE.FindString(line); m != "" {
				t.Errorf("%s:%d: mentions retired report %s", path, i+1, m)
			}
		}
	}

	for _, rel := range []string{"README.md", ".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md"} {
		scan(filepath.Join(root, rel))
	}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "benchmark") {
			return filepath.SkipDir
		}
		if filepath.Ext(path) == ".go" {
			scan(path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
