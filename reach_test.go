package forkbase_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachAllow names every exported identifier that no non-test code of the
// module references, with the reason it stays, except the public API's:
// those have their reasons in testdata/api.golden (see TestPublicAPI).  A
// name is "path.Name" or "path.Type.Method", the path relative to the module
// ("forkbase" for the root package); a whole file ("forkbase.go") or package
// ("internal/chaos") covers every unreached identifier declared in it.  Each entry must cover
// exactly n unreached identifiers (a name covers one), so an entry that is
// reached, renamed or deleted fails the guard as an unlisted one does.
var reachAllow = []reachEntry{
	{name: "internal/access.Controller.AddSuperuser", reason: "public API: forkbase.DB.ACL hands out the controller, and no other call makes a superuser"},
	{name: "internal/access.Controller.Revoke", reason: "public API: forkbase.DB.ACL hands out the controller, and no other call takes a grant back"},
	{name: "internal/access.Controller.Grants", reason: "public API: forkbase.DB.ACL hands out the controller, and no other call lists a user's grants"},
	{name: "internal/access.Controller.Users", reason: "public API: forkbase.DB.ACL hands out the controller, and no other call lists the users"},

	{name: "internal/rest.Handler.ServeHTTP", reason: "http.Handler: net/http calls it"},
	{name: "internal/cli.multiFlag.Set", reason: "flag.Value: package flag calls it"},
	{name: "internal/core.noCopy.Lock", reason: "sync.Locker: go vet's copylocks check looks for it"},
	{name: "internal/core.noCopy.Unlock", reason: "sync.Locker: go vet's copylocks check looks for it"},

	{name: "internal/chaos", n: 10, reason: "test support: the fault-injection harness the soak and recovery tests drive"},
	{name: "internal/store.MaliciousStore.Forge", reason: "test support: the tamper tests' attack"},
	{name: "internal/store.MaliciousStore.AttackCount", reason: "test support: the tamper tests' attack count"},
	{name: "internal/store.FileStore.SetCrashHook", reason: "test support: the crash-recovery matrix's crash points"},
	{name: "internal/hash.Digests", reason: "test support: the store and sink tests' reference digests"},
	{name: "internal/store.MustPut", reason: "test support: the core tests plant hand-built chunks with it"},
	{name: "internal/store.MemStore.IDs", reason: "test support: tests list the chunks to tamper with or count"},
	{name: "internal/store.MemStore.Delete", reason: "test support: tests lose a chunk with it"},
	{name: "internal/store.FileStore.IDs", reason: "test support: tests list the chunks to tamper with or count"},
	{name: "internal/store.FileStore.DiskBytes", reason: "test support: the GC and heal tests measure reclaimed disk with it"},
	{name: "internal/chunker.SmallConfig", reason: "test support: the small chunk geometry tests across the module build deep trees with"},
	{name: "internal/fnode.FNode.Save", reason: "test support: the fnode, store and core tests save one hand-built FNode"},
	{name: "internal/server.Client.MaxBlock", reason: "test support: the deadline budget the chaos tests hold client ops to"},

	{name: "internal/pos.Tree.Entries", reason: "test oracle: the entry list the map tests compare against"},
	{name: "internal/pos.Tree.Insert", reason: "test oracle: the one-entry edit the map tests compare against"},
	{name: "internal/pos.Seq.Items", reason: "test oracle: the item list the list tests compare against"},
	{name: "internal/pos.Blob.ReadAt", reason: "test oracle: the random read the blob tests compare against"},

	{name: "internal/core.BranchTable.CompareAndSet", reason: harness},
	{name: "internal/core.HeadTable.CompareAndSet", reason: harness},
	{name: "internal/core.FeedTable.CompareAndSet", reason: harness},
	{name: "internal/server.Client.CompareAndSet", reason: harness},
	{name: "internal/server.NewRemoteStore", reason: harness},
	{name: "internal/server.NewRemoteBranchTable", reason: harness},
	{name: "internal/pos.Tree.IterateFrom", reason: harness},
	{name: "internal/mpt.Trie.IterateFrom", reason: harness},
	{name: "internal/repl.NewLocalSource", reason: harness},
	{name: "internal/repl.Source.Pin", reason: harness},
	{name: "internal/repl.Source.Unpin", reason: harness},
	{name: "internal/repl.LocalSource.Pin", reason: harness},
	{name: "internal/repl.LocalSource.Unpin", reason: harness},
	{name: "internal/repl.RemoteSource.Pin", reason: harness},
	{name: "internal/repl.RemoteSource.Unpin", reason: harness},
	{name: "internal/rest.Handler.WithScrubber", reason: harness},
	{name: "internal/store.BatchStore", reason: harness},
	{name: "internal/store.BatchReadStore", reason: harness},
	{name: "internal/store.PutBatch", reason: harness},
	{name: "internal/store.GetBatch", reason: harness},
	{name: "internal/store.HasBatch", reason: harness},
	{name: "internal/store.FileStore.Flush", reason: harness},
	{name: "internal/chunker.NewByteChunker", reason: harness},
}

// harness is the reason for names only the benchmark harness calls: it is a
// module of its own under benchmark/, so the scan does not see its calls.
const harness = "the benchmark harness calls it"

type reachEntry struct {
	name   string
	n      int
	reason string
}

// TestEveryExportHasACaller type-checks every non-test package of the
// module and fails on an exported identifier that no non-test code
// references and neither reachAllow nor the public API's reasons name, on
// an entry that does not cover what it claims, and on a name both list.
func TestEveryExportHasACaller(t *testing.T) {
	s, err := moduleScan()
	if err != nil {
		t.Fatal(err)
	}
	public, err := goldenAllow(s)
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, e := range public {
		listed[e.name] = true
	}
	for _, e := range reachAllow {
		if listed[e.name] {
			t.Errorf("%s: allowlisted and given a reason in %s; keep one", e.name, apiGolden)
		}
	}
	for _, p := range s.audit(append(public, reachAllow...)) {
		t.Error(p)
	}
}

// TestReachScanFixture runs the scan over testdata/reach, a module whose
// unreached exports are known, so the guard cannot stop aiming at anything
// without failing.
func TestReachScanFixture(t *testing.T) {
	s, err := scanExports(filepath.Join("testdata", "reach"))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a.Box.Put", "a.Shape.Perimeter", "a.Spare", "a.Square.Perimeter", "a.Unused"}
	if got := s.unreached(); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("unreached = %v, want %v", got, want)
	}
	full := []reachEntry{
		{name: "a/a.go", n: 4, reason: "r"},
		{name: "a.Box.Put", reason: "r"},
	}
	if p := s.audit(full); len(p) != 0 {
		t.Fatalf("a complete allowlist fails: %v", p)
	}
	for _, c := range []struct {
		name  string
		allow []reachEntry
		want  string
	}{
		{"unlisted export", full[:1], "a.Box.Put: exported, unreached and not allowlisted (a/box.go)"},
		{"entry naming nothing", append(full, reachEntry{name: "a.Gone", reason: "r"}), "a.Gone: allowlisted but names nothing"},
		{"entry naming a reached export", append(full, reachEntry{name: "a.New", reason: "r"}), "a.New: allowlisted but reached"},
		{"group count off", []reachEntry{{name: "a/a.go", n: 5, reason: "r"}, full[1]}, "a/a.go: covers 4 unreached exports, allowlist says 5"},
		{"entry without a reason", []reachEntry{full[0], {name: "a.Box.Put"}}, "a.Box.Put: allowlisted without a reason"},
	} {
		if p := s.audit(c.allow); len(p) != 1 || p[0] != c.want {
			t.Errorf("%s: audit = %q, want [%q]", c.name, p, c.want)
		}
	}
}

// exportScan holds, for each exported identifier the scanned module's
// non-test code declares, the file declaring it (relative to the module
// root) and whether any non-test code references it, and each scanned
// package's type information by import path.
type exportScan struct {
	file    map[string]string
	reached map[string]bool
	pkgs    map[string]*types.Package
	module  string // the module path
}

// key is reachKey for an object of the scanned module.
func (s *exportScan) key(obj types.Object) string {
	return reachKey(obj, func(path string) string { return strings.TrimPrefix(path, s.module+"/") })
}

func (s *exportScan) unreached() []string {
	var out []string
	for k := range s.file {
		if !s.reached[k] {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// audit returns one line per unreached identifier no entry covers and per
// entry that does not cover exactly what it claims.
func (s *exportScan) audit(allow []reachEntry) []string {
	var problems []string
	unreached, covered := s.unreached(), map[string]bool{}
	for _, e := range allow {
		if e.reason == "" {
			problems = append(problems, e.name+": allowlisted without a reason")
		}
		if _, ok := s.file[e.name]; ok {
			if s.reached[e.name] {
				problems = append(problems, e.name+": allowlisted but reached")
			}
			covered[e.name] = true
			continue
		}
		n := 0
		for _, k := range unreached {
			if s.file[k] == e.name || strings.HasPrefix(k, e.name+".") {
				covered[k] = true
				n++
			}
		}
		switch {
		case n == 0:
			problems = append(problems, e.name+": allowlisted but names nothing")
		case n != e.n:
			problems = append(problems, fmt.Sprintf("%s: covers %d unreached exports, allowlist says %d", e.name, n, e.n))
		}
	}
	for _, k := range unreached {
		if !covered[k] {
			problems = append(problems, fmt.Sprintf("%s: exported, unreached and not allowlisted (%s)", k, s.file[k]))
		}
	}
	return problems
}

// scanExports type-checks every non-test package under dir (`go list
// ./...`), importing each dependency from the export data `go list -export`
// names.  An identifier is reached when some non-test code uses it; a use
// of a generic instance counts for its origin, and a method called through
// an interface reaches every method of that name.
func scanExports(dir string) (*exportScan, error) {
	cmd := exec.Command("go", "list", "-e", "-export", "-deps", "-json=ImportPath,Dir,GoFiles,Export,DepOnly,Module,Error", "./...")
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v", err)
	}
	type listed struct {
		ImportPath, Dir, Export string
		GoFiles                 []string
		DepOnly                 bool
		Module                  *struct{ Path, Dir string }
		Error                   *struct{ Err string }
	}
	var pkgs []listed
	export := map[string]string{}
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listed
		if err := dec.Decode(&p); err != nil {
			return nil, err
		}
		if p.Error != nil {
			return nil, fmt.Errorf("%s: %s", p.ImportPath, p.Error.Err)
		}
		export[p.ImportPath] = p.Export
		if !p.DepOnly {
			pkgs = append(pkgs, p)
		}
	}
	fset := token.NewFileSet()
	conf := types.Config{Importer: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(export[path])
	})}
	s := &exportScan{file: map[string]string{}, reached: map[string]bool{}, pkgs: map[string]*types.Package{}}
	var methods []string          // keys of the exported methods declared
	viaIface := map[string]bool{} // names of methods called through an interface
	for _, p := range pkgs {
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, 0)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
		pkg, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			return nil, err
		}
		s.pkgs[p.ImportPath], s.module = pkg, p.Module.Path
		declare := func(obj types.Object) {
			if !obj.Exported() {
				return
			}
			key := s.key(obj)
			rel, _ := filepath.Rel(p.Module.Dir, fset.Position(obj.Pos()).Filename)
			s.file[key] = filepath.ToSlash(rel)
			if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
				methods = append(methods, key)
			}
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			declare(obj)
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			if iface, ok := named.Underlying().(*types.Interface); ok {
				for i := 0; i < iface.NumExplicitMethods(); i++ {
					declare(iface.ExplicitMethod(i))
				}
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				declare(named.Method(i))
			}
		}
		for _, obj := range info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
					viaIface[fn.Name()] = true
				}
			}
			if obj.Pkg() != nil {
				s.reached[s.key(obj)] = true
			}
		}
	}
	for _, k := range methods {
		if viaIface[k[strings.LastIndex(k, ".")+1:]] {
			s.reached[k] = true
		}
	}
	return s, nil
}

// reachKey names obj as "path.Name" or "path.Type.Method", generic
// instances under their origin.
func reachKey(obj types.Object, trim func(string) string) string {
	key := trim(obj.Pkg().Path()) + "."
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if n, ok := t.(*types.Named); ok {
				key += n.Origin().Obj().Name() + "."
			}
		}
		return key + fn.Name()
	}
	return key + obj.Name()
}
