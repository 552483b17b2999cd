package forkbase_test

import (
	"bytes"
	"flag"
	"fmt"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

var updateAPI = flag.Bool("update-api", false, "rewrite testdata/api.golden from the code")

// apiGolden is the checked-in record of package forkbase's public API.
const apiGolden = "testdata/api.golden"

// apiPreamble opens the golden file; the "# reason" lines follow it.
const apiPreamble = `# The public API of package forkbase, written by TestPublicAPI: one sorted
# line per exported name with its signature, the full method sets of the
# exported types (promoted methods included), and each alias's target with
# its methods and fields.  An API change shows up here as a diff; make it on
# purpose with: go test -run TestPublicAPI -update-api .
#
# A public name that no non-test code of the module calls stays only with a
# reason, one "# reason NAME: why" line each (fields are not audited), and
# TestEveryExportHasACaller takes these lines as its allowlist for them.
# TestPublicAPI fails on a missing reason and on a stale one; -update-api
# keeps the reasons as they are.
#
`

// moduleScan is the module's export scan, shared by the tests that need it.
var moduleScan = sync.OnceValues(func() (*exportScan, error) { return scanExports(".") })

// apiEntry is one line of the public-API record.
type apiEntry struct {
	name string       // "Open", "DB.Put", "Version.UID"
	line string       // the record's line
	obj  types.Object // the object it names
}

// listAPI returns the public API of the scanned module's root package: each
// exported package-level name; for a defined type its exported fields and
// the method set of its pointer; for an alias its target, printed through
// every alias so the record reads the same whether or not go/types
// materialises aliases, and the target's exported fields and methods.
// Types of the module's other packages print by their path relative to it.
func listAPI(s *exportScan) []apiEntry {
	pkg := s.pkgs[s.module]
	qual := func(p *types.Package) string {
		if p == pkg {
			return ""
		}
		return strings.TrimPrefix(p.Path(), s.module+"/")
	}
	str := func(t types.Type) string { return types.TypeString(unalias(t), qual) }
	var out []apiEntry
	add := func(name, line string, obj types.Object) { out = append(out, apiEntry{name, line, obj}) }
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if !obj.Exported() {
			continue
		}
		switch obj := obj.(type) {
		case *types.Const:
			add(name, fmt.Sprintf("const %s %s = %s", name, str(obj.Type()), obj.Val().ExactString()), obj)
		case *types.Var:
			add(name, fmt.Sprintf("var %s %s", name, str(obj.Type())), obj)
		case *types.Func:
			add(name, "func "+name+strings.TrimPrefix(str(obj.Type()), "func"), obj)
		case *types.TypeName:
			// An alias names its target, whose own lines follow; a defined
			// type names its kind, or its underlying type if not a struct or
			// interface.
			t := unalias(obj.Type())
			decl := str(t.Underlying())
			switch t.Underlying().(type) {
			case *types.Struct:
				decl = "struct"
			case *types.Interface:
				decl = "interface"
			}
			if obj.IsAlias() {
				decl = "= " + str(t)
			}
			add(name, "type "+name+" "+decl, obj)
			if st, ok := t.Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					if f := st.Field(i); f.Exported() {
						add(name+"."+f.Name(), fmt.Sprintf("field %s.%s %s", name, f.Name(), str(f.Type())), f)
					}
				}
			}
			ms := types.NewMethodSet(types.NewPointer(t))
			if types.IsInterface(t) {
				ms = types.NewMethodSet(t)
			}
			for i := 0; i < ms.Len(); i++ {
				fn := ms.At(i).Obj().(*types.Func)
				if !fn.Exported() {
					continue
				}
				sig := fn.Type().(*types.Signature)
				recv := name
				if _, ptr := sig.Recv().Type().(*types.Pointer); ptr {
					recv = "*" + name
				}
				add(name+"."+fn.Name(), fmt.Sprintf("method (%s) %s%s", recv, fn.Name(), strings.TrimPrefix(str(sig), "func")), fn)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].line < out[j].line })
	return out
}

// unalias returns t with every alias in it, however deep, replaced by its
// target, and with parameter names dropped from signatures.
func unalias(t types.Type) types.Type {
	switch t := unaliasTop(t).(type) {
	case *types.Pointer:
		return types.NewPointer(unalias(t.Elem()))
	case *types.Slice:
		return types.NewSlice(unalias(t.Elem()))
	case *types.Array:
		return types.NewArray(unalias(t.Elem()), t.Len())
	case *types.Map:
		return types.NewMap(unalias(t.Key()), unalias(t.Elem()))
	case *types.Chan:
		return types.NewChan(t.Dir(), unalias(t.Elem()))
	case *types.Signature:
		return types.NewSignatureType(nil, nil, nil, unaliasTuple(t.Params()), unaliasTuple(t.Results()), t.Variadic())
	default:
		return t
	}
}

func unaliasTuple(tu *types.Tuple) *types.Tuple {
	vars := make([]*types.Var, tu.Len())
	for i := range vars {
		vars[i] = types.NewParam(token.NoPos, nil, "", unalias(tu.At(i).Type()))
	}
	return types.NewTuple(vars...)
}

// apiReasonProblems returns one line per public name without a non-test
// caller that reasons does not name, and per reason that names no public
// name or one that non-test code calls.  Fields are not audited.
func apiReasonProblems(api []apiEntry, s *exportScan, reasons map[string]string) []string {
	var problems []string
	public := map[string]bool{}
	for _, e := range api {
		if v, ok := e.obj.(*types.Var); ok && v.IsField() {
			continue
		}
		public[e.name] = true
		reached := s.reached[s.key(e.obj)]
		switch _, ok := reasons[e.name]; {
		case !reached && !ok:
			problems = append(problems, e.name+": public, no non-test caller and no reason")
		case reached && ok:
			problems = append(problems, e.name+": has a reason but non-test code calls it")
		}
	}
	for name := range reasons {
		if !public[name] {
			problems = append(problems, name+": has a reason but is not public")
		}
	}
	sort.Strings(problems)
	return problems
}

// parseAPIReasons reads the "# reason NAME: why" lines of a golden file.
func parseAPIReasons(golden []byte) (map[string]string, error) {
	reasons := map[string]string{}
	for _, line := range strings.Split(string(golden), "\n") {
		rest, ok := strings.CutPrefix(line, "# reason ")
		if !ok {
			continue
		}
		name, why, ok := strings.Cut(rest, ": ")
		if !ok || why == "" {
			return nil, fmt.Errorf("malformed reason line %q", line)
		}
		if _, dup := reasons[name]; dup {
			return nil, fmt.Errorf("two reasons for %s", name)
		}
		reasons[name] = why
	}
	return reasons, nil
}

// renderAPI is the golden file for api with reasons.
func renderAPI(api []apiEntry, reasons map[string]string) []byte {
	var b bytes.Buffer
	b.WriteString(apiPreamble)
	names := make([]string, 0, len(reasons))
	for name := range reasons {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "# reason %s: %s\n", name, reasons[name])
	}
	b.WriteString("\n")
	for _, e := range api {
		b.WriteString(e.line + "\n")
	}
	return b.Bytes()
}

// goldenAllow turns the golden file's reasons into reachAllow entries for
// the objects they name.
func goldenAllow(s *exportScan) ([]reachEntry, error) {
	golden, err := os.ReadFile(apiGolden)
	if err != nil {
		return nil, err
	}
	reasons, err := parseAPIReasons(golden)
	if err != nil {
		return nil, err
	}
	var allow []reachEntry
	for _, e := range listAPI(s) {
		if why, ok := reasons[e.name]; ok {
			allow = append(allow, reachEntry{name: s.key(e.obj), reason: "public API (" + apiGolden + "): " + why})
		}
	}
	return allow, nil
}

// TestPublicAPI compares the facade's API with testdata/api.golden, and
// holds the file's reasons to the names no non-test code calls.
func TestPublicAPI(t *testing.T) {
	s, err := moduleScan()
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(apiGolden)
	if err != nil && !(*updateAPI && os.IsNotExist(err)) {
		t.Fatal(err)
	}
	reasons, err := parseAPIReasons(golden)
	if err != nil {
		t.Fatal(err)
	}
	api := listAPI(s)
	if got := renderAPI(api, reasons); !bytes.Equal(got, golden) {
		if !*updateAPI {
			t.Errorf("the public API differs from %s (run with -update-api if the change is meant):\n%s", apiGolden, lineDiff(string(golden), string(got)))
		} else if err := os.WriteFile(apiGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range apiReasonProblems(api, s, reasons) {
		t.Errorf("%s: %s", apiGolden, p)
	}
}

// TestAPIListFixture runs the lister over testdata/api, a module with an
// embedded type and aliases, so the record keeps showing promoted methods
// and an alias target's methods and fields, and the reason audit keeps
// failing on a missing and on a stale reason.
func TestAPIListFixture(t *testing.T) {
	s, err := scanExports(filepath.Join("testdata", "api"))
	if err != nil {
		t.Fatal(err)
	}
	api := listAPI(s)
	var got []string
	for _, e := range api {
		got = append(got, e.line)
	}
	want := []string{
		"const Limit untyped int = 3",
		"field Handle.ID int",
		"field Outer.Label string",
		"func New(inner.Handle) *Outer",
		"method (*Outer) Close() error",
		"method (*Outer) Run(int) error",
		"method (Handle) String() string",
		"method (Outer) Name() string",
		"type Handle = inner.Handle",
		"type Outer struct",
		"var Default inner.Handle",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("listed:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	full := map[string]string{"Default": "r", "Limit": "r", "New": "r", "Outer.Close": "r", "Outer.Name": "r", "Outer.Run": "r"}
	if p := apiReasonProblems(api, s, full); len(p) != 0 {
		t.Fatalf("complete reasons fail: %v", p)
	}
	for _, c := range []struct {
		name string
		edit func(map[string]string)
		want string
	}{
		{"missing", func(m map[string]string) { delete(m, "Outer.Close") }, "Outer.Close: public, no non-test caller and no reason"},
		{"called", func(m map[string]string) { m["Handle.String"] = "r" }, "Handle.String: has a reason but non-test code calls it"},
		{"not public", func(m map[string]string) { m["Gone"] = "r" }, "Gone: has a reason but is not public"},
	} {
		reasons := map[string]string{}
		for k, v := range full {
			reasons[k] = v
		}
		c.edit(reasons)
		if p := apiReasonProblems(api, s, reasons); len(p) != 1 || p[0] != c.want {
			t.Errorf("%s: problems %q, want [%q]", c.name, p, c.want)
		}
	}
}
