package server

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strings"
	"testing"
)

// TestWireCallsCarryDeadlines is a vet-level guard over this package's
// source: the wire protocol must never gain a blocking call that can hang
// forever.  Two rules, enforced by AST walk over every non-test file:
//
//  1. no naked net.Dial — dialing must bound connection setup
//     (net.DialTimeout or a net.Dialer with Timeout);
//  2. any function that touches the wire — reads a frame with readFrame or
//     calls Write or WriteTo (in this package only ever on a connection, or
//     from a reply's vectored parts to one) — must also set a deadline
//     (SetDeadline / SetReadDeadline / SetWriteDeadline) in that same
//     function, so a stalled peer becomes a timeout, not a hang.
//
// The check is intentionally syntactic: it cannot prove the deadline
// covers the right conn, but it catches the regression that matters — a
// new code path moving frames over a socket with no deadline in sight.  It
// also fails when it finds no wire call at all: a rename of the helpers must
// re-aim this test, not disarm it.
func TestWireCallsCarryDeadlines(t *testing.T) {
	fset := token.NewFileSet()
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	wireCalls := 0
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatalf("parsing %s: %v", name, err)
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			var dials, codecs []token.Pos
			hasDeadline := false
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "readFrame" {
					codecs = append(codecs, call.Pos())
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				switch sel.Sel.Name {
				case "Dial":
					if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "net" {
						dials = append(dials, call.Pos())
					}
				case "Write", "WriteTo":
					codecs = append(codecs, call.Pos())
				case "SetDeadline", "SetReadDeadline", "SetWriteDeadline":
					hasDeadline = true
				}
				return true
			})
			for _, pos := range dials {
				t.Errorf("%s: naked net.Dial in %s — use net.DialTimeout (or a net.Dialer with Timeout)",
					fset.Position(pos), fn.Name.Name)
			}
			wireCalls += len(codecs)
			if !hasDeadline {
				for _, pos := range codecs {
					t.Errorf("%s: %s reads or writes the wire without setting any deadline in the same function",
						fset.Position(pos), fn.Name.Name)
				}
			}
		}
	}
	if wireCalls == 0 {
		t.Error("found no readFrame or Write call in the package: the lint is aimed at nothing")
	}
}
