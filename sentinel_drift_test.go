package whilepar

// Sentinel-drift guard: every exported Err* sentinel declared in
// internal/core and internal/cancel must be re-exported by the facade
// (run.go), and each facade re-export must alias the internal variable
// (ErrX = core.ErrX / cancel.ErrX), so a sentinel added to an internal
// package cannot silently stay unreachable from the public API.  The
// check parses the source with go/parser instead of reflecting over the
// package, so it catches drift even for sentinels nothing else
// references.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// errVarsDeclared parses every .go file (tests excluded) in dir and
// returns the exported Err* identifiers declared at package level.
func errVarsDeclared(t *testing.T, dir string) map[string]bool {
	t.Helper()
	out := map[string]bool{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, s := range gd.Specs {
				vs, ok := s.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, id := range vs.Names {
					if strings.HasPrefix(id.Name, "Err") && ast.IsExported(id.Name) {
						out[id.Name] = true
					}
				}
			}
		}
	}
	return out
}

// facadeAliases parses run.go and returns, for each package-level
// ErrX = pkg.ErrY assignment, the right-hand "pkg.ErrY" selector text.
func facadeAliases(t *testing.T) map[string]string {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "run.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, d := range f.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			continue
		}
		for _, s := range gd.Specs {
			vs, ok := s.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, id := range vs.Names {
				if !strings.HasPrefix(id.Name, "Err") || i >= len(vs.Values) {
					continue
				}
				sel, ok := vs.Values[i].(*ast.SelectorExpr)
				if !ok {
					continue
				}
				pkg, ok := sel.X.(*ast.Ident)
				if !ok {
					continue
				}
				out[id.Name] = fmt.Sprintf("%s.%s", pkg.Name, sel.Sel.Name)
			}
		}
	}
	return out
}

func TestFacadeReExportsEveryInternalSentinel(t *testing.T) {
	aliases := facadeAliases(t)
	for dir, pkg := range map[string]string{
		"internal/core":   "core",
		"internal/cancel": "cancel",
	} {
		for name := range errVarsDeclared(t, dir) {
			got, ok := aliases[name]
			if !ok {
				t.Errorf("%s.%s is not re-exported by run.go; add `%s = %s.%s`",
					pkg, name, name, pkg, name)
				continue
			}
			if want := pkg + "." + name; got != want {
				t.Errorf("facade %s aliases %s, want %s", name, got, want)
			}
		}
	}
}

func TestFacadeSentinelsAliasRealDeclarations(t *testing.T) {
	// The inverse direction: a facade alias must point at a sentinel
	// that still exists in the internal package it names, so renaming
	// or deleting an internal sentinel cannot leave a dangling doc
	// reference... the compiler already enforces existence, but this
	// keeps the alias's name equal to its target's (no silent
	// ErrFoo = core.ErrBar remapping).
	declared := map[string]map[string]bool{
		"core":   errVarsDeclared(t, "internal/core"),
		"cancel": errVarsDeclared(t, "internal/cancel"),
	}
	for name, target := range facadeAliases(t) {
		parts := strings.SplitN(target, ".", 2)
		if len(parts) != 2 {
			continue
		}
		pkg, sym := parts[0], parts[1]
		if vars, ok := declared[pkg]; ok {
			if !vars[sym] {
				t.Errorf("facade %s aliases %s, which %s does not declare", name, target, pkg)
			}
			if sym != name {
				t.Errorf("facade %s aliases a differently-named sentinel %s", name, target)
			}
		}
	}
}

// typeDoc parses file and returns the doc comment of the named type.
func typeDoc(t *testing.T, file, name string) string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range f.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok || gd.Tok != token.TYPE {
			continue
		}
		for _, s := range gd.Specs {
			if ts := s.(*ast.TypeSpec); ts.Name.Name == name {
				if ts.Doc != nil {
					return ts.Doc.Text()
				}
				return gd.Doc.Text()
			}
		}
	}
	t.Fatalf("%s declares no type %s", file, name)
	return ""
}

// The *Iter a body receives is its worker's slot, re-armed for that
// worker's next iteration: a body that retains it across calls reads
// another iteration's index and tracker.  The contract lives in the doc
// comments of the body types (the facade's Iter and ListBody alias
// them), and this pins it there.
func TestBodyDocsStateTheIterLifetime(t *testing.T) {
	for _, c := range []struct{ file, typ string }{
		{"internal/loopir/loop.go", "Body"},
		{"internal/loopir/loop.go", "Iter"},
		{"internal/genrec/genrec.go", "Body"},
	} {
		doc := strings.Join(strings.Fields(typeDoc(t, c.file, c.typ)), " ")
		for _, want := range []string{"valid only for the duration of the", "must not be retained"} {
			if !strings.Contains(doc, want) {
				t.Errorf("%s: the doc comment of %s does not say the *Iter %q", c.file, c.typ, want)
			}
		}
	}
}
