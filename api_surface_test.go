package anonconsensus_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"slices"
	"strings"
	"testing"
)

// TestAPISurface pins the root package's public surface — every exported
// identifier with its kind, exported struct fields and interface methods
// included — against testdata/api_surface.txt, so a change that adds or
// removes a public entry point shows it in the diff ("one public entry
// point per capability" made checkable).
//
// Regenerate intentionally with: go test -run TestAPISurface -update .
func TestAPISurface(t *testing.T) {
	const golden = "testdata/api_surface.txt"
	got := strings.Join(apiSurface(t), "\n") + "\n"
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Log("api surface golden rewritten")
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("the public API surface changed; review it and regenerate with -update.\n%s", diffHint(string(want), got))
	}
}

// apiSurface parses the package's non-test sources and returns one sorted
// "kind Name" line per exported identifier.
func apiSurface(t *testing.T) []string {
	t.Helper()
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, e := range entries {
		if name := e.Name(); strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
	}
	var lines []string
	add := func(kind, name string) { lines = append(lines, kind+" "+name) }
	for _, file := range files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					add("func", d.Name.Name)
				} else if recv := receiverName(d.Recv.List[0].Type); ast.IsExported(recv) {
					add("method", recv+"."+d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.ValueSpec:
						for _, name := range s.Names {
							if name.IsExported() {
								add(d.Tok.String(), name.Name)
							}
						}
					case *ast.TypeSpec:
						if !s.Name.IsExported() {
							continue
						}
						add("type", s.Name.Name)
						switch typ := s.Type.(type) {
						case *ast.StructType:
							addMembers(add, "field", s.Name.Name, typ.Fields)
						case *ast.InterfaceType:
							addMembers(add, "method", s.Name.Name, typ.Methods)
						}
					}
				}
			}
		}
	}
	slices.Sort(lines)
	return lines
}

// addMembers lists the exported members (struct fields, interface methods,
// embedded types) of the named type.
func addMembers(add func(kind, name string), kind, owner string, members *ast.FieldList) {
	for _, m := range members.List {
		if len(m.Names) == 0 { // embedded
			if name := receiverName(m.Type); ast.IsExported(name) {
				add(kind, owner+"."+name)
			}
			continue
		}
		for _, name := range m.Names {
			if name.IsExported() {
				add(kind, owner+"."+name.Name)
			}
		}
	}
}

// receiverName unwraps *T, T[P] and pkg.T to the bare type name.
func receiverName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return receiverName(x.X)
	case *ast.IndexExpr:
		return receiverName(x.X)
	case *ast.SelectorExpr:
		return x.Sel.Name
	case *ast.Ident:
		return x.Name
	}
	return fmt.Sprintf("%T", e)
}
