// Package setequal forbids == and != on values.Set, and on any struct or
// array that holds one. A Set is a pointer to immutable sorted data, so ==
// compares storage: two equal sets built apart compare unequal. Equality of
// sets is Set.Equal, and of payloads their fingerprints.
package setequal

import (
	"go/ast"
	"go/token"
	"go/types"

	"anonconsensus/tools/detlint/analysis"
	"anonconsensus/tools/detlint/detcfg"
)

const setPkg = "anonconsensus/internal/values"

var Analyzer = &analysis.Analyzer{
	Name: "setequal",
	Doc: "forbid == and != on values.Set and on values that hold one\n\n" +
		"== on a Set compares storage, not members; use Set.Equal, or\n" +
		"annotate //detlint:setequal <reason>.",
	Run: run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	ex := detcfg.Collect(pass.Fset, pass.Files)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || be.Op != token.EQL && be.Op != token.NEQ {
				return true
			}
			for _, x := range []ast.Expr{be.X, be.Y} {
				t := pass.TypesInfo.TypeOf(x)
				if t == nil || !holdsSet(t, map[types.Type]bool{}) {
					continue
				}
				if !detcfg.Suppressed(pass, ex, be.OpPos, "setequal") {
					pass.Reportf(be.OpPos, "%s on %s compares a values.Set's storage, not its members; use Set.Equal or annotate //detlint:setequal <reason>",
						be.Op, types.TypeString(t, types.RelativeTo(pass.Pkg)))
				}
				break
			}
			return true
		})
	}
	return nil, nil
}

// holdsSet reports whether t is values.Set or a struct or array holding one.
func holdsSet(t types.Type, seen map[types.Type]bool) bool {
	if seen[t] {
		return false
	}
	seen[t] = true
	if n, ok := t.(*types.Named); ok {
		if o := n.Obj(); o.Pkg() != nil && o.Pkg().Path() == setPkg && o.Name() == "Set" {
			return true
		}
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := range u.NumFields() {
			if holdsSet(u.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Array:
		return holdsSet(u.Elem(), seen)
	}
	return false
}
