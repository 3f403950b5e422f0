package detcfg

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

func TestClassification(t *testing.T) {
	cases := []struct {
		path                    string
		det, live, internalPath bool
	}{
		{"anonconsensus/internal/sim", true, false, true},
		{"anonconsensus/internal/values", true, false, true},
		{"anonconsensus/internal/ordered", true, false, true},
		{"anonconsensus/internal/rounddriver", true, false, true},
		{"anonconsensus/internal/anonnet", false, true, true},
		{"anonconsensus/internal/tcpnet", false, true, true},
		{"anonconsensus/internal/netchaos", false, true, true},
		{"anonconsensus/internal/msemu", false, false, true},
		{"anonconsensus", false, false, false},
		{"anonconsensus/cmd/anonsim", false, false, false},
		{"anonconsensus/tools/detlint/load", false, false, false},
		// Classification is by the element after the last "internal", so
		// fixture paths impersonate real packages correctly.
		{"example.com/x/internal/sim", true, false, true},
	}
	for _, c := range cases {
		if got := Deterministic(c.path); got != c.det {
			t.Errorf("Deterministic(%q) = %v, want %v", c.path, got, c.det)
		}
		if got := LiveExempt(c.path); got != c.live {
			t.Errorf("LiveExempt(%q) = %v, want %v", c.path, got, c.live)
		}
		if got := Internal(c.path); got != c.internalPath {
			t.Errorf("Internal(%q) = %v, want %v", c.path, got, c.internalPath)
		}
	}
}

func TestDirectives(t *testing.T) {
	const src = `package p

func f(m map[int]int) int {
	n := 0
	//detlint:ordered sum is commutative
	for _, v := range m {
		n += v
	}
	//detlint:wallclock
	for _, v := range m {
		n -= v
	}
	return n // trailing comment, not a directive
}

//detlint:aliased doc-position directive
func g() {}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	ex := Collect(fset, []*ast.File{f})

	lineStart := func(line int) token.Pos {
		return f.Pos() + token.Pos(lineOffset(src, line))
	}

	// Line 6 is the annotated range; the directive sits on line 5.
	if d, ok := ex.At(lineStart(6), "ordered"); !ok {
		t.Fatal("ordered directive on preceding line not found")
	} else if d.Reason != "sum is commutative" {
		t.Fatalf("reason = %q", d.Reason)
	}
	// Keyword mismatch: the wallclock directive must not satisfy an
	// "ordered" lookup on line 10.
	if _, ok := ex.At(lineStart(10), "ordered"); ok {
		t.Fatal("wallclock directive matched keyword ordered")
	}
	if d, ok := ex.At(lineStart(10), "wallclock"); !ok {
		t.Fatal("wallclock directive not found")
	} else if d.Reason != "" {
		t.Fatalf("reason = %q, want empty", d.Reason)
	}
	// Nothing covers line 13.
	if _, ok := ex.At(lineStart(13), "ordered"); ok {
		t.Fatal("unannotated line reported a directive")
	}
	// Doc-position directive covers the func g() line (16).
	if _, ok := ex.At(lineStart(17), "aliased"); !ok {
		t.Fatal("doc-position directive not found")
	}
}

// lineOffset returns the byte offset of the start of 1-based line.
func lineOffset(src string, line int) int {
	off := 0
	for l := 1; l < line; l++ {
		for off < len(src) && src[off] != '\n' {
			off++
		}
		off++ // the newline itself
	}
	return off
}
