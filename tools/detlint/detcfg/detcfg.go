// Package detcfg is the single home of detlint's policy: which packages
// are bound by the determinism contract, which live planes are exempt,
// and how source code spells an explicit, reasoned escape hatch.
//
// # The determinism contract
//
// Fixed-seed runs in this repository must be byte-identical — the golden
// parity pins (TestParityGolden, the table/report parallelism pins)
// assume it. That only holds if deterministic packages never consult
// wall clocks, never draw from process-global randomness, never iterate
// maps where order can reach output, and never leak aliased mutable
// state or untracked goroutines. detlint enforces those rules at the
// AST level; this package decides where they apply.
//
// # Escape hatches
//
// Every rule has a directive comment that suppresses one finding, and
// every directive requires a reason — an empty reason is itself a lint
// error. The directive goes on the flagged line or the line directly
// above it:
//
//	//detlint:ordered aggregation is commutative — only the sum reaches output
//	for _, v := range m { total += v }
//
// Keywords: "ordered" (maporder), "wallclock" (wallclock), "globalrand"
// (globalrand), "aliased" (retalias), "goroutine" (goescape), "setequal"
// (setequal).
package detcfg

import (
	"go/ast"
	"go/token"
	"strings"
)

// deterministic names the package families (final path element under
// internal/) bound by the determinism contract. The root api package and
// cmd/ binaries orchestrate live transports and terminal output, so they
// stay outside; msemu, obstruction and register model inherently
// concurrent shared-memory objects whose tests embrace real scheduling.
var deterministic = map[string]bool{
	"sim":      true,
	"core":     true,
	"giraf":    true,
	"values":   true,
	"env":      true,
	"explore":  true,
	"expt":     true,
	"fd":       true,
	"weakset":  true,
	"wire":     true,
	"ordered":  true,
	"workload": true,
	// rounddriver is the live planes' shared round loop, but it reads no
	// clock and starts no goroutine itself: beats arrive on a
	// caller-supplied channel and envelopes in a Mailbox the caller fills
	// (a locked slice, with no timer and no goroutine behind it), which is
	// what keeps its step machine testable on scripted schedules. The
	// contract holds it to that.
	"rounddriver": true,
}

// liveExempt names the live network planes: real sockets and wall-clock
// latency profiles are their whole point, so the wallclock and goescape
// rules never apply there, even if a family is ever added to both lists.
var liveExempt = map[string]bool{
	"anonnet": true,
	"tcpnet":  true,
	// netchaos is the chaos-injection proxy for the live TCP plane: its
	// schedules fire on wall-clock timers relative to connection accept
	// times (that is the injection mechanism, not an accident), so the
	// wallclock and goescape rules cannot apply. Its *schedules* stay
	// deterministic — RandomSchedule draws from a seeded *rand.Rand, which
	// the globalrand rule still enforces here like everywhere under
	// internal/.
	"netchaos": true,
}

// family extracts the package family from an import path: the first
// path element after the last "internal" element. It returns "" for
// paths with no internal element.
func family(path string) string {
	segs := strings.Split(path, "/")
	for i := len(segs) - 1; i >= 0; i-- {
		if segs[i] == "internal" && i+1 < len(segs) {
			return segs[i+1]
		}
	}
	return ""
}

// Deterministic reports whether the package at path is bound by the
// determinism contract.
func Deterministic(path string) bool {
	return deterministic[family(path)] && !liveExempt[family(path)]
}

// LiveExempt reports whether the package at path is a live network
// plane, exempt from the wall-clock and goroutine rules by design.
func LiveExempt(path string) bool {
	return liveExempt[family(path)]
}

// Internal reports whether path lies under an internal/ element — the
// scope of the globalrand rule, which applies to every internal package,
// live planes included (seeded *rand.Rand is required even there, so
// latency schedules replay).
func Internal(path string) bool {
	for _, seg := range strings.Split(path, "/") {
		if seg == "internal" {
			return true
		}
	}
	return false
}

// A Directive is one //detlint:<keyword> <reason> comment.
type Directive struct {
	Keyword string
	Reason  string
	Pos     token.Pos
}

// Exemptions indexes a package's detlint directives by file and line.
type Exemptions struct {
	fset   *token.FileSet
	byLine map[string]map[int][]Directive // filename → line → directives
}

// Collect scans the package's comments for detlint directives. It must
// be handed files parsed with parser.ParseComments.
func Collect(fset *token.FileSet, files []*ast.File) *Exemptions {
	e := &Exemptions{fset: fset, byLine: map[string]map[int][]Directive{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//detlint:")
				if !ok {
					continue
				}
				keyword, reason, _ := strings.Cut(text, " ")
				pos := fset.Position(c.Pos())
				lines := e.byLine[pos.Filename]
				if lines == nil {
					lines = map[int][]Directive{}
					e.byLine[pos.Filename] = lines
				}
				lines[pos.Line] = append(lines[pos.Line], Directive{
					Keyword: keyword,
					Reason:  strings.TrimSpace(reason),
					Pos:     c.Pos(),
				})
			}
		}
	}
	return e
}

// At returns the directive with the given keyword covering pos: on the
// same source line, or on the line immediately above (the usual spot for
// a full-line comment over a statement).
func (e *Exemptions) At(pos token.Pos, keyword string) (Directive, bool) {
	p := e.fset.Position(pos)
	for _, line := range []int{p.Line, p.Line - 1} {
		for _, d := range e.byLine[p.Filename][line] {
			if d.Keyword == keyword {
				return d, true
			}
		}
	}
	return Directive{}, false
}
