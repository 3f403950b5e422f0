// Package expt is the experiment harness: one entry per table (T1–T10) and
// figure (F1–F3) of EXPERIMENTS.md, each regenerating its numbers from
// scratch. The paper itself is a theory paper with no empirical section, so
// these experiments quantify its theorems; the mapping from claims to
// experiment ids lives in DESIGN.md §4.
//
// cmd/anonsim renders the tables; the repository-root benchmarks call the
// same entry points so the harness is exercised both ways.
package expt

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Experiment is one runnable table/figure generator.
type Experiment struct {
	// ID is the experiment id (T1..T10, F1..F3).
	ID string
	// Title is the one-line description shown in listings.
	Title string
	// Run executes the experiment and writes its table to w. Quick shrinks
	// the parameter grid for smoke tests and benchmarks.
	Run func(w io.Writer, quick bool) error
}

// All returns every experiment in display order.
func All() []Experiment {
	return []Experiment{
		{ID: "T1", Title: "ES consensus: decision round vs n (Theorem 1)", Run: runT1},
		{ID: "T2", Title: "ES consensus: decision round vs GST (Theorem 1)", Run: runT2},
		{ID: "T3", Title: "ESS consensus: decision round vs n (Theorem 2)", Run: runT3},
		{ID: "T4", Title: "Pseudo leader election vs ID-based Ω: convergence round (§4, Lemmas 4–6)", Run: runT4},
		{ID: "T5", Title: "Crash tolerance: decision round vs crash fraction (any #crashes)", Run: runT5},
		{ID: "T6", Title: "Cost of anonymity: message sizes, ES vs ESS vs Ω baseline", Run: runT6},
		{ID: "T7", Title: "Weak-set in MS: add latency vs delay bound (Theorem 3)", Run: runT7},
		{ID: "T8", Title: "Registers ⇄ weak-sets: Props 1–3 operation costs", Run: runT8},
		{ID: "T9", Title: "MS emulation from a weak-set (Theorem 4)", Run: runT9},
		{ID: "T10", Title: "Σ is not emulatable in MS: candidate autopsies (Prop. 4)", Run: runT10},
		{ID: "F1", Title: "Decision-round distribution over random schedules (robustness)", Run: runF1},
		{ID: "F2", Title: "Self-considered leaders per round in ESS (convergence dynamics)", Run: runF2},
		{ID: "F3", Title: "Adversarial MS schedule: no consensus without ES/ESS (FLP corollary)", Run: runF3},
		{ID: "X1", Title: "Bounded exhaustive schedule verification (model-checking style)", Run: runX1},
		{ID: "X2", Title: "Randomized schedule search: PCT-style sampling under fault scenarios", Run: runX2},
		{ID: "T11", Title: "Obstruction-free anonymous consensus under contention (related work [9])", Run: runT11},
		{ID: "S1", Title: "Scenario sweep: termination/agreement vs loss, duplication, partitions", Run: runS1},
	}
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}

// table is a minimal fixed-width text table writer.
type table struct {
	header []string
	rows   [][]string
}

func newTable(cols ...string) *table { return &table{header: cols} }

func (t *table) add(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = fmt.Sprint(c)
	}
	t.rows = append(t.rows, row)
}

func (t *table) write(w io.Writer) error {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		return strings.Join(parts, "  ")
	}
	if _, err := fmt.Fprintln(w, line(t.header)); err != nil {
		return err
	}
	rule := make([]string, len(t.header))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	if _, err := fmt.Fprintln(w, line(rule)); err != nil {
		return err
	}
	for _, row := range t.rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	return nil
}

// percentile returns the p-th percentile (0–100) of xs (nearest-rank).
func percentile(xs []int, p int) int {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]int(nil), xs...)
	sort.Ints(sorted)
	rank := (p*len(sorted) + 99) / 100
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// mean returns the arithmetic mean of xs rounded to one decimal.
func mean(xs []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0
	for _, x := range xs {
		sum += x
	}
	return float64(sum) / float64(len(xs))
}
