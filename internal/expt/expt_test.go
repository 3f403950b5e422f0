package expt

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
)

func TestAllExperimentsRunQuick(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			var buf bytes.Buffer
			if err := e.Run(&buf, true); err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			out := buf.String()
			if !strings.Contains(out, "\n") || len(out) < 20 {
				t.Errorf("%s produced implausibly small output:\n%s", e.ID, out)
			}
		})
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("T1"); !ok {
		t.Error("T1 missing")
	}
	if _, ok := ByID("t10"); !ok {
		t.Error("lookup must be case-insensitive")
	}
	if _, ok := ByID("T99"); ok {
		t.Error("unknown id found")
	}
}

func TestAllIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range All() {
		if seen[e.ID] {
			t.Errorf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
		if e.Title == "" || e.Run == nil {
			t.Errorf("%s incomplete", e.ID)
		}
	}
}

func TestTableFormatting(t *testing.T) {
	tb := newTable("a", "long-header")
	tb.add(1, "x")
	tb.add(22, "yy")
	var buf bytes.Buffer
	if err := tb.write(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d, want 4", len(lines))
	}
	if !strings.HasPrefix(lines[0], "a ") || !strings.Contains(lines[0], "long-header") {
		t.Errorf("header malformed: %q", lines[0])
	}
}

func TestPercentile(t *testing.T) {
	xs := []int{5, 1, 9, 3, 7}
	tests := []struct{ p, want int }{
		{50, 5}, {100, 9}, {1, 1}, {90, 9},
	}
	for _, tt := range tests {
		if got := percentile(xs, tt.p); got != tt.want {
			t.Errorf("percentile(%d) = %d, want %d", tt.p, got, tt.want)
		}
	}
	if percentile(nil, 50) != 0 {
		t.Error("empty percentile must be 0")
	}
}

func TestMean(t *testing.T) {
	if m := mean([]int{1, 2, 3}); m != 2 {
		t.Errorf("mean = %v", m)
	}
	if mean(nil) != 0 {
		t.Error("empty mean must be 0")
	}
}

func TestTableWriteErrorPropagates(t *testing.T) {
	tb := newTable("x")
	tb.add(1)
	if err := tb.write(failWriter{}); err == nil {
		t.Error("write error must propagate")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, io.ErrClosedPipe }

// deterministicIDs are the experiments whose rendered output is a pure
// function of their seeds — no wall-clock columns (T8, T9) and no real
// goroutine contention (T11).
var deterministicIDs = []string{"T1", "T2", "T3", "T4", "T5", "T6", "T7", "T10", "F1", "F2", "F3", "X1", "X2", "S1"}

func TestTablesByteIdenticalAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("renders the deterministic suite three times")
	}
	render := func(par int) string {
		SetParallelism(par)
		var buf bytes.Buffer
		for _, id := range deterministicIDs {
			e, ok := ByID(id)
			if !ok {
				t.Fatalf("unknown experiment %s", id)
			}
			fmt.Fprintf(&buf, "== %s ==\n", id)
			if err := e.Run(&buf, true); err != nil {
				t.Fatalf("%s at parallelism %d: %v", id, par, err)
			}
		}
		return buf.String()
	}
	defer SetParallelism(0)
	want := render(1)
	for _, par := range []int{4, runtime.NumCPU()} {
		if got := render(par); got != want {
			t.Errorf("tables diverged between parallelism 1 and %d:\n%s", par, firstDiff(want, got))
		}
	}
}

// firstDiff locates the first diverging line pair for readable failures.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d:\n want: %s\n  got: %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("length differs: want %d lines, got %d", len(wl), len(gl))
}

func TestSetParallelism(t *testing.T) {
	defer SetParallelism(0)
	SetParallelism(3)
	if got := parallelism(); got != 3 {
		t.Errorf("parallelism() = %d, want 3", got)
	}
	SetParallelism(-5)
	if got := parallelism(); got < 1 {
		t.Errorf("parallelism() = %d, want ≥ 1 (GOMAXPROCS default)", got)
	}
}

func TestForTrialsOrderAndErrors(t *testing.T) {
	defer SetParallelism(0)
	for _, par := range []int{1, 4} {
		SetParallelism(par)
		out := make([]int, 50)
		if err := forTrials(len(out), func(i int) error { out[i] = i * i; return nil }); err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("parallelism %d: slot %d = %d, want %d", par, i, v, i*i)
			}
		}
		err := forTrials(10, func(i int) error {
			if i == 3 || i == 7 {
				return fmt.Errorf("trial %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "trial 3 failed" {
			t.Errorf("parallelism %d: err = %v, want the index-3 error", par, err)
		}
	}
	if err := forTrials(0, func(int) error { return nil }); err != nil {
		t.Errorf("empty trial set: %v", err)
	}
}

func TestOFTrialSeedsDistinct(t *testing.T) {
	// The per-proposer RNG streams must stay distinct across trials and
	// proposer indices (the old seed*97+i offsets could coincide).
	seen := map[int64][2]int64{}
	for trial := int64(0); trial < 200; trial++ {
		for proposer := 0; proposer < 16; proposer++ {
			s := ofTrialSeed(trial, proposer)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision: trial=%d proposer=%d vs trial=%d proposer=%d",
					trial, proposer, prev[0], prev[1])
			}
			seen[s] = [2]int64{trial, int64(proposer)}
		}
	}
}

func TestRunOFTrialAgreesUnderContention(t *testing.T) {
	for trial := int64(0); trial < 6; trial++ {
		attempts, agreed := runOFTrial(4, trial)
		if !agreed {
			t.Fatalf("trial %d: agreement violated", trial)
		}
		if attempts < 1 {
			t.Errorf("trial %d: attempts = %d, want ≥ 1 (someone must have proposed)", trial, attempts)
		}
	}
}
