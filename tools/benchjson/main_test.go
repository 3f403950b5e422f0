package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeTrajectory(t *testing.T, dir, name string, runs ...BenchRun) string {
	t.Helper()
	path := filepath.Join(dir, name)
	data, err := json.Marshal(File{Suite: "test", Runs: runs})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestParseBenchLine pins the result-line parser, including custom
// b.ReportMetric units, which go test prints interleaved with the
// standard columns in sorted-unit order.
func TestParseBenchLine(t *testing.T) {
	res, ok := parseBenchLine("BenchmarkServiceSimPooled1k-4   \t       2\t 503214021 ns/op\t     1987.4 decisions/sec\t 1234 B/op\t  56 allocs/op")
	if !ok {
		t.Fatal("line not parsed")
	}
	if res.Name != "ServiceSimPooled1k" || res.Iterations != 2 {
		t.Fatalf("name/iterations: %+v", res)
	}
	if res.NsPerOp != 503214021 || res.BytesPerOp != 1234 || res.AllocsPerOp != 56 {
		t.Fatalf("standard columns: %+v", res)
	}
	if got := res.Metrics["decisions_per_sec"]; got != 1987.4 {
		t.Fatalf("Metrics[decisions_per_sec] = %v, want 1987.4", got)
	}

	// Custom metrics may sort BEFORE ns/op ("MB/s" < "ns/op").
	res, ok = parseBenchLine("BenchmarkCodec-8   100\t 55.5 MB/s\t 1000 ns/op")
	if !ok || res.NsPerOp != 1000 || res.Metrics["MB_per_s"] != 55.5 {
		t.Fatalf("metric-before-ns line: ok=%v %+v", ok, res)
	}

	// Plain lines still parse, with no Metrics map allocated.
	res, ok = parseBenchLine("BenchmarkT1ESDecision-4   10\t 1380132 ns/op")
	if !ok || res.NsPerOp != 1380132 || res.Metrics != nil {
		t.Fatalf("plain line: ok=%v %+v", ok, res)
	}

	// Non-benchmark output is rejected.
	for _, line := range []string{"PASS", "ok  \tanonconsensus\t0.5s", "BenchmarkX 10 garbage"} {
		if _, ok := parseBenchLine(line); ok {
			t.Errorf("accepted %q", line)
		}
	}

	// The workload benchmarks report latency percentiles as custom
	// metrics; all three must land in Metrics.
	res, ok = parseBenchLine("BenchmarkWorkloadLive-8   5\t 101234567 ns/op\t 21.50 p50_ms\t 33.10 p95_ms\t 41.00 p99_ms")
	if !ok {
		t.Fatal("percentile line not parsed")
	}
	for key, want := range map[string]float64{"p50_ms": 21.5, "p95_ms": 33.1, "p99_ms": 41} {
		if got := res.Metrics[key]; got != want {
			t.Errorf("Metrics[%s] = %v, want %v", key, got, want)
		}
	}
}

// TestCompareReportsMetricDeltas pins that compare mode surfaces custom
// metric movement (informational, never gated): a doubled p99 shows in
// the output but does not fail the gate.
func TestCompareReportsMetricDeltas(t *testing.T) {
	var b strings.Builder
	regressions, _, _ := compareRuns(&b,
		BenchRun{Results: []BenchResult{{Name: "WorkloadLive", NsPerOp: 100, Metrics: map[string]float64{"p99_ms": 20, "p50_ms": 5}}}},
		BenchRun{Results: []BenchResult{{Name: "WorkloadLive", NsPerOp: 100, Metrics: map[string]float64{"p99_ms": 40, "p50_ms": 5}}}}, 20)
	if regressions != 0 {
		t.Fatal("metric movement must not gate")
	}
	out := b.String()
	if !strings.Contains(out, "p99_ms") || !strings.Contains(out, "+100.0%") {
		t.Errorf("output missing p99 delta:\n%s", out)
	}
	if !strings.Contains(out, "not gated") {
		t.Errorf("metric lines must be marked not gated:\n%s", out)
	}
	// Keys print in stable (sorted) order: p50 before p99.
	if strings.Index(out, "p50_ms") > strings.Index(out, "p99_ms") {
		t.Errorf("metric lines not in stable order:\n%s", out)
	}
}

func TestCompareDetectsRegression(t *testing.T) {
	dir := t.TempDir()
	old := writeTrajectory(t, dir, "old.json", BenchRun{Label: "base", Results: []BenchResult{
		{Name: "Fast", NsPerOp: 100},
		{Name: "Slow", NsPerOp: 1000},
	}})
	// Within threshold: +10% is fine at 20%.
	okNew := writeTrajectory(t, dir, "ok.json", BenchRun{Label: "next", Results: []BenchResult{
		{Name: "Fast", NsPerOp: 110},
		{Name: "Slow", NsPerOp: 900},
	}})
	if code := runCompare([]string{old, okNew, "-threshold", "20"}); code != 0 {
		t.Errorf("within-threshold compare exited %d, want 0", code)
	}
	// Beyond threshold: +50% on one benchmark must fail.
	badNew := writeTrajectory(t, dir, "bad.json", BenchRun{Label: "next", Results: []BenchResult{
		{Name: "Fast", NsPerOp: 150},
		{Name: "Slow", NsPerOp: 1000},
	}})
	if code := runCompare([]string{old, badNew, "-threshold", "20"}); code != 1 {
		t.Errorf("regressed compare exited %d, want 1", code)
	}
	// A looser threshold lets the same delta through.
	if code := runCompare([]string{old, badNew, "-threshold", "60"}); code != 0 {
		t.Errorf("loose-threshold compare exited %d, want 0", code)
	}
}

func TestCompareOnlyLastRunCounts(t *testing.T) {
	dir := t.TempDir()
	old := writeTrajectory(t, dir, "old.json",
		BenchRun{Label: "ancient", Results: []BenchResult{{Name: "X", NsPerOp: 1}}},
		BenchRun{Label: "base", Results: []BenchResult{{Name: "X", NsPerOp: 100}}},
	)
	next := writeTrajectory(t, dir, "new.json", BenchRun{Label: "next", Results: []BenchResult{{Name: "X", NsPerOp: 105}}})
	if code := runCompare([]string{old, next, "-threshold", "20"}); code != 0 {
		t.Errorf("compare against last run exited %d, want 0 (must not use the ancient run)", code)
	}
}

func TestCompareNewAndMissingBenchmarksAreNotFailures(t *testing.T) {
	dir := t.TempDir()
	old := writeTrajectory(t, dir, "old.json", BenchRun{Label: "base", Results: []BenchResult{
		{Name: "Gone", NsPerOp: 50},
		{Name: "Kept", NsPerOp: 100},
	}})
	next := writeTrajectory(t, dir, "new.json", BenchRun{Label: "next", Results: []BenchResult{
		{Name: "Kept", NsPerOp: 100},
		{Name: "Added", NsPerOp: 9999},
	}})
	if code := runCompare([]string{old, next}); code != 0 {
		t.Errorf("grown/shrunk suite exited %d, want 0", code)
	}
}

// TestCompareRunsRenameTolerance pins the gate's survival of a benchmark
// rename: the old name is reported as REMOVED, the new one as ADDED, and
// neither counts as a regression.
func TestCompareRunsRenameTolerance(t *testing.T) {
	oldRun := BenchRun{Label: "base", Results: []BenchResult{
		{Name: "Kept", NsPerOp: 1000},
		{Name: "OldName", NsPerOp: 500},
	}}
	newRun := BenchRun{Label: "next", Results: []BenchResult{
		{Name: "Kept", NsPerOp: 1050},
		{Name: "NewName", NsPerOp: 480},
	}}
	var b strings.Builder
	regressions, added, removed := compareRuns(&b, oldRun, newRun, 20)
	if regressions != 0 {
		t.Errorf("rename counted as %d regression(s)\n%s", regressions, b.String())
	}
	if added != 1 || removed != 1 {
		t.Errorf("added=%d removed=%d, want 1 and 1", added, removed)
	}
	out := b.String()
	if !strings.Contains(out, "NewName") || !strings.Contains(out, "ADDED") {
		t.Errorf("output missing ADDED report:\n%s", out)
	}
	if !strings.Contains(out, "OldName") || !strings.Contains(out, "REMOVED") {
		t.Errorf("output missing REMOVED report:\n%s", out)
	}
}

// TestCompareRunsZeroBaseline pins that a zero old ns/op is skipped rather
// than dividing by zero.
func TestCompareRunsZeroBaseline(t *testing.T) {
	var b strings.Builder
	regressions, _, _ := compareRuns(&b,
		BenchRun{Results: []BenchResult{{Name: "A", NsPerOp: 0}}},
		BenchRun{Results: []BenchResult{{Name: "A", NsPerOp: 100}}}, 20)
	if regressions != 0 {
		t.Error("zero baseline counted as regression")
	}
}

func TestCompareUsageErrors(t *testing.T) {
	dir := t.TempDir()
	old := writeTrajectory(t, dir, "old.json", BenchRun{Label: "base", Results: []BenchResult{{Name: "X", NsPerOp: 1}}})
	cases := [][]string{
		{},                       // no files
		{old},                    // one file
		{old, old, "-threshold"}, // dangling flag
		{old, old, "-threshold", "x"},
		{old, old, "-bogus"},
		{old, filepath.Join(dir, "absent.json")},
	}
	for _, args := range cases {
		if code := runCompare(args); code != 2 {
			t.Errorf("runCompare(%v) exited %d, want usage error 2", args, code)
		}
	}
	empty := writeTrajectory(t, dir, "empty.json")
	if code := runCompare([]string{old, empty}); code != 2 {
		t.Error("empty trajectory accepted")
	}
}

// TestParseRunRecordsLayer pins that a multi-package `go test -bench ./...`
// stream files every result under the package its `pkg:` line names,
// relative to the module root, and leaves the root suite layer-less (as
// every run recorded before the ladder existed is).
func TestParseRunRecordsLayer(t *testing.T) {
	const out = `goos: linux
goarch: amd64
pkg: anonconsensus
cpu: Some CPU @ 2.10GHz
BenchmarkT1ESDecision-2   	      10	    673993 ns/op	  288080 B/op	    3285 allocs/op
PASS
ok  	anonconsensus	1.2s
?   	anonconsensus/examples/quickstart	[no test files]
pkg: anonconsensus/internal/giraf
BenchmarkReceiveNew/round=256-2   	  134982	        93.96 ns/op	      66 B/op	       1 allocs/op
pkg: anonconsensus/internal/sim
BenchmarkESPooledGST2/n=256-2     	       5	  29408616 ns/op	 7661216 B/op	   17613 allocs/op
`
	var run BenchRun
	if err := parseRun(strings.NewReader(out), &run); err != nil {
		t.Fatal(err)
	}
	if run.CPU != "Some CPU @ 2.10GHz" {
		t.Errorf("cpu = %q", run.CPU)
	}
	want := []string{"T1ESDecision", "internal/giraf.ReceiveNew/round=256", "internal/sim.ESPooledGST2/n=256"}
	if len(run.Results) != len(want) {
		t.Fatalf("parsed %d results, want %d: %+v", len(run.Results), len(want), run.Results)
	}
	for i, r := range run.Results {
		if r.key() != want[i] {
			t.Errorf("result %d: key %q, want %q", i, r.key(), want[i])
		}
	}
	if r := run.Results[1]; r.NsPerOp != 93.96 || r.AllocsPerOp != 1 {
		t.Errorf("layer result columns: %+v", r)
	}
}

// TestCompareAllocsAndLayers pins compare mode's two report-only additions:
// allocs/op movement is printed beside ns/op, and a layer benchmark is
// never gated on ns/op (bench-smoke runs it once), while a root benchmark
// with the same slowdown is.
func TestCompareAllocsAndLayers(t *testing.T) {
	oldRun := BenchRun{Results: []BenchResult{
		{Name: "Root", NsPerOp: 100, AllocsPerOp: 10},
		{Name: "ReceiveNew/round=256", Layer: "internal/giraf", NsPerOp: 100, AllocsPerOp: 10},
		{Name: "NoMem", NsPerOp: 100},
	}}
	newRun := BenchRun{Results: []BenchResult{
		{Name: "Root", NsPerOp: 300, AllocsPerOp: 15},
		{Name: "ReceiveNew/round=256", Layer: "internal/giraf", NsPerOp: 300, AllocsPerOp: 1},
		{Name: "NoMem", NsPerOp: 100},
	}}
	var b strings.Builder
	regressions, added, removed := compareRuns(&b, oldRun, newRun, 20)
	if regressions != 1 || added != 0 || removed != 0 {
		t.Errorf("regressions=%d added=%d removed=%d, want 1 (the root one), 0, 0\n%s", regressions, added, removed, b.String())
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("want 3 report lines:\n%s", b.String())
	}
	for i, want := range [][]string{
		{"Root", "REGRESSION", "allocs/op 10 → 15 (+50.0%)"},
		{"internal/giraf.ReceiveNew/round=256", "layer, not gated", "allocs/op 10 → 1 (-90.0%)"},
		{"NoMem", "ok"},
	} {
		for _, frag := range want {
			if !strings.Contains(lines[i], frag) {
				t.Errorf("line %d lacks %q: %s", i, frag, lines[i])
			}
		}
	}
	if strings.Contains(lines[2], "allocs/op") {
		t.Errorf("a benchmark recorded without -benchmem grew an allocs column: %s", lines[2])
	}
	// Same name, different layer: distinct benchmarks, not a match.
	_, added, removed = compareRuns(&b,
		BenchRun{Results: []BenchResult{{Name: "X", Layer: "internal/env", NsPerOp: 1}}},
		BenchRun{Results: []BenchResult{{Name: "X", Layer: "internal/sim", NsPerOp: 1}}}, 20)
	if added != 1 || removed != 1 {
		t.Errorf("same name in two layers matched: added=%d removed=%d", added, removed)
	}
}
