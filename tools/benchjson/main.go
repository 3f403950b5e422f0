// Command benchjson converts `go test -bench` output into the repository's
// benchmark-trajectory file (BENCH_consensus.json by default). Each
// invocation appends one labelled run, so the file accumulates a history
// of measurements across PRs:
//
//	go test -run '^$' -bench . -benchmem -benchtime 10x . | \
//	    go run ./tools/benchjson -label "my change"
//
// The Makefile `bench` target wraps exactly that pipeline.
//
// Compare mode gates regressions instead of appending:
//
//	benchjson -compare old.json new.json -threshold 20
//
// compares the last recorded run of each trajectory file benchmark by
// benchmark and exits nonzero when any ns/op regressed by more than the
// threshold percentage (default 20). The Makefile `bench-smoke` target
// wires it against BENCH_consensus.json so the trajectory cannot silently
// regress; pick the threshold with the noise of the comparison machine in
// mind.
//
// A benchmark that lives beside its layer's code (`make bench` walks ./...)
// is recorded with that package as its layer, from the `pkg:` line go test
// prints. Compare mode shows allocs/op movement beside ns/op for every
// benchmark that recorded it, and reports layer benchmarks without gating
// them: bench-smoke runs each of those once (-benchtime 1x), so their ns/op
// is a single sample. Their allocs/op is taken on warmed state and does
// compare; a gate on it is ROADMAP item 4(b).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// BenchResult is one benchmark line.
type BenchResult struct {
	Name string `json:"name"`
	// Layer is the package the benchmark lives in, relative to the module
	// root ("internal/giraf"); empty for the root package's suite.
	Layer       string  `json:"layer,omitempty"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
	// Metrics holds custom b.ReportMetric units (e.g. "decisions/sec"
	// recorded as "decisions_per_sec"), keyed by their sanitized unit.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// BenchRun is one labelled invocation of the suite.
type BenchRun struct {
	Label   string        `json:"label"`
	Date    string        `json:"date"`
	GoOS    string        `json:"goos"`
	GoArch  string        `json:"goarch"`
	CPU     string        `json:"cpu,omitempty"`
	Results []BenchResult `json:"results"`
}

// File is the trajectory file layout.
type File struct {
	Suite string     `json:"suite"`
	Note  string     `json:"note"`
	Runs  []BenchRun `json:"runs"`
}

// key identifies a benchmark within a run: its name, qualified by its
// layer when it has one, so two packages may both have a BenchmarkX.
func (r BenchResult) key() string {
	if r.Layer == "" {
		return r.Name
	}
	return r.Layer + "." + r.Name
}

var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+(.+)$`)

// metricKey sanitizes a benchmark unit into a JSON-friendly key:
// "decisions/sec" → "decisions_per_sec".
func metricKey(unit string) string {
	unit = strings.ReplaceAll(unit, "/", "_per_")
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			return r
		}
		return '_'
	}, unit)
}

// parseBenchLine parses one `go test -bench` result line. Beyond the
// standard ns/op, B/op and allocs/op columns it accepts any
// `<value> <unit>` pair — custom b.ReportMetric units land in Metrics —
// so the order go test prints metrics in (custom units sort among the
// standard ones) does not matter.
func parseBenchLine(line string) (BenchResult, bool) {
	m := benchLine.FindStringSubmatch(line)
	if m == nil {
		return BenchResult{}, false
	}
	name := strings.TrimPrefix(m[1], "Benchmark")
	// Strip the -GOMAXPROCS suffix go test appends.
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, _ := strconv.Atoi(m[2])
	res := BenchResult{Name: name, Iterations: iters}
	sawNs := false
	fields := strings.Fields(m[3])
	for i := 0; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			break
		}
		switch fields[i+1] {
		case "ns/op":
			res.NsPerOp = v
			sawNs = true
		case "B/op":
			res.BytesPerOp = int64(v)
		case "allocs/op":
			res.AllocsPerOp = int64(v)
		default:
			if res.Metrics == nil {
				res.Metrics = make(map[string]float64)
			}
			res.Metrics[metricKey(fields[i+1])] = v
		}
	}
	if !sawNs {
		return BenchResult{}, false
	}
	return res, true
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "-compare" {
		os.Exit(runCompare(os.Args[2:]))
	}
	label := flag.String("label", "", "label for this run (required)")
	out := flag.String("out", "BENCH_consensus.json", "trajectory file to append to")
	flag.Parse()
	if *label == "" {
		fmt.Fprintln(os.Stderr, "benchjson: -label is required")
		os.Exit(2)
	}

	run := BenchRun{
		Label:  *label,
		Date:   time.Now().UTC().Format("2006-01-02"),
		GoOS:   runtime.GOOS,
		GoArch: runtime.GOARCH,
	}
	if err := parseRun(os.Stdin, &run); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: reading stdin:", err)
		os.Exit(1)
	}
	if len(run.Results) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines found on stdin")
		os.Exit(1)
	}

	file := File{
		Suite: "anonconsensus T1–T10/F1–F3 experiment suite + hot-path micro-benchmarks",
		Note:  "Append runs with `make bench` (or tools/benchjson); do not edit results by hand.",
	}
	if data, err := os.ReadFile(*out); err == nil {
		if err := json.Unmarshal(data, &file); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %s exists but is unreadable: %v\n", *out, err)
			os.Exit(1)
		}
	}
	file.Runs = append(file.Runs, run)
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Printf("benchjson: appended %d results to %s (run %q)\n", len(run.Results), *out, *label)
}

// parseRun reads `go test -bench` output — of one package or of several —
// into run: the cpu line, and every result line under the layer its
// package's `pkg:` line names (the path below the module root, whose own
// path is a single element).
func parseRun(r io.Reader, run *BenchRun) error {
	layer := ""
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if cpu, ok := strings.CutPrefix(line, "cpu: "); ok {
			run.CPU = strings.TrimSpace(cpu)
			continue
		}
		if pkg, ok := strings.CutPrefix(line, "pkg: "); ok {
			_, layer, _ = strings.Cut(strings.TrimSpace(pkg), "/")
			continue
		}
		res, ok := parseBenchLine(line)
		if !ok {
			continue
		}
		res.Layer = layer
		run.Results = append(run.Results, res)
	}
	return sc.Err()
}

// runCompare implements `-compare old.json new.json [-threshold pct]`. It
// reads the last run of each trajectory file and reports, benchmark by
// benchmark, the ns/op delta; any regression beyond the threshold makes
// the exit status nonzero. Benchmarks present on only one side are
// reported as ADDED/REMOVED and summarized, never failed on, so suites
// can grow and benchmarks can be renamed without breaking the gate.
func runCompare(args []string) int {
	threshold := 20.0
	var files []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		switch {
		case a == "-threshold" || a == "--threshold":
			i++
			if i >= len(args) {
				fmt.Fprintln(os.Stderr, "benchjson: -threshold needs a value")
				return 2
			}
			v, err := strconv.ParseFloat(args[i], 64)
			if err != nil || v < 0 {
				fmt.Fprintf(os.Stderr, "benchjson: bad threshold %q\n", args[i])
				return 2
			}
			threshold = v
		case strings.HasPrefix(a, "-threshold="):
			v, err := strconv.ParseFloat(strings.TrimPrefix(a, "-threshold="), 64)
			if err != nil || v < 0 {
				fmt.Fprintf(os.Stderr, "benchjson: bad threshold %q\n", a)
				return 2
			}
			threshold = v
		case strings.HasPrefix(a, "-"):
			fmt.Fprintf(os.Stderr, "benchjson: unknown compare flag %q\n", a)
			return 2
		default:
			files = append(files, a)
		}
	}
	if len(files) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchjson -compare old.json new.json [-threshold pct]")
		return 2
	}
	oldRun, err := lastRun(files[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 2
	}
	newRun, err := lastRun(files[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 2
	}
	fmt.Printf("comparing %q (old: %s) vs %q (new: %s), threshold %.0f%%\n",
		oldRun.Label, files[0], newRun.Label, files[1], threshold)
	regressions, added, removed := compareRuns(os.Stdout, oldRun, newRun, threshold)
	if added+removed > 0 {
		// Additions and removals are informational, never failures: the
		// gate must survive benchmark renames and suite growth.
		fmt.Printf("benchjson: %d benchmark(s) added, %d removed (not gated)\n", added, removed)
	}
	if regressions > 0 {
		fmt.Fprintf(os.Stderr, "benchjson: %d benchmark(s) regressed more than %.0f%%\n", regressions, threshold)
		return 1
	}
	fmt.Println("benchjson: no regressions beyond threshold")
	return 0
}

// compareRuns reports the benchmark-by-benchmark ns/op delta of two runs
// to w, with the allocs/op movement beside it where either side recorded
// one (never gated). Benchmarks present on only one side are reported as
// ADDED or REMOVED and counted separately from regressions — a renamed
// benchmark shows up as one of each and never fails the gate. Layer
// benchmarks are reported and not gated (see the package comment).
func compareRuns(w io.Writer, oldRun, newRun BenchRun, threshold float64) (regressions, added, removed int) {
	oldBy := make(map[string]BenchResult, len(oldRun.Results))
	for _, r := range oldRun.Results {
		oldBy[r.key()] = r
	}
	seen := make(map[string]bool, len(newRun.Results))
	for _, nr := range newRun.Results {
		seen[nr.key()] = true
		or, ok := oldBy[nr.key()]
		if !ok {
			added++
			fmt.Fprintf(w, "  %-40s ADDED (%.0f ns/op, no baseline)\n", nr.key(), nr.NsPerOp)
			continue
		}
		if or.NsPerOp <= 0 {
			continue
		}
		delta := (nr.NsPerOp - or.NsPerOp) / or.NsPerOp * 100
		verdict := "ok"
		switch {
		case nr.Layer != "":
			verdict = "layer, not gated"
		case delta > threshold:
			verdict = "REGRESSION"
			regressions++
		}
		allocs := ""
		if or.AllocsPerOp != 0 || nr.AllocsPerOp != 0 {
			allocs = fmt.Sprintf("  allocs/op %d → %d", or.AllocsPerOp, nr.AllocsPerOp)
			if or.AllocsPerOp != 0 {
				allocs += fmt.Sprintf(" (%+.1f%%)", float64(nr.AllocsPerOp-or.AllocsPerOp)/float64(or.AllocsPerOp)*100)
			}
		}
		fmt.Fprintf(w, "  %-40s %12.0f → %12.0f ns/op  %+6.1f%%  %s%s\n", nr.key(), or.NsPerOp, nr.NsPerOp, delta, verdict, allocs)
		// Custom metrics (b.ReportMetric units such as p99_ms) are shown
		// for context but never gated: whether up is good depends on the
		// unit, and only ns/op has a universally safe direction.
		for _, key := range sortedMetricKeys(nr.Metrics) {
			ov, ok := or.Metrics[key]
			if !ok || ov == 0 {
				continue
			}
			nv := nr.Metrics[key]
			fmt.Fprintf(w, "  %-40s %12.2f → %12.2f %s  %+6.1f%%  (not gated)\n",
				"", ov, nv, key, (nv-ov)/ov*100)
		}
	}
	for _, or := range oldRun.Results {
		if !seen[or.key()] {
			removed++
			fmt.Fprintf(w, "  %-40s REMOVED (was %.0f ns/op)\n", or.key(), or.NsPerOp)
		}
	}
	return regressions, added, removed
}

// sortedMetricKeys returns a metric map's keys in stable order.
func sortedMetricKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// lastRun loads a trajectory file and returns its most recent run.
func lastRun(path string) (BenchRun, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return BenchRun{}, err
	}
	var file File
	if err := json.Unmarshal(data, &file); err != nil {
		return BenchRun{}, fmt.Errorf("%s: %w", path, err)
	}
	if len(file.Runs) == 0 {
		return BenchRun{}, fmt.Errorf("%s: no runs recorded", path)
	}
	return file.Runs[len(file.Runs)-1], nil
}
