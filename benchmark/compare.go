package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// verdicts of -compare for one end-to-end metric on one workload.
const (
	verdictPass       = "PASS"
	verdictUnresolved = "UNRESOLVED" // run-to-run spread wider than the bound: no conclusion
	verdictRegressed  = "REGRESSED"
)

// judgeMetric compares the runs of B against the runs of A for a metric
// whose smaller (lowerIsBetter) or larger values are better: REGRESSED
// when B's median is worse than A's by more than bound (a share of A's
// median); UNRESOLVED when either side's inter-quartile spread exceeds
// the bound, unless every run of B reads better than every run of A.
func judgeMetric(a, b []float64, lowerIsBetter bool, bound float64) (verdict string, worse, spreadA, spreadB float64) {
	_, medA, _ := quartiles(a)
	_, medB, _ := quartiles(b)
	worse = (medB - medA) / medA
	sa, sb := sortedCopy(a), sortedCopy(b)
	allBetter := sb[len(sb)-1] < sa[0]
	if !lowerIsBetter {
		worse = -worse
		allBetter = sb[0] > sa[len(sa)-1]
	}
	spreadA, spreadB = spread(a), spread(b)
	switch {
	case max(spreadA, spreadB) > bound && !allBetter:
		verdict = verdictUnresolved
	case worse > bound:
		verdict = verdictRegressed
	default:
		verdict = verdictPass
	}
	return verdict, worse, spreadA, spreadB
}

// exactProbe reports whether a layer probe is a count that must repeat
// exactly between two reports of the same commit.
func exactProbe(name string) bool {
	return strings.HasPrefix(name, "wire.bytes_") || name == "wire.delta_ratio" ||
		(strings.HasPrefix(name, "sim.") && !strings.HasPrefix(name, "sim.run_"))
}

// compareReports prints, per workload, every end-to-end metric of B
// against A with its verdict, then checks what must be identical: the
// result digests (same seed) and the exact-count probes. It returns an
// error when anything regressed or differed, or when a run of either
// report had failed ops (fail_ratio must be 0 everywhere).
func compareReports(out io.Writer, man *manifest, pathA, pathB string) error {
	a, err := readSuiteReport(pathA)
	if err != nil {
		return err
	}
	b, err := readSuiteReport(pathB)
	if err != nil {
		return err
	}
	if a.Env.NProc != b.Env.NProc || a.Env.GOMAXPROCS != b.Env.GOMAXPROCS {
		return fmt.Errorf("refusing to compare: %s was taken with nproc %d GOMAXPROCS %d, %s with nproc %d GOMAXPROCS %d",
			pathA, a.Env.NProc, a.Env.GOMAXPROCS, pathB, b.Env.NProc, b.Env.GOMAXPROCS)
	}
	if a.Seconds != b.Seconds {
		return fmt.Errorf("refusing to compare: windows of %.2f s and %.2f s", a.Seconds, b.Seconds)
	}
	fmt.Fprintf(out, "A: %s (commit %s, %s)\nB: %s (commit %s, %s)\n", pathA, a.Env.Commit, a.Env.CPUModel, pathB, b.Env.Commit, b.Env.CPUModel)

	endToEnd := func(rep *suiteReport, workload string) (runs []*runResult) {
		for _, r := range rep.Runs {
			if r.Workload == workload && !r.Traced {
				runs = append(runs, r)
			}
		}
		return runs
	}
	valuesOf := func(runs []*runResult, name string) []float64 {
		vals := make([]float64, len(runs))
		for i, r := range runs {
			vals[i] = r.Metrics[name].Value
		}
		return vals
	}
	regressed, unresolved, differing := 0, 0, 0
	for _, wl := range man.Workloads {
		ra, rb := endToEnd(a, wl.Name), endToEnd(b, wl.Name)
		if len(ra) == 0 || len(rb) == 0 {
			return fmt.Errorf("no end-to-end run of %s in one of the reports", wl.Name)
		}
		fmt.Fprintf(out, "\n%s\n  %-22s %12s %12s %8s %8s %8s %7s  %s\n", wl.Name, "metric", "median A", "median B", "worse", "IQR A", "IQR B", "bound", "verdict")
		for _, m := range man.EndToEnd {
			va, vb := valuesOf(ra, m.Name), valuesOf(rb, m.Name)
			verdict, worse, sa, sb := judgeMetric(va, vb, m.Better == "lower", m.Bound)
			switch verdict {
			case verdictRegressed:
				regressed++
			case verdictUnresolved:
				unresolved++
			}
			fmt.Fprintf(out, "  %-22s %12.4f %12.4f %+7.1f%% %7.1f%% %7.1f%% %6.0f%%  %s\n",
				m.Name, median(va), median(vb), 100*worse, 100*sa, 100*sb, 100*m.Bound, verdict)
		}
		if a.Seed != b.Seed {
			continue
		}
		for _, r := range append(ra[1:], rb...) {
			if r.Digest != ra[0].Digest {
				differing++
				fmt.Fprintf(out, "  result_digest differs between runs of seed %d: %s vs %s\n", a.Seed, ra[0].Digest, r.Digest)
				break
			}
		}
	}
	names := make([]string, 0, len(a.Probes))
	for name := range a.Probes {
		if exactProbe(name) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fmt.Fprintln(out, "\nexact counts")
	for _, name := range names {
		status := "identical"
		if a.Probes[name] != b.Probes[name] {
			status = "DIFFERS"
			differing++
		}
		fmt.Fprintf(out, "  %-34s %16.4f %16.4f  %s\n", name, a.Probes[name].Value, b.Probes[name].Value, status)
	}
	failing := 0
	for _, r := range append(a.Runs[:len(a.Runs):len(a.Runs)], b.Runs...) {
		if r.Failed > 0 {
			failing++
			fmt.Fprintf(out, "%s (seed %d, traced %v): %d of %d ops failed %v\n", r.Workload, r.Seed, r.Traced, r.Failed, r.Attempted, r.Fails)
		}
	}
	fmt.Fprintf(out, "\n%d regressed, %d unresolved, %d exact values differing, %d runs with failed ops\n", regressed, unresolved, differing, failing)
	if regressed > 0 || differing > 0 || failing > 0 {
		return fmt.Errorf("comparison failed")
	}
	return nil
}
