// Command benchmark is the repository's benchmark: five seeded workloads
// driven through the public API (NewNode, Propose, Wait over the sim, live
// and TCP-mux transports), every outcome checked, every metric of
// BENCHMARK.json printed by name with its unit. README.md in this
// directory is the dictionary.
//
// It runs in one of four ways:
//
//	benchmark -workload W -seed N -seconds S -trace 0|1
//	    one run of one workload, as the benchmark driver asks for it; the
//	    last line of standard output is the driver's result object.
//	benchmark [-sets K] [-out FILE]
//	    the whole suite: K interleaved sets of end-to-end runs of all
//	    workloads, the layer probes, then one traced run per workload; every
//	    run in a process of its own, as the driver runs them.
//	benchmark -probes
//	    the layer probes only, at full length.
//	benchmark -compare A.json B.json
//	    two -out files against the bounds of BENCHMARK.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// manifest is the part of BENCHMARK.json the harness needs: which metric
// names the driver expects, and the bounds -compare judges by.
type manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// readManifest finds BENCHMARK.json in the working directory (the driver
// runs from the repository root) or one level up (go run from here).
func readManifest() (*manifest, error) {
	var lastErr error
	for _, p := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		data, err := os.ReadFile(p)
		if err != nil {
			lastErr = err
			continue
		}
		var m manifest
		if err := json.Unmarshal(data, &m); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &m, nil
	}
	return nil, lastErr
}

// probeShare is the part of a driver-mode traced run spent on the layer
// probes; the reference and traced windows take half of the rest each, so
// the whole run measures for about -seconds.
const probeShare = 0.5

// fullProbeBudget gives every timed probe repetitions of half a second
// (eight shares each, see timedProbe) when the probes run on their own.
const fullProbeBudget = timedProbes * 8 * 500 * time.Millisecond

// options are the command's flags.
type options struct {
	workload   string
	seed       int64
	seconds    float64
	trace      int
	probesOnly bool
	sets       int
	smoke      bool
	out        string
	compare    bool
	child      bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run only this workload, and end with the driver's result line")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed offers the same instances")
	flag.Float64Var(&o.seconds, "seconds", 0, "measuring time of one run (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 = end-to-end run, 1 = traced run plus layer probes")
	flag.BoolVar(&o.probesOnly, "probes", false, "run only the layer probes, at full length")
	flag.IntVar(&o.sets, "sets", 1, "suite: how many interleaved sets of end-to-end runs")
	flag.BoolVar(&o.smoke, "smoke", false, "1/50 of the measuring time, one set-up with one warm-up op: a functional pass, not a measurement")
	flag.StringVar(&o.out, "out", "", "suite: write every run to this JSON file (input of -compare)")
	flag.BoolVar(&o.compare, "compare", false, "compare two -out files: benchmark -compare A.json B.json")
	flag.BoolVar(&o.child, "child", false, "internal, set by the suite on the runs it starts: record the run in -out; no layer probes, no result line")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	man, err := readManifest()
	if err != nil {
		return fmt.Errorf("reading BENCHMARK.json: %w", err)
	}
	if o.compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare takes two -out files")
		}
		return compareReports(os.Stdout, man, flag.Arg(0), flag.Arg(1))
	}
	if o.probesOnly {
		probes, err := runProbes(fullProbeBudget)
		probes.print(os.Stdout, "")
		return err
	}
	if o.seconds <= 0 {
		o.seconds = float64(man.RunSeconds)
	}
	sc := scale{window: time.Duration(o.seconds * float64(time.Second)), setups: 5, setupTime: time.Second, warmups: warmupOps, digestDiv: 1, probes: fullProbeBudget}
	if o.smoke {
		sc = scale{window: sc.window / 50, setups: 1, warmups: 1, digestDiv: 50, probes: fullProbeBudget / 50}
	}
	// Spans are written next to the sources, wherever the command runs from.
	spanDir := filepath.Join("benchmark", "out")
	if _, err := os.Stat("benchmark"); err != nil {
		spanDir = "out"
	}
	if o.workload != "" {
		w := workloadByName(o.workload)
		if w == nil {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		if o.child {
			return childRun(w, o.seed, sc, o.trace != 0, spanDir, o.out)
		}
		return driverRun(man, w, o.seed, sc, o.trace != 0, spanDir)
	}
	return suiteRun(o, sc.probes, spanDir)
}

// driverRun is one run as the benchmark driver invokes it. The report
// goes to standard output first; the last line is the result object with
// exactly the metrics BENCHMARK.json lists for this kind of run.
func driverRun(man *manifest, w *workload, seed int64, sc scale, traced bool, spanDir string) error {
	var r *runResult
	var err error
	wanted := man.EndToEnd
	if traced {
		wanted = man.PerLayer
		tsc := sc
		tsc.window = time.Duration(float64(sc.window) * (1 - probeShare) / 2)
		if r, err = runTraced(w, seed, tsc, spanDir); err != nil {
			return err
		}
		probes, err := runProbes(time.Duration(float64(sc.window) * probeShare))
		if err != nil {
			return err
		}
		r.set.merge(probes)
	} else if r, err = runEndToEnd(w, seed, sc); err != nil {
		return err
	}
	r.print(os.Stdout)

	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]metric{}}
	for _, m := range wanted {
		got, ok := r.set.byKey[m.Name]
		if !ok {
			return fmt.Errorf("%s: BENCHMARK.json lists %s, which this run did not produce", w.name, m.Name)
		}
		line.Metrics[m.Name] = got
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	if !r.Correct {
		return fmt.Errorf("%s: %d of %d ops failed their checks: %v", w.name, r.Failed, r.Attempted, r.Fails)
	}
	if r.Invalid != "" {
		// The result line has no field for this, and lateness already
		// shows in the latencies (they count from the due instant).
		fmt.Fprintf(os.Stderr, "benchmark: %s: %s\n", w.name, r.Invalid)
	}
	return nil
}

// suiteRun is the whole benchmark in one command. Every run is a process
// of its own (startChild), as it is under the driver: inside one process a
// run inherits the heap the earlier ones left behind (heap_end_mb read
// 0.7 MB higher from the second set on), the collector's pace and the
// process's peak RSS.
func suiteRun(o options, probeBudget time.Duration, spanDir string) error {
	report := &suiteReport{Env: currentEnvironment(), Seed: o.seed, Seconds: o.seconds}
	if o.smoke {
		report.Seconds /= 50
	}
	fmt.Printf("commit %s, %s, %s, nproc %d, GOMAXPROCS %d\n\n",
		report.Env.Commit, report.Env.GoVersion, report.Env.CPUModel, report.Env.NProc, report.Env.GOMAXPROCS)
	incorrect, invalid := 0, 0
	run := func(w *workload, traced bool) error {
		r, err := startChild(w, o, traced, spanDir)
		if err != nil {
			return err
		}
		report.Runs = append(report.Runs, r)
		if !r.Correct {
			incorrect++
		}
		if r.Invalid != "" {
			invalid++
		}
		return nil
	}
	// Sets interleave the workloads (A B C D E A B …), so slow drift of
	// the host spreads over all of them instead of biasing one.
	for set := 0; set < o.sets; set++ {
		for i := range workloads {
			if err := run(&workloads[i], false); err != nil {
				return err
			}
		}
	}
	probes, err := runProbes(probeBudget)
	if err != nil {
		return err
	}
	fmt.Println("layer probes")
	probes.print(os.Stdout, "  ")
	fmt.Println()
	report.Probes = probes.byKey
	for i := range workloads {
		if err := run(&workloads[i], true); err != nil {
			return err
		}
	}
	if o.out != "" {
		if err := report.write(o.out); err != nil {
			return err
		}
	}
	fmt.Printf("%d runs, %d incorrect, %d marked INVALID\n", len(report.Runs), incorrect, invalid)
	if incorrect > 0 {
		return fmt.Errorf("%d runs failed their correctness checks", incorrect)
	}
	return nil
}

// startChild runs one workload of the suite in a child process (this
// program with -child) and reads the run back from the file the child
// recorded it in. The child prints the run's report itself.
func startChild(w *workload, o options, traced bool, spanDir string) (*runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(spanDir, 0o755); err != nil {
		return nil, err
	}
	record := filepath.Join(spanDir, "run.json")
	defer os.Remove(record)
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "-child", "-workload", w.name, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-smoke="+strconv.FormatBool(o.smoke),
		"-trace", trace, "-out", record)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	rep, err := readSuiteReport(record)
	if err != nil {
		return nil, err
	}
	if len(rep.Runs) != 1 {
		return nil, fmt.Errorf("%s: the child recorded %d runs", w.name, len(rep.Runs))
	}
	return rep.Runs[0], nil
}

// childRun is one run of the suite, in the child: an end-to-end run, or a
// traced run at a quarter of the window. It prints the report and records
// the run in outPath; a run that failed its checks is recorded as such,
// and counted by the suite.
func childRun(w *workload, seed int64, sc scale, traced bool, spanDir, outPath string) error {
	var r *runResult
	var err error
	if traced {
		sc.window /= 4
		r, err = runTraced(w, seed, sc, spanDir)
	} else {
		r, err = runEndToEnd(w, seed, sc)
	}
	if err != nil {
		return err
	}
	r.print(os.Stdout)
	fmt.Println()
	return (&suiteReport{Runs: []*runResult{r}}).write(outPath)
}
