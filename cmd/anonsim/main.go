// Command anonsim regenerates the reproduction experiments (EXPERIMENTS.md
// tables T1–T10, figures F1–F3, the S1 scenario sweep and the X1/X2
// exploration tables) from scratch, profiles one big synchronous run, and
// fronts the exploration plane (randomized schedule search and
// counterexample replay).
//
// Usage:
//
//	anonsim -list            list experiments
//	anonsim -exp T3          run one experiment
//	anonsim -exp S1          scenario sweep: loss/duplication/partition grid
//	anonsim -all             run the whole suite
//	anonsim -all -quick      shrunken grids (seconds instead of minutes)
//	anonsim -all -parallel 4 fan trials across 4 workers (same bytes out)
//	anonsim -es 256 -cpuprofile cpu.out  profile one synchronous ES run
//
//	anonsim -explore                        randomized schedule search
//	anonsim -explore -n 8 -trials 10000     ... at chosen size and budget
//	anonsim -explore -scenarios 60 -env ess ... with 60% adversary trials
//	anonsim -replay 'alg=ES;props=…;sched=…' replay a counterexample trace
//
// Experiment trials and exploration trials are independent, so -parallel
// only changes wall-clock time: tables and exploration reports are
// byte-identical at any worker count (0, the default, uses every core; 1
// forces the sequential path).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"anonconsensus"
	"anonconsensus/internal/core"
	"anonconsensus/internal/env"
	"anonconsensus/internal/expt"
)

// cliOpts carries the parsed command line.
type cliOpts struct {
	list     bool
	expID    string
	all      bool
	quick    bool
	parallel int

	explore     bool
	exploreN    int
	trials      int
	seed        int64
	envName     string
	scenarioPct int
	replay      string

	singleES   int
	cpuprofile string
	memprofile string
}

func main() {
	var o cliOpts
	flag.BoolVar(&o.list, "list", false, "list experiments and exit")
	flag.StringVar(&o.expID, "exp", "", "run a single experiment (T1..T11, F1..F3, X1, X2, S1)")
	flag.BoolVar(&o.all, "all", false, "run the whole suite")
	flag.BoolVar(&o.quick, "quick", false, "shrink parameter grids for a fast pass")
	flag.IntVar(&o.parallel, "parallel", 0, "workers for experiment/exploration trials (0 = all cores, 1 = sequential); output is byte-identical at any setting")
	flag.BoolVar(&o.explore, "explore", false, "run the randomized exploration plane (PCT-style schedule search; see -n, -trials, -seed, -env, -scenarios)")
	flag.IntVar(&o.exploreN, "n", 4, "exploration: number of processes (1..16)")
	flag.IntVar(&o.trials, "trials", 5000, "exploration: number of randomized trials")
	flag.Int64Var(&o.seed, "seed", 1, "exploration: search seed (identical seeds reproduce the whole search)")
	flag.StringVar(&o.envName, "env", "es", "exploration: algorithm under test (es or ess)")
	flag.IntVar(&o.scenarioPct, "scenarios", 50, "exploration: percentage of trials that overlay a random fault scenario")
	flag.StringVar(&o.replay, "replay", "", "replay a canonical exploration trace and report its violations")
	flag.IntVar(&o.singleES, "es", 0, "run one synchronous ES consensus at this size and print metrics (the big-n profiling workload; see -cpuprofile)")
	flag.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile of the whole run to this file (go tool pprof)")
	flag.StringVar(&o.memprofile, "memprofile", "", "write a heap profile to this file at exit (go tool pprof)")
	flag.Parse()

	if err := withProfiles(o, run); err != nil {
		fmt.Fprintln(os.Stderr, "anonsim:", err)
		os.Exit(1)
	}
}

// withProfiles wraps fn with the -cpuprofile/-memprofile collection so any
// anonsim workload — an experiment, the explorer, a -es big-n run — can be
// profiled without a test harness (see PERFORMANCE.md "Profiling a run").
func withProfiles(o cliOpts, fn func(cliOpts) error) error {
	if o.cpuprofile != "" {
		f, err := os.Create(o.cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if o.memprofile != "" {
		defer func() {
			f, err := os.Create(o.memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "anonsim: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "anonsim: memprofile:", err)
			}
		}()
	}
	return fn(o)
}

func run(o cliOpts) error {
	expt.SetParallelism(o.parallel)
	switch {
	case o.list:
		for _, e := range expt.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return nil
	case o.replay != "":
		return runReplay(o.replay)
	case o.singleES > 0:
		return runSingleES(o.singleES)
	case o.explore:
		return runExplore(o)
	case o.expID != "":
		e, ok := expt.ByID(o.expID)
		if !ok {
			return fmt.Errorf("unknown experiment %q (use -list)", o.expID)
		}
		return runOne(e, o.quick)
	case o.all:
		for _, e := range expt.All() {
			if err := runOne(e, o.quick); err != nil {
				return err
			}
		}
		return nil
	default:
		flag.Usage()
		return fmt.Errorf("nothing to do: pass -list, -exp, -all, -explore or -replay")
	}
}

// runExplore drives the public exploration API: a randomized PCT-style
// schedule search whose report (violations, shrunk counterexamples) is a
// pure function of the flags.
func runExplore(o cliOpts) error {
	env, err := anonconsensus.ParseEnvironment(o.envName)
	if err != nil {
		return err
	}
	proposals := make([]anonconsensus.Value, o.exploreN)
	for i := range proposals {
		proposals[i] = anonconsensus.NumValue(int64(i))
	}
	fmt.Printf("== explore: randomized search, %s n=%d trials=%d seed=%d scenarios=%d%% ==\n",
		env, o.exploreN, o.trials, o.seed, o.scenarioPct)
	start := time.Now()
	rep, err := anonconsensus.Explore(anonconsensus.ExploreConfig{
		Proposals:   proposals,
		Env:         env,
		Mode:        anonconsensus.ExploreRandom,
		Trials:      o.trials,
		Seed:        o.seed,
		ScenarioPct: o.scenarioPct,
		Parallelism: o.parallel,
	})
	if err != nil {
		return err
	}
	if err := rep.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("(explored in %s)\n", time.Since(start).Round(time.Millisecond))
	if !rep.Verified() {
		return fmt.Errorf("exploration found %d violations", len(rep.Violations))
	}
	return nil
}

// runSingleES executes one synchronous ES consensus with n distinct
// proposals and prints the run's metrics: the canonical big-n workload for
// -cpuprofile/-memprofile sessions.
func runSingleES(n int) error {
	props := core.DistinctProposals(n)
	start := time.Now()
	res, err := core.RunES(props, core.RunOpts{Policy: env.Synchronous{}})
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	if !res.AllCorrectDecided() {
		return fmt.Errorf("-es %d: run did not decide within the round bound", n)
	}
	m := res.Metrics
	fmt.Printf("ES n=%d synchronous: decided in %d rounds (%s wall)\n",
		n, res.Rounds, elapsed.Round(time.Microsecond))
	fmt.Printf("  broadcasts=%d deliveries=%d merges-skipped=%d dropped=%d\n",
		m.Broadcasts, m.Deliveries, m.MergesSkipped, m.Dropped)
	fmt.Printf("  payload-bytes=%d max-envelope=%d\n", m.PayloadBytes, m.MaxEnvelopeBytes)
	return nil
}

// runReplay re-executes one canonical trace — typically a shrunk
// counterexample pasted from an exploration report.
func runReplay(text string) error {
	tr, err := anonconsensus.ParseTrace(text)
	if err != nil {
		return err
	}
	rep, err := anonconsensus.Replay(tr)
	if err != nil {
		return err
	}
	if err := rep.Render(os.Stdout); err != nil {
		return err
	}
	if !rep.Verified() {
		return fmt.Errorf("replay reproduced %d violations", len(rep.Violations))
	}
	return nil
}

func runOne(e expt.Experiment, quick bool) error {
	fmt.Printf("== %s: %s ==\n", e.ID, e.Title)
	start := time.Now()
	if err := e.Run(os.Stdout, quick); err != nil {
		return fmt.Errorf("%s: %w", e.ID, err)
	}
	fmt.Printf("(%s in %s)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	return nil
}
