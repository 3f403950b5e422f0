package expt

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"anonconsensus/internal/core"
	"anonconsensus/internal/sim"
	"anonconsensus/internal/values"
)

// trialParallelism is the configured worker bound for the trial plane;
// 0 means GOMAXPROCS.
var trialParallelism int

// SetParallelism sets how many workers the experiment harness fans
// independent trials across (cmd/anonsim exposes it as -parallel); n ≤ 0
// restores the default, GOMAXPROCS. Rendered tables are byte-identical at
// any setting — trials share nothing and results are collected in
// submission order — so the knob trades wall-clock for cores, never
// output. Call it before running experiments, not concurrently with them.
func SetParallelism(n int) {
	if n < 0 {
		n = 0
	}
	trialParallelism = n
}

func parallelism() int {
	if trialParallelism > 0 {
		return trialParallelism
	}
	return runtime.GOMAXPROCS(0)
}

// check judges a finished run without link faults against the paper's
// properties, Termination included, naming the run in the error.
func check(res *sim.Result, proposals []values.Value, run string) error {
	if vs := res.Check(core.ProposalSet(proposals), nil, true); len(vs) > 0 {
		return fmt.Errorf("%s: %v", run, vs[0])
	}
	return nil
}

// runConfigs fans independent simulation configs across the shared batch
// runner; results come back in submission order.
func runConfigs(cfgs []sim.Config) ([]*sim.Result, error) {
	return sim.RunBatch(context.Background(), cfgs, sim.BatchOpts{Parallelism: parallelism()})
}

// forTrials runs fn(0), …, fn(n-1) across the worker pool for trial loops
// whose runner is not a bare sim.Config (weak-set drivers, Σ autopsies).
// Each fn writes its result into a caller-owned slot i, so collection
// order — and therefore rendered output — matches the sequential loop.
// Every trial runs even when one fails; the first error in index order is
// returned.
func forTrials(n int, fn func(i int) error) error {
	errs := make([]error, n)
	workers := parallelism()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			errs[i] = fn(i)
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			//detlint:goroutine forTrials is the expt arm of the RunBatch pool discipline: workers write caller-owned slots, collection order is the sequential loop's
			go func() {
				defer wg.Done()
				for i := range idx {
					errs[i] = fn(i)
				}
			}()
		}
		for i := 0; i < n; i++ {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
