package expt

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"anonconsensus/internal/env"
	"anonconsensus/internal/obstruction"
	"anonconsensus/internal/values"
)

// runT11: obstruction-free consensus under contention — the related-work
// [9] extension. Sweeps the number of concurrent anonymous proposers and
// reports rounds/attempts until the first decision.
func runT11(w io.Writer, quick bool) error {
	workers := []int{1, 2, 4, 8}
	trials := 30
	if quick {
		workers = []int{1, 4}
		trials = 8
	}
	t := newTable("proposers", "trials", "attempts to decide (mean)", "agreement")
	for _, p := range workers {
		var attemptsTotal int
		agree := true
		for trial := 0; trial < trials; trial++ {
			attempts, ok := runOFTrial(p, int64(trial))
			if !ok {
				agree = false
				continue
			}
			attemptsTotal += attempts
		}
		verdict := "always"
		if !agree {
			verdict = "VIOLATED"
		}
		t.add(p, trials, fmt.Sprintf("%.1f", float64(attemptsTotal)/float64(trials)), verdict)
	}
	return t.write(w)
}

// ofTrialSeed derives the RNG seed for one proposer of one trial. A
// splitmix64-style mix keeps the streams distinct: the previous
// `seed*97+i` offset scheme let (trial, proposer) pairs from nearby
// trials land on the same seed and march through identical backoff
// sequences in lockstep.
func ofTrialSeed(trial int64, proposer int) int64 {
	z := uint64(trial)*0x9E3779B97F4A7C15 + uint64(proposer+1)*0xBF58476D1CE4E5B9
	z ^= z >> 30
	z *= 0x94D049BB133111EB
	z ^= z >> 27
	return int64(z)
}

// runOFTrial races p proposers with randomized backoff until everyone
// holds a decision; it returns the total Propose attempts and whether all
// decisions agreed.
func runOFTrial(p int, seed int64) (attempts int, agreed bool) {
	c := obstruction.NewConsensus()
	var (
		wg         sync.WaitGroup
		mu         sync.Mutex
		decided    = values.NewSet()
		attempts64 int
	)
	for i := 0; i < p; i++ {
		i := i
		wg.Add(1)
		//detlint:goroutine T11 measures real contention between racing proposers; its columns are excluded from the byte-identity pins
		go func() {
			defer wg.Done()
			rng := env.NewRand(ofTrialSeed(seed, i))
			for attempt := 1; ; attempt++ {
				if v, ok := c.Decided(); ok {
					mu.Lock()
					decided.Add(v)
					attempts64 += attempt - 1
					mu.Unlock()
					return
				}
				v, ok, err := c.Propose(values.Num(int64(100+i)), 6)
				if err != nil {
					mu.Lock()
					attempts64 += attempt
					mu.Unlock()
					return
				}
				if ok {
					mu.Lock()
					decided.Add(v)
					attempts64 += attempt
					mu.Unlock()
					return
				}
				// Back off before re-contending. The draw can be 0µs on
				// early attempts, which used to degenerate into a hot spin
				// re-polling Decided with a core pegged per proposer; always
				// give the scheduler a chance, and sleep at least 1µs once
				// contention persists.
				backoff := rng.Intn(1 << uint(minHorizon(attempt, 9)))
				if attempt > 1 && backoff == 0 {
					backoff = 1
				}
				if backoff == 0 {
					runtime.Gosched()
				} else {
					//detlint:wallclock randomized real-time backoff is the obstruction-freedom protocol under test (T11, excluded from byte-identity pins)
					time.Sleep(time.Duration(backoff) * time.Microsecond)
				}
			}
		}()
	}
	wg.Wait()
	return attempts64, decided.Len() == 1
}
