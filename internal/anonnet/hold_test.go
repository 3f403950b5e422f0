package anonnet

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"anonconsensus/internal/core"
	"anonconsensus/internal/env"
	"anonconsensus/internal/giraf"
	"anonconsensus/internal/property"
)

// holdLatency holds every link for hold beats in rounds [from, from+1] and
// is timely (a fifth of a beat) in every other round.
type holdLatency struct {
	beat       time.Duration
	hold, from int
}

func (l holdLatency) Delay(round, _, _ int) time.Duration {
	if round >= l.from && round <= l.from+1 {
		return time.Duration(l.hold) * l.beat
	}
	return l.beat / 5
}

// TestHeldRoundsKeepAgreement is the wall-clock reproduction of a
// sourceless round: every link is held for h beats in two consecutive
// rounds, far longer than the beat, on a run that is otherwise
// synchronous and free of link faults. A round paced by a count of peer
// envelopes with a silent-beat escape left such rounds without a source,
// and at h ≥ 8 every process decided its own proposal. Rounds paced by
// add-then-get wait for the first round-k envelope instead, so every cell
// must satisfy every property, Termination included, and have a source in
// every round (MS, an obligation of the plane). The cells run concurrently:
// each spends its time waiting, not computing.
func TestHeldRoundsKeepAgreement(t *testing.T) {
	const beat = time.Millisecond
	type cell struct {
		n, hold, from int
		ess           bool
	}
	var cells []cell
	for _, n := range []int{2, 3, 4, 8} {
		for _, ess := range []bool{false, true} {
			for _, hold := range []int{4, 8, 16, 64} {
				for _, from := range []int{1, 2} {
					cells = append(cells, cell{n, hold, from, ess})
				}
			}
		}
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		failures []string
	)
	for _, c := range cells {
		wg.Add(1)
		go func() {
			defer wg.Done()
			name := fmt.Sprintf("n=%d ess=%v hold=%d rounds=[%d,%d]", c.n, c.ess, c.hold, c.from, c.from+1)
			msg := runJudged(Config{
				N:        c.n,
				Interval: beat,
				Latency:  holdLatency{beat: beat, hold: c.hold, from: c.from},
				Timeout:  20 * time.Second,
			}, c.ess)
			if msg != "" {
				mu.Lock()
				failures = append(failures, name+": "+msg)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for _, f := range failures {
		t.Error(f)
	}
}

// runJudged runs cfg, a link-fault-free run of ES automata (ESS if ess)
// with distinct proposals. It returns what the run broke, or "": every
// property of the paper, Termination included, and MS, judged from what
// each automaton computed on.
func runJudged(cfg Config, ess bool) string {
	props := core.DistinctProposals(cfg.N)
	rec := property.NewRecorder(func(i int) giraf.Automaton {
		if ess {
			return core.NewESS(props[i])
		}
		return core.NewES(props[i])
	})
	cfg.Automaton = rec.Automaton
	res, err := Run(context.Background(), cfg)
	if err != nil {
		return err.Error()
	}
	if err := property.CheckMS(&rec.Record, math.MaxInt); err != nil {
		return fmt.Sprintf("%v: %+v", err, res.Procs)
	}
	if vs := property.Check(property.Run{Proposals: core.ProposalSet(props), Outcomes: res.Outcomes(), Promised: true}); len(vs) > 0 {
		return fmt.Sprintf("%v: %+v", vs, res.Procs)
	}
	return ""
}

// TestProfilesKeepMS sweeps the eventually synchronous and eventually
// stable-source latency profiles, synchronous from the start (GST 0) and
// after six rounds of moving-source chaos (GST 6): every link-fault-free
// run must have a source in every round it computed, and satisfy every
// property.
func TestProfilesKeepMS(t *testing.T) {
	const beat = 2 * time.Millisecond
	type cell struct {
		n, gst int
		ess    bool
		seed   int64
	}
	var cells []cell
	for _, n := range []int{2, 3, 4, 8} {
		for _, gst := range []int{0, 6} {
			for _, ess := range []bool{false, true} {
				for _, seed := range []int64{1, 2} {
					cells = append(cells, cell{n, gst, ess, seed})
				}
			}
		}
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		failures []string
	)
	for _, c := range cells {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := Config{N: c.n, Interval: beat, Timeout: 20 * time.Second,
				Latency: env.ESProfile{N: c.n, Interval: beat, Seed: c.seed, GST: c.gst}}
			if c.ess {
				cfg.Latency = env.ESSProfile{N: c.n, Interval: beat, Seed: c.seed, GST: c.gst, Source: c.n - 1}
			}
			if msg := runJudged(cfg, c.ess); msg != "" {
				mu.Lock()
				failures = append(failures, fmt.Sprintf("n=%d gst=%d ess=%v seed=%d: %s", c.n, c.gst, c.ess, c.seed, msg))
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for _, f := range failures {
		t.Error(f)
	}
}
