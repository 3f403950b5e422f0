package anonnet

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"anonconsensus/internal/core"
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
// must satisfy every property, Termination included. The cells run
// concurrently: each spends its time waiting, not computing.
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
			props := core.DistinctProposals(c.n)
			aut := func(i int) giraf.Automaton { return core.NewES(props[i]) }
			if c.ess {
				aut = func(i int) giraf.Automaton { return core.NewESS(props[i]) }
			}
			res, err := Run(context.Background(), Config{
				N:         c.n,
				Automaton: aut,
				Interval:  beat,
				Latency:   holdLatency{beat: beat, hold: c.hold, from: c.from},
				Timeout:   20 * time.Second,
			})
			var msg string
			if err != nil {
				msg = err.Error()
			} else if vs := property.Check(property.Run{Proposals: core.ProposalSet(props), Outcomes: res.Outcomes(), Promised: true}); len(vs) > 0 {
				msg = fmt.Sprintf("%v: %+v", vs, res.Procs)
			}
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
