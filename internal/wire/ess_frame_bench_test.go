package wire

import (
	"fmt"
	"testing"

	"anonconsensus/internal/core"
	"anonconsensus/internal/giraf"
)

// essFrameRounds is the length of the run BenchmarkESSFrameBytes measures.
const essFrameRounds = 30

// essFrameBytes runs n ESS processes for rounds rounds under a schedule
// that never lets them decide: every envelope reaches everyone in odd
// rounds and only its sender in even ones, so each odd round's WRITTEN is
// the intersection of n distinct proposals and no even round finds
// WRITTENOLD = {VAL}. Meanwhile every process hears every history, and the
// histories and counter tables grow for the whole run. It returns, per
// round, the mean size of a process's full 0xD6 frame: the bytes a hub
// relays the first time it sees that envelope.
func essFrameBytes(tb testing.TB, n, rounds int) []float64 {
	procs := make([]*giraf.Proc, n)
	props := core.DistinctProposals(n)
	for i := range procs {
		procs[i] = giraf.NewProc(core.NewESS(props[i]))
	}
	out := make([]float64, 0, rounds)
	envs := make([]giraf.Envelope, n)
	for r := 0; r < rounds; r++ {
		total := 0
		for i, p := range procs {
			env, ok := p.EndOfRound()
			if !ok {
				tb.Fatalf("n=%d: process %d decided in round %d; the schedule must keep the run going", n, i, r)
			}
			frame, err := EncodeDeltaEnvelopeEpoch(env, 1)
			if err != nil {
				tb.Fatal(err)
			}
			total += len(frame)
			envs[i] = env
		}
		out = append(out, float64(total)/float64(n))
		for i, p := range procs {
			for j := range procs {
				if j == i || r%2 == 1 {
					p.Receive(envs[j])
				}
			}
		}
	}
	return out
}

// BenchmarkESSFrameBytes reports how an ESS process's full frame grows
// with rounds at n = 3 and n = 16: the mean frame at rounds 1, 10, 20 and
// 30 of a 30-round run, in bytes. It measures whether histories need a
// chain-aware wire form (a history as a reference to its parent plus one
// value): the frame carries every counter entry's whole history, so it
// grows with rounds × distinct histories. Run with -v to print the whole
// curve.
func BenchmarkESSFrameBytes(b *testing.B) {
	for _, n := range []int{3, 16} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var curve []float64
			for i := 0; i < b.N; i++ {
				curve = essFrameBytes(b, n, essFrameRounds)
			}
			for _, r := range []int{1, 10, 20, 30} {
				b.ReportMetric(curve[r-1], fmt.Sprintf("B/frame@r%d", r))
			}
			b.Logf("n=%d mean full frame bytes per round: %.0f", n, curve)
		})
	}
}
