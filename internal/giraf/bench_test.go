package giraf

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"anonconsensus/internal/values"
)

// The giraf layer of the benchmark ladder: what one delivery and one
// end-of-round cost in the framework alone, at the round sizes a big-n run
// reaches. Payloads are fingerprint-caching value sets (what the core
// algorithms broadcast), warmed before timing, so the numbers are inbox
// work, not hashing.

// benchPayloads returns count distinct payloads numbered from `from`, in a
// seeded shuffled order (arrival order is not key order in a real run),
// with key and fingerprint caches warm.
func benchPayloads(from, count int) []Payload {
	out := make([]Payload, count)
	for i := range out {
		p := setPayload{values.NewSet(values.Num(int64(from + i)))}
		p.PayloadKey()
		p.PayloadFingerprint()
		out[i] = p
	}
	rand.New(rand.NewSource(1)).Shuffle(count, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// readAut reads its whole current round, as Algorithms 2 and 3 do, and
// broadcasts a fixed payload.
type readAut struct{ pay Payload }

func (a *readAut) Initialize() Payload { return a.pay }
func (a *readAut) Compute(k int, in Inbox) (Payload, Decision) {
	benchSink = len(in.Round(k))
	return a.pay, Decision{}
}

var benchSink int

// benchBatch is how many warmed Procs one untimed refill prepares.
const benchBatch = 128

// timeBatches runs b.N ops in batches of benchBatch: prepare(i) rearms
// Proc i outside the reported time, op(i) is the measured call. The
// measured calls cannot restore the state they consume (an inbox only
// grows), and b.StopTimer costs more than a batch of them, so the batches
// are timed with their own clock and reported as ns/op; b.N is still
// calibrated on the whole loop, which keeps the benchmark's wall time at
// -benchtime. Two untimed passes warm every Proc first (a Proc's recycled
// round inboxes swap rounds once before all of them have grown), so
// allocs/op and B/op, which include the refill, read the same at
// -benchtime 1x as at any other.
func timeBatches(b *testing.B, prepare, op func(i int)) {
	for i := 0; i < 2*benchBatch; i++ {
		prepare(i % benchBatch)
		op(i % benchBatch)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var timed time.Duration
	for done := 0; done < b.N; done += benchBatch {
		batch := min(benchBatch, b.N-done)
		for i := 0; i < batch; i++ {
			prepare(i)
		}
		start := time.Now()
		for i := 0; i < batch; i++ {
			op(i)
		}
		timed += time.Since(start)
	}
	b.ReportMetric(float64(timed.Nanoseconds())/float64(b.N), "ns/op")
}

// benchProcs returns benchBatch Procs sharing one automaton.
func benchProcs(aut Automaton) []*Proc {
	procs := make([]*Proc, benchBatch)
	for i := range procs {
		procs[i] = NewProc(aut)
	}
	return procs
}

// BenchmarkReceiveNew: Receive of an envelope carrying one payload the
// round has not seen, into a recycled round inbox already holding 8 / 64 /
// 256 payloads — Algorithm 1's M_i[k] := M_i[k] ∪ M for an element that is
// new, below and above the inboxScanMax threshold.
func BenchmarkReceiveNew(b *testing.B) {
	for _, size := range []int{8, 64, 256} {
		b.Run(fmt.Sprintf("round=%d", size), func(b *testing.B) {
			aut := &staticAut{pay: benchPayloads(1<<30, 1)[0]}
			procs := benchProcs(aut)
			fill := Envelope{Round: 1, Payloads: benchPayloads(0, size), SetFingerprint: values.FingerprintString("fill")}
			extra := Envelope{Round: 1, Payloads: benchPayloads(size, 1), SetFingerprint: values.FingerprintString("extra")}
			timeBatches(b, func(i int) {
				procs[i].Reset(aut)
				procs[i].EndOfRound()
				procs[i].Receive(fill)
			}, func(i int) {
				procs[i].Receive(extra)
			})
		})
	}
}

// BenchmarkReceiveDuplicate: Receive of a 64-payload envelope the round
// already holds — the steady-state delivery, one fingerprint lookup per
// payload and nothing added.
func BenchmarkReceiveDuplicate(b *testing.B) {
	p := NewProc(&staticAut{pay: benchPayloads(1<<30, 1)[0]})
	p.EndOfRound()
	env := Envelope{Round: 1, Payloads: benchPayloads(0, 64), SetFingerprint: values.FingerprintString("seen")}
	p.Receive(env)
	delivered := p.Delivered()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Receive(env)
	}
	if p.Delivered() != delivered {
		b.Fatalf("duplicate deliveries added %d payloads", p.Delivered()-delivered)
	}
}

// BenchmarkEndOfRound: one end-of-round whose Compute reads a round of 64 /
// 256 payloads that arrived out of key order: the sort, the Round(k)
// snapshot, the own-payload merge and the next round's set fingerprint.
func BenchmarkEndOfRound(b *testing.B) {
	for _, size := range []int{64, 256} {
		b.Run(fmt.Sprintf("round=%d", size), func(b *testing.B) {
			aut := &readAut{pay: benchPayloads(1<<30, 1)[0]}
			procs := benchProcs(aut)
			fill := Envelope{Round: 1, Payloads: benchPayloads(0, size-1), SetFingerprint: values.FingerprintString("fill")}
			timeBatches(b, func(i int) {
				procs[i].Reset(aut)
				procs[i].EndOfRound()
				procs[i].Receive(fill)
			}, func(i int) {
				procs[i].EndOfRound()
			})
		})
	}
}
