package main

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"time"

	"anonconsensus"
	"anonconsensus/internal/anonnet"
	"anonconsensus/internal/core"
	"anonconsensus/internal/env"
	"anonconsensus/internal/giraf"
	"anonconsensus/internal/sim"
	"anonconsensus/internal/tcpnet"
	"anonconsensus/internal/values"
	"anonconsensus/internal/wire"
	repoload "anonconsensus/internal/workload"
)

// A layer probe times calls into one internal package's exported
// functions on fixed inputs, so a regression names its layer. Probes are
// independent of the workloads and of -seed.

// timedProbes is the number of prober.timed calls below; the budget of
// runProbes is split evenly between them.
const timedProbes = 23

// timedProbe runs `run(iters)` — which returns the time its measured part
// took — often enough to spend about budget, and returns the median
// nanoseconds per iteration over five repetitions (three when a single
// iteration outlasts a repetition's share).
func timedProbe(budget time.Duration, run func(iters int) time.Duration) float64 {
	// Eight shares: two calibrations, five repetitions, one to spare.
	share := budget / 8
	took := run(1) // also warms caches and lazy state
	reps, iters := 5, 1
	if took > share {
		reps = 3
	}
	// Calibrate twice: one iteration of nanosecond-scale work is mostly
	// clock overhead, so the first estimate is far too high.
	for round := 0; round < 2 && took < share/2; round++ {
		per := max(took/time.Duration(iters), 1)
		iters = int(share / per)
		took = run(iters)
	}
	samples := make([]float64, reps)
	for r := range samples {
		samples[r] = float64(run(iters)) / float64(iters)
	}
	return median(samples)
}

// loop times n calls of f.
func loop(n int, f func()) time.Duration {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f()
	}
	return time.Since(t0)
}

// batched times f over fresh state: prepare(batch) builds `batch` untimed
// inputs, then f(i) runs on each under the clock. Whole batches run; the
// time is scaled back to iters.
func batched(iters, batch int, prepare func(batch int), f func(i int)) time.Duration {
	var total time.Duration
	ran := 0
	for ; ran < iters; ran += batch {
		prepare(batch)
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			f(i)
		}
		total += time.Since(t0)
	}
	return total * time.Duration(iters) / time.Duration(ran)
}

func numSet(from, count int) values.Set {
	vs := make([]values.Value, count)
	for i := range vs {
		vs[i] = values.Num(int64(from + i))
	}
	return values.NewSet(vs...)
}

// stairEnvelope is a round-k envelope of n distinct ES payloads (process
// i's set is {0..i}), with the set fingerprint EndOfRound would attach.
func stairEnvelope(round, n int) giraf.Envelope {
	e := giraf.Envelope{Round: round}
	var h values.Hasher
	for i := 0; i < n; i++ {
		p := core.SetPayload{Proposed: numSet(0, i+1)}
		e.Payloads = append(e.Payloads, p)
		h.WriteFingerprint(p.PayloadFingerprint())
	}
	e.SetFingerprint = h.Sum()
	return e
}

var sink any // keeps probe results alive so calls are not optimised away

// prober collects the probes' metrics in ladder order and remembers the
// first error any of them hit.
type prober struct {
	out  metricSet
	slot time.Duration // budget of one timed probe
	err  error
}

func (p *prober) fail(err error) {
	if err != nil && p.err == nil {
		p.err = err
	}
}

// timed records run's median time per iteration, in ns divided by div.
func (p *prober) timed(name, unit string, div float64, run func(iters int) time.Duration) {
	p.out.add(name, timedProbe(p.slot, run)/div, unit)
}

// runProbes runs every layer probe, spending about `budget` in total on
// the timed ones.
func runProbes(budget time.Duration) (metricSet, error) {
	p := &prober{slot: budget / timedProbes}
	p.values()
	p.wire()
	p.giraf()
	p.coreAndSim()
	p.anonnet()
	p.tcpnet()
	p.nodeAndWorkload()
	return p.out, p.err
}

// values: 64-element sets.
func (p *prober) values() {
	a, b := numSet(0, 64), numSet(32, 64)
	p.timed("values.set_union_ns", "ns", 1, func(n int) time.Duration {
		return loop(n, func() { sink = a.Union(b) })
	})
	elems := a.Sorted()
	var cold []values.Set
	p.timed("values.fingerprint_cold_ns", "ns", 1, func(n int) time.Duration {
		return batched(n, 256, func(batch int) {
			cold = cold[:0]
			for i := 0; i < batch; i++ {
				cold = append(cold, values.NewSet(elems...))
			}
		}, func(i int) { sink = cold[i].Fingerprint() })
	})
	a.Fingerprint()
	p.timed("values.fingerprint_warm_ns", "ns", 1, func(n int) time.Duration {
		return loop(n, func() { sink = a.Fingerprint() })
	})
	p.timed("values.encode_set_ns", "ns", 1, func(n int) time.Duration {
		return loop(n, func() { sink = values.EncodeSet(a) })
	})
	encoded := values.EncodeSet(a)
	p.timed("values.decode_set_ns", "ns", 1, func(n int) time.Duration {
		return loop(n, func() {
			s, err := values.DecodeSet(encoded)
			p.fail(err)
			sink = s
		})
	})
}

// wire: the steady state of an n=16 instance on the mux's 0xD6 epoch
// stream — the same 16-payload set re-broadcast round after round, so
// every frame after the first travels as references. Decoding is the mux
// reader's path: ReadFrame, DecodeDeltaEnvelopeEpoch, Resolve.
func (p *prober) wire() {
	const frames = 1024
	steady := stairEnvelope(1, 16)
	var stream bytes.Buffer
	var writer *wire.EnvelopeWriter
	restart := func(int) {
		stream.Reset()
		writer = wire.NewEnvelopeWriterEpoch(&stream, 1)
		steady.Round = 1
		p.fail(writer.WriteEnvelope(steady))
	}
	resend := func(i int) {
		steady.Round = i + 2
		p.fail(writer.WriteEnvelope(steady))
	}
	p.timed("wire.delta_encode_ns", "ns", 1, func(n int) time.Duration {
		return batched(n, frames, restart, resend)
	})
	restart(0)
	fullBytes := writer.BytesOut
	for i := 0; i < frames; i++ {
		resend(i)
	}
	deltaBytes := float64(writer.BytesOut-fullBytes) / frames
	p.out.add("wire.bytes_per_envelope_delta", deltaBytes, "bytes")
	p.out.add("wire.bytes_per_envelope_full", float64(fullBytes), "bytes")
	p.out.add("wire.delta_ratio", deltaBytes/float64(fullBytes), "ratio")

	logged := append([]byte(nil), stream.Bytes()...)
	var reader *bytes.Reader
	var table *giraf.ResolveTable
	decode := func(int) {
		frame, err := wire.ReadFrame(reader)
		p.fail(err)
		delta, _, err := wire.DecodeDeltaEnvelopeEpoch(frame)
		p.fail(err)
		full, err := table.Resolve(delta)
		p.fail(err)
		sink = full
	}
	p.timed("wire.delta_decode_ns", "ns", 1, func(n int) time.Duration {
		return batched(n, frames, func(int) {
			reader, table = bytes.NewReader(logged), giraf.NewResolveTable()
			decode(0) // the full-form first frame, untimed
		}, decode)
	})
}

// giraf: Receive on the dominance-skip path and on the merging path, and
// EndOfRound (ES Compute over a full round inbox) at n=16 and 64.
func (p *prober) giraf() {
	env16 := stairEnvelope(1, 16)
	skipper := giraf.NewProc(core.NewES(values.Num(0)))
	skipper.EndOfRound()
	skipper.Receive(env16)
	p.timed("giraf.receive_skip_ns", "ns", 1, func(n int) time.Duration {
		return loop(n, func() { skipper.Receive(env16) })
	})
	var procs []*giraf.Proc
	freshProcs := func(batch int) {
		procs = procs[:0]
		for i := 0; i < batch; i++ {
			proc := giraf.NewProc(core.NewES(values.Num(0)))
			proc.EndOfRound()
			procs = append(procs, proc)
		}
	}
	p.timed("giraf.receive_merge_ns", "ns", 1, func(n int) time.Duration {
		return batched(n, 128, freshProcs, func(i int) { procs[i].Receive(env16) })
	})
	for _, n := range []int{16, 64} {
		full := stairEnvelope(1, n)
		p.timed(fmt.Sprintf("giraf.end_of_round_ns.n%d", n), "ns", 1, func(iters int) time.Duration {
			return batched(iters, 128, func(batch int) {
				freshProcs(batch)
				for _, proc := range procs {
					proc.Receive(full)
				}
			}, func(i int) {
				e, _ := procs[i].EndOfRound()
				sink = e
			})
		})
	}
}

// esGST2 is the sim workloads' environment: ES, stable from round 2.
func esGST2(seed int64) core.RunOpts {
	return core.RunOpts{Policy: &env.ES{GST: 2, Pre: env.MS{Seed: seed}}}
}

// coreAndSim: one lockstep round of the whole n=16 ensemble under
// synchrony (core), and whole runs on a pooled engine re-armed per run, as
// the sim transport does (sim).
func (p *prober) coreAndSim() {
	props16 := core.DistinctProposals(16)
	perRound := func(run func() (*sim.Result, error)) func(int) time.Duration {
		return func(n int) time.Duration {
			rounds := 0
			d := loop(n, func() {
				res, err := run()
				p.fail(err)
				if res != nil {
					rounds += res.Rounds
				}
			})
			return d * time.Duration(n) / time.Duration(max(rounds, 1))
		}
	}
	p.timed("core.es_round_us.n16", "us", 1e3, perRound(func() (*sim.Result, error) {
		return core.RunES(props16, core.RunOpts{Policy: env.Synchronous{}})
	}))
	p.timed("core.ess_round_us.n16", "us", 1e3, perRound(func() (*sim.Result, error) {
		return core.RunESS(props16, core.RunOpts{Policy: env.Synchronous{}})
	}))

	pooledRun := func(n int) func(iters int) time.Duration {
		props := core.DistinctProposals(n)
		eng, err := sim.New(core.ConfigES(props, esGST2(0)))
		p.fail(err)
		seed := int64(0)
		return func(iters int) time.Duration {
			if eng == nil {
				return 1
			}
			return loop(iters, func() {
				seed++
				p.fail(eng.Reset(core.ConfigES(props, esGST2(seed))))
				res, err := eng.RunContext(context.Background())
				p.fail(err)
				if res != nil && !res.AllCorrectDecided() {
					p.fail(fmt.Errorf("sim probe n=%d seed %d: undecided", n, seed))
				}
			})
		}
	}
	p.timed("sim.run_us.es4", "us", 1e3, pooledRun(4))
	p.timed("sim.run_ms.es256", "ms", 1e6, pooledRun(256))

	// The paper's message cost, as exact counts of one fixed n=256 run.
	res, err := core.RunES(core.DistinctProposals(256), esGST2(1))
	p.fail(err)
	if err == nil {
		m := res.Metrics
		p.out.add("sim.broadcasts_per_decision", float64(m.Broadcasts), "count")
		p.out.add("sim.deliveries_per_decision", float64(m.Deliveries), "count")
		p.out.add("sim.payload_bytes_per_decision", float64(m.PayloadBytes), "bytes")
		p.out.add("sim.merge_skip_ratio", float64(m.MergesSkipped)/float64(m.Deliveries), "ratio")
		p.out.add("sim.rounds_per_decision", float64(res.Rounds), "rounds")
	}
}

// anonnet: the wall-clock mesh on its own, 2 ms beats: a lone process
// (the single-process floor), then n=3 stabilising at round 0, 2 and 6 —
// with the round the last process decided in, which shows whether pre-GST
// asynchrony still reaches the algorithm.
func (p *prober) anonnet() {
	const beat = 2 * time.Millisecond
	run := func(n, gst int, decideRound *int) func(int) time.Duration {
		props := core.DistinctProposals(n)
		return func(iters int) time.Duration {
			return loop(iters, func() {
				res, err := anonnet.Run(context.Background(), anonnet.Config{
					N:         n,
					Automaton: func(i int) giraf.Automaton { return core.NewES(props[i]) },
					Interval:  beat,
					Latency:   env.ESProfile{N: n, Interval: beat, Seed: 1, GST: gst},
					Timeout:   opDeadline,
				})
				p.fail(err)
				if err != nil {
					return
				}
				if !res.AllCorrectDecided() {
					p.fail(fmt.Errorf("anonnet probe n=%d gst=%d: undecided", n, gst))
				}
				*decideRound = 0
				for _, proc := range res.Procs {
					*decideRound = max(*decideRound, proc.DecidedRound)
				}
			})
		}
	}
	var round int
	p.timed("anonnet.solo_run_ms", "ms", 1e6, run(1, 0, &round))
	for _, gst := range []int{0, 2, 6} {
		p.timed(fmt.Sprintf("anonnet.run_ms.gst%d", gst), "ms", 1e6, run(3, gst, &round))
		if gst != 2 {
			p.out.add(fmt.Sprintf("anonnet.decide_round.gst%d", gst), float64(round), "rounds")
		}
	}
}

// tcpnet: dials into a hub, then instances over an own hub and three mux
// slots on loopback at 4 ms beats. The hub never forgets a session, so the
// dial probe takes a fresh hub every 64 dials and the instance probe its
// own: neither measures a hub carrying thousands of dead sessions.
func (p *prober) tcpnet() {
	ctx := context.Background()
	var hub *tcpnet.Hub
	var open []*tcpnet.MuxNode
	freshHub := func(int) {
		for _, m := range open {
			m.Close()
		}
		open = open[:0]
		if hub != nil {
			hub.Close()
		}
		var err error
		if hub, err = tcpnet.NewHub("127.0.0.1:0"); err != nil {
			p.fail(err)
		}
	}
	dial := func(int) {
		if hub == nil {
			return
		}
		m, err := tcpnet.DialMux(ctx, tcpnet.MuxConfig{HubAddr: hub.Addr()})
		if err != nil {
			p.fail(err)
			return
		}
		open = append(open, m)
	}
	p.timed("tcpnet.dial_mux_ms", "ms", 1e6, func(iters int) time.Duration {
		return batched(iters, 64, freshHub, dial)
	})

	const n = 3
	freshHub(0)
	for i := 0; i < n; i++ {
		dial(i)
	}
	defer freshHub(0)
	if len(open) != n {
		return
	}
	slots := open
	props := core.DistinctProposals(n)
	epoch := uint64(0)
	instance := func() {
		epoch++
		for _, m := range slots {
			p.fail(m.Register(epoch))
		}
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i, m := range slots {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := m.RunInstance(ctx, epoch, tcpnet.InstanceRun{
					Automaton: core.NewES(props[i]), Interval: 4 * time.Millisecond, Timeout: opDeadline, Peers: n})
				if err == nil && !res.Decided {
					err = fmt.Errorf("tcpnet probe: slot %d undecided in epoch %d", i, epoch)
				}
				errs[i] = err
			}()
		}
		wg.Wait()
		for i, m := range slots {
			m.Unregister(epoch)
			p.fail(errs[i])
		}
		hub.RetireEpoch(epoch)
	}
	p.timed("tcpnet.mux_instance_ms", "ms", 1e6, func(iters int) time.Duration { return loop(iters, instance) })
	stats := hub.Stats()
	p.out.add("tcpnet.frames_per_decision", float64(stats.RetiredFrames)/float64(max(stats.EpochsRetired, 1)), "frames")
	p.out.add("tcpnet.replayed_frames", float64(stats.ReplayedFrames), "frames")
}

// nodeAndWorkload: Propose→Wait over a transport that does nothing (what
// remains is the Node), and the repo's own arrival generator (anonload's;
// none of the five workloads use it).
func (p *prober) nodeAndWorkload() {
	node, err := anonconsensus.NewNode(nullTransport{})
	p.fail(err)
	if err == nil {
		proposals := []anonconsensus.Value{anonconsensus.NumValue(1), anonconsensus.NumValue(2), anonconsensus.NumValue(3)}
		p.timed("node.null_roundtrip_us", "us", 1e3, func(n int) time.Duration {
			return loop(n, func() {
				_, err := node.Run(context.Background(), "null", proposals)
				p.fail(err)
			})
		})
		p.fail(node.Close())
	}

	const genOps = 100_000
	p.timed("workload.generate_ns_per_op", "ns", genOps, func(n int) time.Duration {
		return loop(n, func() {
			arr, err := repoload.Generate(repoload.Spec{Seed: 1, Ops: genOps, Rate: 1000, Classes: []repoload.Class{
				{Name: "es4", Weight: 3, Alg: repoload.ES, N: 4, GST: 2},
				{Name: "ess3", Weight: 1, Alg: repoload.ESS, N: 3, GST: 2}}})
			p.fail(err)
			sink = arr
		})
	})
}

// nullTransport decides instantly: every process "decides" the first
// proposal in round 1.
type nullTransport struct{}

func (nullTransport) Name() string { return "null" }
func (nullTransport) Close() error { return nil }
func (nullTransport) Run(_ context.Context, spec anonconsensus.InstanceSpec) (*anonconsensus.Result, error) {
	res := &anonconsensus.Result{Rounds: 1, Decisions: make([]anonconsensus.Decision, len(spec.Proposals))}
	for i := range res.Decisions {
		res.Decisions[i] = anonconsensus.Decision{Proc: i, Decided: true, Value: spec.Proposals[0], Round: 1}
	}
	return res, nil
}
