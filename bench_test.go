package anonconsensus_test

import (
	"context"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"anonconsensus"
	"anonconsensus/internal/core"
	"anonconsensus/internal/env"
	"anonconsensus/internal/expt"
	"anonconsensus/internal/giraf"
	"anonconsensus/internal/msemu"
	"anonconsensus/internal/register"
	"anonconsensus/internal/sim"
	"anonconsensus/internal/values"
	"anonconsensus/internal/weakset"
)

// ---------------------------------------------------------------------------
// One benchmark per experiment table/figure (T1–T10, F1–F3). Each runs the
// exact harness entry point cmd/anonsim uses, in quick mode, so `go test
// -bench .` regenerates every result end to end.

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := expt.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := e.Run(io.Discard, true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkT1ESDecision(b *testing.B)          { benchExperiment(b, "T1") }
func BenchmarkT2ESLateGST(b *testing.B)           { benchExperiment(b, "T2") }
func BenchmarkT3ESSDecision(b *testing.B)         { benchExperiment(b, "T3") }
func BenchmarkT4LeaderConvergence(b *testing.B)   { benchExperiment(b, "T4") }
func BenchmarkT5Crashes(b *testing.B)             { benchExperiment(b, "T5") }
func BenchmarkT6MessageComplexity(b *testing.B)   { benchExperiment(b, "T6") }
func BenchmarkT7WeakSetMS(b *testing.B)           { benchExperiment(b, "T7") }
func BenchmarkT8Registers(b *testing.B)           { benchExperiment(b, "T8") }
func BenchmarkT9MSEmulation(b *testing.B)         { benchExperiment(b, "T9") }
func BenchmarkT10Sigma(b *testing.B)              { benchExperiment(b, "T10") }
func BenchmarkF1LatencyDistribution(b *testing.B) { benchExperiment(b, "F1") }
func BenchmarkF2LeaderTimeline(b *testing.B)      { benchExperiment(b, "F2") }
func BenchmarkF3MSNoConsensus(b *testing.B)       { benchExperiment(b, "F3") }
func BenchmarkS1ScenarioSweep(b *testing.B)       { benchExperiment(b, "S1") }

// ---------------------------------------------------------------------------
// Micro-benchmarks: the primitives the tables are built from.

func BenchmarkESConsensusRound(b *testing.B) {
	for _, n := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			props := core.DistinctProposals(n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := core.RunES(props, core.RunOpts{Policy: env.Synchronous{}})
				if err != nil {
					b.Fatal(err)
				}
				if !res.AllCorrectDecided() {
					b.Fatal("undecided")
				}
			}
		})
	}
}

// BenchmarkESConsensus measures one big-n ES consensus run end to end on a
// reused engine: the flat-state engine's headline numbers (PERFORMANCE.md
// "Flat-state engine and dominance-aware merging"). At these sizes the
// per-round delivery fan-out is n² envelopes, so the benchmark is dominated
// by exactly the paths the dominance check and the flat state target.
// n=1024 is skipped in short mode; `make bench-smoke` runs both.
func BenchmarkESConsensus(b *testing.B) {
	for _, n := range []int{256, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			if n > 256 && testing.Short() {
				b.Skip("n=1024 single runs are slow; run without -short")
			}
			props := core.DistinctProposals(n)
			mk := func() sim.Config {
				return core.ConfigES(props, core.RunOpts{Policy: env.Synchronous{}})
			}
			eng, err := sim.New(mk())
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := eng.Run()
				if !res.AllCorrectDecided() {
					b.Fatal("undecided")
				}
				if err := eng.Reset(mk()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkESConsensusLossy is the BenchmarkESConsensusRound workload with
// the scenario plane's link faults dialed in (10% loss, 10% duplication):
// it measures what the per-delivery fault draws and the extra duplicate
// deliveries cost on the hot path. Termination is not asserted — loss
// deliberately voids the guarantee; the run bound caps the work instead.
func BenchmarkESConsensusLossy(b *testing.B) {
	for _, n := range []int{16, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			props := core.DistinctProposals(n)
			b.ReportAllocs()
			rounds := 0
			for i := 0; i < b.N; i++ {
				res, err := core.RunES(props, core.RunOpts{
					Policy:   &env.ES{GST: 6, Pre: env.MS{Seed: int64(i)}},
					Scenario: &env.Scenario{Seed: int64(i), LossPct: 10, DupPct: 10},
				})
				if err != nil {
					b.Fatal(err)
				}
				rounds += res.Rounds
			}
			if rounds == 0 {
				b.Fatal("no rounds executed")
			}
		})
	}
}

func BenchmarkESSConsensusRound(b *testing.B) {
	for _, n := range []int{4, 16} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			props := core.DistinctProposals(n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := core.RunESS(props, core.RunOpts{
					Policy:    &env.ESS{GST: 6, StableSource: 0, Pre: env.MS{Seed: int64(i)}},
					MaxRounds: 400,
				})
				if err != nil {
					b.Fatal(err)
				}
				if !res.AllCorrectDecided() {
					b.Fatal("undecided")
				}
			}
		})
	}
}

func BenchmarkWeakSetAddLatency(b *testing.B) {
	ops := []weakset.ScheduledOp{{Proc: 0, Round: 1, Kind: weakset.OpAdd, Value: values.Num(1)}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := weakset.RunMS(5, ops, &env.MS{Seed: int64(i), MaxDelay: 3}, 60, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.CompletedAdds()) != 1 {
			b.Fatal("add incomplete")
		}
	}
}

func BenchmarkABDWrite(b *testing.B) {
	for _, n := range []int{3, 5, 9} {
		b.Run(fmt.Sprintf("replicas=%d", n), func(b *testing.B) {
			cluster := register.NewABD(n)
			defer cluster.Close()
			w := cluster.Writer(1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := w.Write(values.Num(int64(i))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkABDRead(b *testing.B) {
	cluster := register.NewABD(5)
	defer cluster.Close()
	if err := cluster.Write(values.Num(1)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.Read(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRegisterFromWeakSet measures a whole register session — 64
// write+read pairs against a fresh weak set — as one op. Bounding the
// session matters: the paper's construction adds a (rank, value) pair on
// every write, so a set shared across iterations grows without bound and
// the reported ns/op would be an artifact of the iteration count.
func BenchmarkRegisterFromWeakSet(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var ws weakset.Memory
		reg := register.NewFromWeakSet(&ws)
		for j := 0; j < 64; j++ {
			if err := reg.Write(values.Num(int64(j))); err != nil {
				b.Fatal(err)
			}
			if _, err := reg.Read(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkMSEmulationRound(b *testing.B) {
	props := core.DistinctProposals(4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := msemu.Run(msemu.Config{
			N:         4,
			Automaton: func(j int) giraf.Automaton { return core.NewES(props[j]) },
			Codec:     msemu.SetCodec{},
			Set:       &weakset.Memory{},
			MaxRounds: 20,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Errs) > 0 {
			b.Fatal(res.Errs)
		}
	}
}

func BenchmarkLiveSolve(b *testing.B) {
	// Real-time rounds: the interval must leave generous headroom for
	// scheduler noise under benchmark load, or "timely" sleeps overshoot
	// and the ES guarantee silently degrades.
	props := []anonconsensus.Value{
		anonconsensus.NumValue(1), anonconsensus.NumValue(2), anonconsensus.NumValue(3),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := anonconsensus.RunOnceForTest(anonconsensus.NewLiveTransport(), props,
			anonconsensus.WithEnv(anonconsensus.EnvES), anonconsensus.WithGST(2),
			anonconsensus.WithInterval(10*time.Millisecond), anonconsensus.WithTimeout(60*time.Second))
		if err != nil {
			b.Fatal(err)
		}
		if _, ok := res.Agreed(); !ok {
			b.Fatal("no agreement")
		}
	}
}

func BenchmarkHistoryCounters(b *testing.B) {
	// The pseudo-leader data structure on a deep history (the ESS hot path).
	h := values.NewHistory(values.Num(1))
	for i := 0; i < 64; i++ {
		h = h.Append(values.Num(int64(i % 3)))
	}
	c := values.NewCounters()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Bump(h)
		if !c.IsMaximal(h) {
			b.Fatal("bumped history must be maximal")
		}
	}
}

// ---------------------------------------------------------------------------
// Trial-plane benchmarks: engine reuse and the batch runner.

// esBatchConfigs builds one ES trial grid (fresh policies every call).
func esBatchConfigs(runs, n int) []sim.Config {
	cfgs := make([]sim.Config, runs)
	props := core.DistinctProposals(n)
	for i := range cfgs {
		cfgs[i] = core.ConfigES(props, core.RunOpts{
			Policy: &env.ES{GST: 8, Pre: env.MS{Seed: int64(i), MaxDelay: 3}},
		})
	}
	return cfgs
}

// BenchmarkESEngineReuse runs the same workload as
// BenchmarkESConsensusRound but on one engine rearmed with Engine.Reset,
// isolating what the pooled procs + ring buffer save per run.
func BenchmarkESEngineReuse(b *testing.B) {
	for _, n := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			props := core.DistinctProposals(n)
			mk := func() sim.Config {
				return core.ConfigES(props, core.RunOpts{Policy: env.Synchronous{}})
			}
			eng, err := sim.New(mk())
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := eng.Run()
				if !res.AllCorrectDecided() {
					b.Fatal("undecided")
				}
				if err := eng.Reset(mk()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBatchES measures a 64-run ES trial grid through RunBatch,
// sequentially and at full parallelism; the gap is the multicore speedup
// of the trial plane (identical bytes out either way).
func BenchmarkBatchES(b *testing.B) {
	for _, par := range []int{1, 0} {
		name := fmt.Sprintf("parallel=%d", par)
		if par == 0 {
			name = "parallel=max"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				results, err := sim.RunBatch(context.Background(), esBatchConfigs(64, 8), sim.BatchOpts{Parallelism: par})
				if err != nil {
					b.Fatal(err)
				}
				for _, res := range results {
					if !res.AllCorrectDecided() {
						b.Fatal("undecided")
					}
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Multi-tenant service benchmarks: sustained throughput through a Node
// session (Propose/Wait over a worker pool), reported as decisions/sec
// (instances decided per second) and queue-ms (mean per-instance queue
// wait). The decisions/sec figure rides into BENCH_consensus.json as a
// custom metric via tools/benchjson.

// benchServiceThroughput pushes `instances` consensus instances through
// one Node from `producers` concurrent proposers, each Proposing
// (blocking on queue backpressure) and Waiting its own instances.
func benchServiceThroughput(b *testing.B, mk func() anonconsensus.Transport, instances int, opts ...anonconsensus.Option) {
	b.Helper()
	b.ReportAllocs()
	const producers = 16
	var totalSec, totalQueueMs float64
	for i := 0; i < b.N; i++ {
		node, err := anonconsensus.NewNode(mk(), opts...)
		if err != nil {
			b.Fatal(err)
		}
		start := time.Now()
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			p := p
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := p; j < instances; j += producers {
					id := fmt.Sprintf("b%d-i%d", i, j)
					if err := node.Propose(context.Background(), id,
						[]anonconsensus.Value{
							anonconsensus.NumValue(int64(j)),
							anonconsensus.NumValue(int64(j + 1)),
							anonconsensus.NumValue(int64(j + 2)),
						},
						anonconsensus.WithSeed(int64(j))); err != nil {
						b.Error(err)
						return
					}
					if _, err := node.Wait(context.Background(), id); err != nil {
						b.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		elapsed := time.Since(start)
		stats := node.Stats()
		if err := node.Close(); err != nil {
			b.Fatal(err)
		}
		if stats.Completed != int64(instances) {
			b.Fatalf("completed %d of %d instances", stats.Completed, instances)
		}
		totalSec += elapsed.Seconds()
		totalQueueMs += stats.QueueWait.Seconds() * 1e3 / float64(instances)
	}
	b.ReportMetric(float64(instances)*float64(b.N)/totalSec, "decisions/sec")
	b.ReportMetric(totalQueueMs/float64(b.N), "queue-ms")
}

// BenchmarkServiceSimBaseline1k is the pre-PR baseline: sequential
// session (k=1) over the unpooled sim transport (fresh engine per Run).
func BenchmarkServiceSimBaseline1k(b *testing.B) {
	benchServiceThroughput(b, anonconsensus.NewSimTransportUnpooledForTest, 1000,
		anonconsensus.WithEnv(anonconsensus.EnvES), anonconsensus.WithGST(2))
}

// BenchmarkServiceSimSequential1k isolates the engine pool: still k=1,
// but Run reuses pooled engines via Reset instead of allocating.
func BenchmarkServiceSimSequential1k(b *testing.B) {
	benchServiceThroughput(b, anonconsensus.NewSimTransport, 1000,
		anonconsensus.WithEnv(anonconsensus.EnvES), anonconsensus.WithGST(2))
}

// BenchmarkServiceSimPooled1k adds the worker pool (k=8) on top of the
// engine pool. The sim backend is CPU-bound, so the speedup over
// Sequential1k tracks the core count — on a single-core host the win is
// confined to the allocation savings, and the ≥4× multiplexing headline
// shows on the timer-bound live/TCP backends instead (PERFORMANCE.md).
func BenchmarkServiceSimPooled1k(b *testing.B) {
	benchServiceThroughput(b, anonconsensus.NewSimTransport, 1000,
		anonconsensus.WithEnv(anonconsensus.EnvES), anonconsensus.WithGST(2),
		anonconsensus.WithMaxInFlight(8), anonconsensus.WithQueueDepth(256))
}

// BenchmarkServiceSim10k is the sustained-load shape: 10k instances
// through one session.
func BenchmarkServiceSim10k(b *testing.B) {
	if testing.Short() {
		b.Skip("10k-instance sustained run; run without -short")
	}
	benchServiceThroughput(b, anonconsensus.NewSimTransport, 10000,
		anonconsensus.WithEnv(anonconsensus.EnvES), anonconsensus.WithGST(2),
		anonconsensus.WithMaxInFlight(8), anonconsensus.WithQueueDepth(256))
}

// BenchmarkServiceLiveSequential / Pool16: the live backend's rounds are
// real timers, so overlapping instances overlap their timer waits — the
// pool multiplies throughput even on one core.
func BenchmarkServiceLiveSequential(b *testing.B) {
	benchServiceThroughput(b, anonconsensus.NewLiveTransport, 48,
		anonconsensus.WithEnv(anonconsensus.EnvES), anonconsensus.WithGST(0),
		anonconsensus.WithInterval(2*time.Millisecond), anonconsensus.WithTimeout(30*time.Second))
}

func BenchmarkServiceLivePool16(b *testing.B) {
	benchServiceThroughput(b, anonconsensus.NewLiveTransport, 48,
		anonconsensus.WithEnv(anonconsensus.EnvES), anonconsensus.WithGST(0),
		anonconsensus.WithInterval(2*time.Millisecond), anonconsensus.WithTimeout(30*time.Second),
		anonconsensus.WithMaxInFlight(16), anonconsensus.WithQueueDepth(64))
}

// BenchmarkServiceTCPMux runs the multiplexed TCP plane: every instance
// is an epoch on ONE shared hub and three persistent connections.
func BenchmarkServiceTCPMux(b *testing.B) {
	benchServiceThroughput(b, anonconsensus.NewTCPMuxTransport, 32,
		anonconsensus.WithEnv(anonconsensus.EnvES), anonconsensus.WithGST(0),
		anonconsensus.WithInterval(4*time.Millisecond), anonconsensus.WithTimeout(30*time.Second),
		anonconsensus.WithMaxInFlight(8), anonconsensus.WithQueueDepth(64))
}

// benchWorkloadSpec is the shared two-class mix the workload benchmarks
// drive: a bulk ES class and an interactive ESS class, Poisson arrivals.
func benchWorkloadSpec(ops int, rate float64) anonconsensus.WorkloadSpec {
	return anonconsensus.WorkloadSpec{
		Seed: 42, Ops: ops, Rate: rate,
		Classes: []anonconsensus.WorkloadClass{
			{Name: "bulk", Weight: 3, Env: anonconsensus.EnvES, N: 4, GST: 2},
			{Name: "interactive", Weight: 1, Env: anonconsensus.EnvESS, N: 3, GST: 2, StableSource: 0},
		},
	}
}

// reportWorkloadPercentiles turns per-iteration summaries into the
// p50_ms/p95_ms/p99_ms custom metrics the benchmark trajectory tracks
// (benchjson parses any `<value> <unit>` pair; compare mode reports these
// without gating on them).
func reportWorkloadPercentiles(b *testing.B, sums []anonconsensus.WorkloadSummary) {
	b.Helper()
	var p50, p95, p99, shed float64
	for _, s := range sums {
		p50 += s.P50.Seconds() * 1e3
		p95 += s.P95.Seconds() * 1e3
		p99 += s.P99.Seconds() * 1e3
		shed += s.ShedPct
	}
	n := float64(len(sums))
	b.ReportMetric(p50/n, "p50_ms")
	b.ReportMetric(p95/n, "p95_ms")
	b.ReportMetric(p99/n, "p99_ms")
	b.ReportMetric(shed/n, "shed_pct")
}

// BenchmarkWorkloadSimVirtual runs the deterministic virtual plane: the
// cost is the per-proposal simulator runs plus the queueing model, and
// the percentiles it reports are the W1 experiment's raw material.
func BenchmarkWorkloadSimVirtual(b *testing.B) {
	spec := benchWorkloadSpec(400, 300)
	spec.Servers = 8
	spec.QueueDepth = 16
	spec.AdmitRate = 500
	spec.AdmitBurst = 32
	b.ReportAllocs()
	sums := make([]anonconsensus.WorkloadSummary, 0, b.N)
	for i := 0; i < b.N; i++ {
		res, err := anonconsensus.SimulateWorkload(context.Background(), spec)
		if err != nil {
			b.Fatal(err)
		}
		sums = append(sums, res.Summary())
	}
	reportWorkloadPercentiles(b, sums)
}

// BenchmarkWorkloadLiveNode drives the open-loop generator against a real
// Node over the live in-process transport: wall-clock arrivals, the
// node's own worker pool and admission, measured decision latencies.
func BenchmarkWorkloadLiveNode(b *testing.B) {
	spec := benchWorkloadSpec(64, 2000)
	b.ReportAllocs()
	sums := make([]anonconsensus.WorkloadSummary, 0, b.N)
	for i := 0; i < b.N; i++ {
		node, err := anonconsensus.NewNode(anonconsensus.NewLiveTransport(),
			anonconsensus.WithInterval(2*time.Millisecond),
			anonconsensus.WithTimeout(30*time.Second),
			anonconsensus.WithMaxInFlight(16), anonconsensus.WithQueueDepth(64))
		if err != nil {
			b.Fatal(err)
		}
		res, err := anonconsensus.RunWorkload(context.Background(), node, spec)
		if err != nil {
			b.Fatal(err)
		}
		if err := node.Close(); err != nil {
			b.Fatal(err)
		}
		s := res.Summary()
		if s.Done == 0 {
			b.Fatal("no proposal served")
		}
		sums = append(sums, s)
	}
	reportWorkloadPercentiles(b, sums)
}

// BenchmarkPublicRunBatch exercises the public fan-out entry point.
func BenchmarkPublicRunBatch(b *testing.B) {
	items := make([]anonconsensus.BatchItem, 32)
	for i := range items {
		items[i] = anonconsensus.BatchItem{
			Proposals: []anonconsensus.Value{
				anonconsensus.NumValue(1), anonconsensus.NumValue(2), anonconsensus.NumValue(3),
			},
			Opts: []anonconsensus.Option{anonconsensus.WithSeed(int64(i))},
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		results, err := anonconsensus.RunBatch(context.Background(), items,
			anonconsensus.WithEnv(anonconsensus.EnvES), anonconsensus.WithGST(6))
		if err != nil {
			b.Fatal(err)
		}
		for _, res := range results {
			if _, ok := res.Agreed(); !ok {
				b.Fatal("no agreement")
			}
		}
	}
}
