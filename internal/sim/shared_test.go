package sim_test

import (
	"fmt"
	"runtime"
	"testing"

	"anonconsensus/internal/core"
	"anonconsensus/internal/env"
	"anonconsensus/internal/sim"
)

// TestSharedRoundEngages pins where the shared-round path runs, so it
// cannot silently stop engaging: in an ES n=64 run stable from round 2,
// every round from GST on is delivered in one piece, and the pre-GST
// round, whose envelopes the moving source delays per receiver, never is.
func TestSharedRoundEngages(t *testing.T) {
	const gst = 2
	for seed := int64(1); seed <= 5; seed++ {
		cfg := core.ConfigES(core.DistinctProposals(64), core.RunOpts{Policy: &env.ES{GST: gst, Pre: env.MS{Seed: seed}}})
		steps := 0
		cfg.OnRound = func(step int, e *sim.Engine) {
			steps++
			if shared, want := sim.SharedAt(e) == step, step >= gst; shared != want {
				t.Errorf("seed %d, step %d: round delivered in one piece = %v, want %v", seed, step, shared, want)
			}
		}
		res, err := sim.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.AllCorrectDecided() || steps <= gst {
			t.Fatalf("seed %d: run decided = %v after %d steps; the pin needs a decided run past GST", seed, res.AllCorrectDecided(), steps)
		}
	}
}

// TestLateDeliveriesCounted pins where late deliveries are counted instead
// of queued: in an ES n=64 run stable from round 2, the plain run queues no
// per-receiver delivery (each late one of the pre-GST round is a count in
// its arrival step's slot), while the same run recording a trace, or with
// a partition that never comes into force (a link fault all the same),
// queues them. The three runs report the same Metrics but MergesSkipped,
// which counts only the shared rounds the partitioned run never takes.
func TestLateDeliveriesCounted(t *testing.T) {
	run := func(trace bool, sc *env.Scenario) (sim.Metrics, int) {
		t.Helper()
		cfg := core.ConfigES(core.DistinctProposals(64), core.RunOpts{Policy: &env.ES{GST: 2, Pre: env.MS{Seed: 1}}, Scenario: sc})
		cfg.RecordTrace = trace
		queued := 0
		cfg.OnRound = func(_ int, e *sim.Engine) { queued = max(queued, sim.QueuedPerReceiver(e)) }
		res, err := sim.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.AllCorrectDecided() {
			t.Fatal("ES n=64 GST-2 run did not decide")
		}
		m := res.Metrics
		m.MergesSkipped = 0
		return m, queued
	}
	plain, queued := run(false, nil)
	if queued != 0 {
		t.Errorf("plain run queued %d per-receiver deliveries, want every late one counted", queued)
	}
	never := &env.Scenario{Partitions: []env.Partition{{From: 1000, Until: 1001, Cut: 1}}}
	for _, c := range []struct {
		name  string
		trace bool
		sc    *env.Scenario
	}{{"traced", true, nil}, {"partitioned", false, never}} {
		m, queued := run(c.trace, c.sc)
		if queued == 0 {
			t.Errorf("%s run queued no per-receiver delivery, want its late deliveries queued", c.name)
		}
		if m != plain {
			t.Errorf("%s run metrics %+v, plain run %+v (MergesSkipped excused)", c.name, m, plain)
		}
	}
}

// raceEnabled is set by race_test.go: the race detector's instrumentation
// allocates, so the allocation pin skips under -race.
var raceEnabled bool

// TestSharedRoundAllocBudget pins the allocation cost of a pooled ES n=64
// run stable from round 2 — what the sim transport's pool does per
// instance — at the cost it had before rounds were shared plus one
// allocation per step, the step's envelope array the queue entries point
// into. A map or a per-receiver allocation on the shared path would cost
// n per step and break it.
func TestSharedRoundAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	// before is this run's cost when every receiver merged every envelope
	// itself (2,894 averaged over the benchmark's seeds).
	const before = 2959
	cfg := func() sim.Config {
		return core.ConfigES(core.DistinctProposals(64), core.RunOpts{Policy: &env.ES{GST: 2, Pre: env.MS{Seed: 1}}})
	}
	eng, err := sim.New(cfg())
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	run := func() {
		if err := eng.Reset(cfg()); err != nil {
			t.Fatal(err)
		}
		res := eng.Run()
		if !res.AllCorrectDecided() {
			t.Fatal("ES n=64 GST-2 run did not decide")
		}
		steps = res.Rounds + 1 // step 0 initializes
	}
	// Warm the pooled storage: recycled round inboxes swap rounds from run
	// to run and take a few runs until all of them have grown.
	for warm := 0; warm < 4; warm++ {
		run()
	}
	n := testing.AllocsPerRun(10, run)
	t.Logf("%v allocs per run over %d steps", n, steps)
	if budget := before + steps; n > float64(budget) {
		t.Errorf("pooled ES n=64 GST-2 run: %v allocs, budget %d (%d before sharing + one per step)", n, budget, before)
	}
}

// TestSharedRoundPooledMatchesFresh: an engine re-armed from run to run —
// its processes holding recycled storage, its shared round reused —
// produces byte-identical results and process counters to a fresh engine
// per run, over runs that share rounds at different sizes.
func TestSharedRoundPooledMatchesFresh(t *testing.T) {
	configs := func() []sim.Config {
		var cfgs []sim.Config
		for i, n := range []int{64, 8, 3, 64, 16} {
			props := core.DistinctProposals(n)
			if i%2 == 1 {
				props = core.SplitProposals(n, 3)
			}
			es := core.RunOpts{Policy: &env.ES{GST: 2, Pre: env.MS{Seed: int64(i)}}}
			sync := core.RunOpts{Policy: env.Synchronous{}, Scenario: &env.Scenario{Crashes: map[int]int{0: 2}}}
			cfgs = append(cfgs,
				core.ConfigES(props, es),
				core.ConfigESS(props, sync),
				core.ConfigOmega(props, core.EventualOracle(n-1, 2), es))
		}
		return cfgs
	}
	outcome := func(e *sim.Engine) string {
		res := e.Run()
		out := fmt.Sprintf("%+v", *res)
		for i := 0; i < e.N(); i++ {
			p := e.Proc(i)
			out += fmt.Sprintf(" %d/%d", p.Delivered(), p.CurrentRound())
		}
		return out
	}
	var pooled *sim.Engine
	for i, cfg := range configs() {
		if pooled == nil {
			var err error
			if pooled, err = sim.New(cfg); err != nil {
				t.Fatal(err)
			}
		} else if err := pooled.Reset(cfg); err != nil {
			t.Fatal(err)
		}
		got := outcome(pooled)
		fresh, err := sim.New(configs()[i])
		if err != nil {
			t.Fatal(err)
		}
		if want := outcome(fresh); got != want {
			t.Fatalf("run %d: pooled engine\n %s\nfresh engine\n %s", i, got, want)
		}
	}
}

// TestPooledRunBytesBudget pins the bytes a warm pooled ES n=256 run
// stable from round 2 allocates: the sim transport's pooled engine on the
// repo benchmark's sim_bign instance. Its one pre-GST round is read a
// sender row at a time into the engine's one n-length row; an n×n delay
// matrix per round (256 KB at n=256, about 521 KB a run with it) breaks
// the budget.
func TestPooledRunBytesBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const n, runs, budget = 256, 10, 384 << 10
	props := core.DistinctProposals(n)
	cfg := func(seed int64) sim.Config {
		return core.ConfigES(props, core.RunOpts{Policy: &env.ES{GST: 2, Pre: env.MS{Seed: seed}}})
	}
	eng, err := sim.New(cfg(0))
	if err != nil {
		t.Fatal(err)
	}
	run := func(seed int64) {
		if err := eng.Reset(cfg(seed)); err != nil {
			t.Fatal(err)
		}
		if !eng.Run().AllCorrectDecided() {
			t.Fatalf("ES n=%d GST-2 run (seed %d) did not decide", n, seed)
		}
	}
	// Warm the pooled storage, as TestSharedRoundAllocBudget does.
	for warm := 0; warm < 4; warm++ {
		run(0)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 1; i <= runs; i++ {
		run(int64(i))
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d bytes per run", per)
	if per > budget {
		t.Errorf("pooled ES n=%d GST-2 run: %d bytes, budget %d", n, per, budget)
	}
}
