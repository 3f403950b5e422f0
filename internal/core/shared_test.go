package core

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"testing"

	"anonconsensus/internal/env"
	"anonconsensus/internal/giraf"
	"anonconsensus/internal/property"
	"anonconsensus/internal/sim"
	"anonconsensus/internal/values"
	"anonconsensus/internal/weakset"
)

// sharedCase is one run of the shared-round parity check.
type sharedCase struct {
	n         int
	aut       string // "ES", "ESS", "Omega" or "weakset"
	pol       string // "Synchronous", "ES", "ESS", "MS" or "Async"
	gst       int
	seed      int64
	distinct  bool // distinct proposals; otherwise three camps
	crashStep int  // process 0 crashes at this step; 0 means never
	maxRounds int
	// maxDelay bounds the policy's late delays; 0 keeps the case's default
	// (at most 3). A bound past the engine's 8-slot delivery ring makes it
	// grow mid-run.
	maxDelay int
}

var (
	sharedAutomata = []string{"ES", "ESS", "Omega", "weakset"}
	sharedPolicies = []string{"Synchronous", "ES", "ESS", "MS", "Async"}
)

func (c sharedCase) String() string {
	return fmt.Sprintf("%s/%s/n=%d/gst=%d/seed=%d/distinct=%v/crash=%d/max=%d/delay=%d",
		c.aut, c.pol, c.n, c.gst, c.seed, c.distinct, c.crashStep, c.maxRounds, c.maxDelay)
}

func (c sharedCase) policy() env.Policy {
	switch c.pol {
	case "Synchronous":
		return env.Synchronous{}
	case "ES":
		return &env.ES{GST: c.gst, Pre: env.MS{Seed: c.seed, MaxDelay: c.maxDelay}}
	case "ESS":
		return &env.ESS{GST: c.gst, StableSource: c.n - 1, PostTimelyPct: 100, Pre: env.MS{Seed: c.seed, MaxDelay: cmp.Or(c.maxDelay, 2)}}
	case "MS":
		return &env.MS{Seed: c.seed, MaxDelay: cmp.Or(c.maxDelay, 2), ExtraTimelyPct: 70}
	default:
		return &env.Async{Seed: c.seed, MaxDelay: cmp.Or(c.maxDelay, 1)}
	}
}

// config builds the case's run with the given link faults added to its
// crash schedule.
func (c sharedCase) config(faults env.Scenario) sim.Config {
	props := SplitProposals(c.n, 3)
	if c.distinct {
		props = DistinctProposals(c.n)
	}
	sc := &faults
	if c.crashStep > 0 {
		sc.Crashes = map[int]int{0: c.crashStep}
	}
	if sc.Empty() {
		sc = nil
	}
	opts := RunOpts{Policy: c.policy(), Scenario: sc, MaxRounds: c.maxRounds}
	switch c.aut {
	case "ES":
		return ConfigES(props, opts)
	case "ESS":
		return ConfigESS(props, opts)
	case "Omega":
		return ConfigOmega(props, EventualOracle(c.n-1, c.gst), opts)
	default:
		return opts.config(c.n, func(int) giraf.Automaton { return weakset.NewMSProc() })
	}
}

// procCounters is what a process's framework state reports after a run.
type procCounters struct{ delivered, round int }

// runShared runs cfg and returns its result, every process's counters and
// the record of every round view computed.
func runShared(t testing.TB, cfg sim.Config) (*sim.Result, []procCounters, *property.Record[values.Fingerprint]) {
	t.Helper()
	rec := property.NewRecorder(cfg.Automaton)
	cfg.Automaton = rec.Automaton
	e, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := e.Run()
	procs := make([]procCounters, e.N())
	for i := range procs {
		p := e.Proc(i)
		procs[i] = procCounters{p.Delivered(), p.CurrentRound()}
	}
	return res, procs, &rec.Record
}

// checkSharedParity compares the case's run with a reference run whose
// queue cannot collapse: a partition that never comes into force still
// counts as a link fault, so every delivery is scheduled per receiver and
// merged by its own Receive call — the path without fan-out entries, hence
// without shared rounds. Every round view computed must match too.
func checkSharedParity(t testing.TB, c sharedCase) {
	t.Helper()
	never := env.Partition{From: c.maxRounds + 100, Until: c.maxRounds + 101, Cut: 1}
	got, gotProcs, gotViews := runShared(t, c.config(env.Scenario{}))
	want, wantProcs, wantViews := runShared(t, c.config(env.Scenario{Partitions: []env.Partition{never}}))
	// MergesSkipped counts the deliveries shared rounds absorbed, and the
	// reference never takes a shared round.
	gotMetrics := got.Metrics
	gotMetrics.MergesSkipped = want.Metrics.MergesSkipped
	if got.Rounds != want.Rounds || gotMetrics != want.Metrics {
		t.Fatalf("%v: rounds %d metrics %+v, per-receiver reference rounds %d metrics %+v",
			c, got.Rounds, got.Metrics, want.Rounds, want.Metrics)
	}
	for k := 1; k <= max(gotViews.Rounds(), wantViews.Rounds()); k++ {
		if !slices.Equal(gotViews.Computed(k), wantViews.Computed(k)) || !slices.Equal(gotViews.Sent(k), wantViews.Sent(k)) {
			t.Fatalf("%v: round %d computed by %v sending %v, reference %v sending %v", c, k,
				gotViews.Computed(k), gotViews.Sent(k), wantViews.Computed(k), wantViews.Sent(k))
		}
		for _, p := range wantViews.Computed(k) {
			if !maps.Equal(gotViews.Held(k, p), wantViews.Held(k, p)) {
				t.Fatalf("%v: process %d's round-%d view\n shared    %v\n reference %v", c, p, k, gotViews.Held(k, p), wantViews.Held(k, p))
			}
		}
	}
	for i := range want.Statuses {
		if got.Statuses[i] != want.Statuses[i] {
			t.Fatalf("%v: process %d status %+v, reference %+v", c, i, got.Statuses[i], want.Statuses[i])
		}
		if gotProcs[i] != wantProcs[i] {
			t.Fatalf("%v: process %d delivered/round %+v, reference %+v", c, i, gotProcs[i], wantProcs[i])
		}
	}
}

// TestSharedRoundParity is the differential test of the shared round: over
// the automata (the three round-local ones and weakset, which must keep
// the per-receiver path), the policies, sizes, crash steps — including a
// sender crashing at the first shared step — runs cut short by MaxRounds,
// and late delays past the delivery ring's first window, a run must match
// its per-receiver reference in every round view computed, every status,
// every Metrics field but MergesSkipped and every process's Delivered and
// CurrentRound.
func TestSharedRoundParity(t *testing.T) {
	for _, n := range []int{2, 3, 4, 8, 64} {
		// The big size runs a thinner grid: an undecided n=64 run under MS
		// or Async costs a quadratic round per step.
		seeds, crashes, bounds, delays := []int64{1, 2}, []int{0, 1, 2, 3}, []int{3, 30}, []int{0, 20}
		if n == 64 {
			seeds, crashes, bounds, delays = seeds[:1], []int{0, 2}, []int{3, 8}, delays[:1]
		}
		if testing.Short() {
			seeds = seeds[:1]
		}
		for _, aut := range sharedAutomata {
			for _, pol := range sharedPolicies {
				t.Run(fmt.Sprintf("%s/%s/n=%d", aut, pol, n), func(t *testing.T) {
					for _, seed := range seeds {
						for _, distinct := range []bool{false, true} {
							for _, crash := range crashes {
								for _, maxRounds := range bounds {
									for _, maxDelay := range delays {
										checkSharedParity(t, sharedCase{
											n: n, aut: aut, pol: pol, gst: 2, seed: seed, distinct: distinct,
											crashStep: crash, maxRounds: maxRounds, maxDelay: maxDelay,
										})
									}
								}
							}
						}
					}
				})
			}
		}
	}
}

// FuzzSharedRoundParity decodes small configurations — size, automaton,
// policy, GST, seed, proposal shape, crash step, run bound and delay bound
// — and checks each against the never-collapsing reference, as
// TestSharedRoundParity does for its fixed grid. The reference queues
// every late delivery, so a round-local run's counted late deliveries are
// compared with queued ones too; the fourth seed's delays grow the ring.
func FuzzSharedRoundParity(f *testing.F) {
	f.Add(uint8(4), uint8(0), uint8(1), uint8(2), int64(1), false, uint8(2), uint8(30), uint8(0))
	f.Add(uint8(12), uint8(1), uint8(2), uint8(0), int64(7), true, uint8(0), uint8(3), uint8(0))
	f.Add(uint8(2), uint8(3), uint8(0), uint8(1), int64(3), false, uint8(1), uint8(5), uint8(0))
	f.Add(uint8(6), uint8(0), uint8(3), uint8(0), int64(5), false, uint8(3), uint8(29), uint8(20))
	f.Fuzz(func(t *testing.T, n, aut, pol, gst uint8, seed int64, distinct bool, crash, maxRounds, maxDelay uint8) {
		checkSharedParity(t, sharedCase{
			n:         2 + int(n)%11,
			aut:       sharedAutomata[int(aut)%len(sharedAutomata)],
			pol:       sharedPolicies[int(pol)%len(sharedPolicies)],
			gst:       int(gst) % 7,
			seed:      seed,
			distinct:  distinct,
			crashStep: int(crash) % 6,
			maxRounds: 1 + int(maxRounds)%30,
			maxDelay:  int(maxDelay) % 25,
		})
	})
}
