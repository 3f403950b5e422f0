package sim

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"testing"

	"anonconsensus/internal/env"
	"anonconsensus/internal/giraf"
	"anonconsensus/internal/property"
	"anonconsensus/internal/values"
)

// floodPayload is a value set payload for engine tests.
type floodPayload struct{ s values.Set }

func (p floodPayload) PayloadKey() string { return p.s.Key() }
func (p floodPayload) PayloadFingerprint() values.Fingerprint {
	return values.FingerprintString(p.PayloadKey())
}
func (p floodPayload) PayloadEncodedSize() int { return len(p.PayloadKey()) }

// floodAutomaton gossips the union of everything it has seen and decides
// once it has seen `quorum` distinct values (or never, when quorum is 0).
type floodAutomaton struct {
	v      values.Value
	quorum int
	seen   values.Set
}

func newFlood(v values.Value, quorum int) *floodAutomaton {
	return &floodAutomaton{v: v, quorum: quorum, seen: values.NewSet(v)}
}

func (a *floodAutomaton) Initialize() giraf.Payload {
	return floodPayload{values.NewSet(a.v)}
}

func (a *floodAutomaton) Compute(k int, in giraf.Inbox) (giraf.Payload, giraf.Decision) {
	for _, p := range in.Round(k) {
		a.seen.AddAll(p.(floodPayload).s)
	}
	if a.quorum > 0 && a.seen.Len() >= a.quorum {
		max, _ := a.seen.Max()
		return nil, giraf.Decision{Decided: true, Value: max}
	}
	return floodPayload{a.seen}, giraf.Decision{}
}

func floodFactory(quorum int) func(i int) giraf.Automaton {
	return func(i int) giraf.Automaton { return newFlood(values.Num(int64(i)), quorum) }
}

func TestConfigValidation(t *testing.T) {
	base := func() Config {
		return Config{N: 3, Automaton: floodFactory(3), Policy: env.Synchronous{}, MaxRounds: 10}
	}
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero N", func(c *Config) { c.N = 0 }},
		{"nil automaton", func(c *Config) { c.Automaton = nil }},
		{"nil policy", func(c *Config) { c.Policy = nil }},
		{"zero MaxRounds", func(c *Config) { c.MaxRounds = 0 }},
		{"crash pid out of range", func(c *Config) { c.Scenario = &env.Scenario{Crashes: map[int]int{7: 1}} }},
		{"negative crash step", func(c *Config) { c.Scenario = &env.Scenario{Crashes: map[int]int{0: -1}} }},
		{"crash round zero", func(c *Config) { c.Scenario = &env.Scenario{Crashes: map[int]int{0: 0}} }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := base()
			tt.mutate(&cfg)
			if _, err := New(cfg); err == nil {
				t.Error("New must reject invalid config")
			}
		})
	}
	if _, err := New(base()); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestSynchronousFloodDecides(t *testing.T) {
	res, err := Run(Config{
		N:         4,
		Automaton: floodFactory(4),
		Policy:    env.Synchronous{},
		MaxRounds: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllCorrectDecided() {
		t.Fatal("all processes must decide under full synchrony")
	}
	// With delay 0 everywhere, everybody has everything by round 2:
	// round 1 sees own + all initial payloads, but sets differ per process
	// only in ordering — all 4 values are present already in round 1.
	if got := res.FirstDecisionRound(); got != 1 {
		t.Errorf("first decision at round %d, want 1", got)
	}
	if v := property.CheckAgreement(res.Outcomes()); v != nil {
		t.Error(v)
	}
}

func TestCrashedProcessStopsParticipating(t *testing.T) {
	res, err := Run(Config{
		N:         4,
		Automaton: floodFactory(0), // never decides; we inspect rounds only
		Policy:    env.Synchronous{},
		Scenario:  &env.Scenario{Crashes: map[int]int{2: 3}},
		MaxRounds: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Statuses[2]
	if !st.Crashed || st.CrashedAt != 3 {
		t.Fatalf("status[2] = %+v, want crash at 3", st)
	}
	// It executed end-of-round at steps 0,1,2 → reached round 3.
	if st.LastRound != 3 {
		t.Errorf("LastRound = %d, want 3", st.LastRound)
	}
	for i, s := range res.Statuses {
		if i != 2 && s.Crashed {
			t.Errorf("process %d wrongly marked crashed", i)
		}
	}
}

func TestDelayedDeliveryArrivesLate(t *testing.T) {
	// Isolate process 0 in both directions for rounds 1–3 (all its links
	// 2 rounds late), then let everything be timely: its value is invisible
	// early but spreads once links recover. The reverse delays keep process
	// 0 undecided (it would otherwise decide in round 1 and halt before its
	// value was ever delivered timely).
	pol := &env.Scripted{Delays: map[int]map[int]map[int]int{}, Default: 0}
	for r := 1; r <= 3; r++ {
		pol.Delays[r] = map[int]map[int]int{
			0: {1: 2, 2: 2},
			1: {0: 2},
			2: {0: 2},
		}
	}
	res, err := Run(Config{
		N:         3,
		Automaton: floodFactory(3),
		Policy:    pol,
		MaxRounds: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllCorrectDecided() {
		t.Fatal("once links recover everybody must decide")
	}
	// Processes 1 and 2 cannot have seen value 0 before round 4.
	for i := 1; i <= 2; i++ {
		if st := res.Statuses[i]; st.DecidedAt < 4 {
			t.Errorf("process %d decided at %d, impossible before round 4", i, st.DecidedAt)
		}
	}
}

func TestPermanentlyLatePayloadsAreInvisibleToRoundReads(t *testing.T) {
	// A sender whose envelopes are always one round late never contributes
	// to anyone's round-k inbox at compute time: a round-reading automaton
	// never learns its value (GIRAF semantics; Algorithm 4 instead reads
	// Fresh() across rounds precisely to catch such stragglers).
	pol := &env.Scripted{Delays: map[int]map[int]map[int]int{}, Default: 0}
	for r := 1; r <= 12; r++ {
		pol.Delays[r] = map[int]map[int]int{0: {1: 1, 2: 1}}
	}
	res, err := Run(Config{
		N:         3,
		Automaton: floodFactory(3),
		Policy:    pol,
		MaxRounds: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		if res.Statuses[i].Decided {
			t.Errorf("process %d saw a permanently-late value", i)
		}
	}
}

func TestMetricsCounting(t *testing.T) {
	res, err := Run(Config{
		N:         3,
		Automaton: floodFactory(0),
		Policy:    env.Synchronous{},
		MaxRounds: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Steps 0..4 each have 3 broadcasts → 15, but the engine stops after
	// MaxRounds steps; step 4's envelopes may exceed; just sanity-check.
	if res.Metrics.Broadcasts == 0 || res.Metrics.Deliveries == 0 {
		t.Error("metrics must count broadcasts and deliveries")
	}
	if res.Metrics.PayloadBytes <= 0 || res.Metrics.MaxEnvelopeBytes <= 0 {
		t.Error("metrics must account payload bytes")
	}
}

func TestOnRoundHook(t *testing.T) {
	var rounds []int
	_, err := Run(Config{
		N:         2,
		Automaton: floodFactory(0),
		Policy:    env.Synchronous{},
		MaxRounds: 3,
		OnRound:   func(r int, e *Engine) { rounds = append(rounds, r) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) != 3 || rounds[0] != 1 || rounds[2] != 3 {
		t.Errorf("hook rounds = %v, want [1 2 3]", rounds)
	}
}

func TestDeterminismSameSeedSameResult(t *testing.T) {
	run := func() *Result {
		res, err := Run(Config{
			N:         5,
			Automaton: floodFactory(5),
			Policy:    &env.MS{Seed: 42, MaxDelay: 2},
			MaxRounds: 50,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Rounds != b.Rounds || a.FirstDecisionRound() != b.FirstDecisionRound() {
		t.Error("same seed must reproduce the same run")
	}
	if a.Metrics != b.Metrics {
		t.Errorf("metrics differ: %+v vs %+v", a.Metrics, b.Metrics)
	}
}

func TestResultAccessorsAndChecks(t *testing.T) {
	res, err := Run(Config{
		N:           3,
		Automaton:   floodFactory(3),
		Policy:      env.Synchronous{},
		MaxRounds:   10,
		RecordTrace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FirstDecisionRound() == 0 || res.LastDecisionRound() < res.FirstDecisionRound() {
		t.Errorf("decision rounds: first=%d last=%d", res.FirstDecisionRound(), res.LastDecisionRound())
	}
	proposals := values.NewSet(values.Num(0), values.Num(1), values.Num(2))
	if vs := res.Check(proposals, nil, true); len(vs) != 0 {
		t.Error(vs)
	}
	if vs := res.Check(values.NewSet(values.Num(99)), nil, true); len(vs) != 1 || vs[0].Kind != property.Validity {
		t.Errorf("Check must flag foreign decisions as invalid, got %v", vs)
	}
}

func TestEngineAccessors(t *testing.T) {
	e, err := New(Config{N: 2, Automaton: floodFactory(0), Policy: env.Synchronous{}, MaxRounds: 3})
	if err != nil {
		t.Fatal(err)
	}
	if e.N() != 2 || e.Proc(0) == nil || e.Automaton(1) == nil {
		t.Error("engine accessors broken")
	}
	e.Run()
}

// localFlood is floodAutomaton declared round-local (giraf.RoundLocal): its
// Compute reads Round(k) alone.
type localFlood struct{ *floodAutomaton }

func (localFlood) ReadsOnlyRound() {}

// floodFactoryMarked is floodFactory with or without the round-local marker.
func floodFactoryMarked(quorum int, local bool) func(i int) giraf.Automaton {
	return func(i int) giraf.Automaton {
		a := newFlood(values.Num(int64(i)), quorum)
		if local {
			return localFlood{a}
		}
		return a
	}
}

func TestRoundLocalKeepsMemoryFlat(t *testing.T) {
	runWith := func(local bool) (maxRounds int, res *Result) {
		res, err := Run(Config{
			N:         3,
			Automaton: floodFactoryMarked(0, local),
			Policy:    env.Synchronous{},
			MaxRounds: 40,
			OnRound: func(r int, e *Engine) {
				for i := 0; i < e.N(); i++ {
					if got := e.Proc(i).InboxRounds(); got > maxRounds {
						maxRounds = got
					}
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return maxRounds, res
	}
	unmarked, _ := runWith(false)
	local, _ := runWith(true)
	if local >= unmarked {
		t.Errorf("recycling ineffective: %d vs %d retained rounds", local, unmarked)
	}
	// A round-local process recycles a round as it computes it, so after
	// step s it holds round s+1 (own next payload) plus at most one
	// early-delivered future round.
	if local > 2 {
		t.Errorf("round-local runs should retain ≤2 rounds, got %d", local)
	}
}

func TestRoundLocalPreservesConsensusBehaviour(t *testing.T) {
	// The engines must produce identical decisions with and without the
	// marker for round-reading automata.
	run := func(local bool) *Result {
		res, err := Run(Config{
			N:         4,
			Automaton: floodFactoryMarked(4, local),
			Policy:    &env.MS{Seed: 5, MaxDelay: 2},
			MaxRounds: 60,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(false), run(true)
	for i := range a.Statuses {
		if a.Statuses[i].Decided != b.Statuses[i].Decided ||
			a.Statuses[i].Decision != b.Statuses[i].Decision ||
			a.Statuses[i].DecidedAt != b.Statuses[i].DecidedAt {
			t.Fatalf("the marker changed behaviour: %+v vs %+v", a.Statuses[i], b.Statuses[i])
		}
	}
}

func TestRunContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunContext(ctx, Config{
		N:         3,
		Automaton: floodFactory(0), // never decides
		Policy:    env.Synchronous{},
		MaxRounds: 1_000_000,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want wrapped context.Canceled, got %v", err)
	}
}

// arrivalAut broadcasts a payload naming itself and the round, and logs
// the keys of Fresh — every payload new since its last end-of-round, in
// arrival order — at each compute.
type arrivalAut struct {
	i   int
	log *[]string
}

func (a arrivalAut) Initialize() giraf.Payload {
	return floodPayload{values.NewSet(values.Num(int64(100*a.i + 1)))}
}

func (a arrivalAut) Compute(k int, in giraf.Inbox) (giraf.Payload, giraf.Decision) {
	entry := fmt.Sprintf("p%d r%d:", a.i, k)
	for _, p := range in.Fresh() {
		entry += " " + p.PayloadKey()
	}
	*a.log = append(*a.log, entry)
	return floodPayload{values.NewSet(values.Num(int64(100*a.i + k + 1)))}, giraf.Decision{}
}

// TestDeliveryKeepsQueueOrderPerReceiver: every receiver takes its
// envelopes in queue order, however the step's queue mixes collapsed
// fan-out entries and per-receiver ones. The reference run carries a
// partition that never comes into force: a scenario with link faults
// disables the collapse, so every envelope is its own queue entry.
func TestDeliveryKeepsQueueOrderPerReceiver(t *testing.T) {
	const n = 6
	// Round 1: sender 0 is uniformly one round late (a fan-out entry due
	// at step 2), sender 1 is one or two rounds late depending on the
	// receiver (per-receiver entries), everybody else is timely; round 2 is
	// timely everywhere, so step 2's queue interleaves both kinds.
	delays := map[int]map[int]map[int]int{1: {0: {}, 1: {}}}
	for r := 0; r < n; r++ {
		delays[1][0][r] = 1
		delays[1][1][r] = 1 + r%2
	}
	run := func(sc *env.Scenario) []string {
		var log []string
		_, err := Run(Config{
			N:         n,
			Automaton: func(i int) giraf.Automaton { return arrivalAut{i, &log} },
			Policy:    &env.Scripted{Delays: delays},
			Scenario:  sc,
			MaxRounds: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		return log
	}
	collapsed := run(nil)
	perReceiver := run(&env.Scenario{Partitions: []env.Partition{{From: 100, Until: 101, Cut: 1}}})
	if len(collapsed) != len(perReceiver) {
		t.Fatalf("%d computes with collapse, %d without", len(collapsed), len(perReceiver))
	}
	for i := range collapsed {
		if collapsed[i] != perReceiver[i] {
			t.Fatalf("arrival order differs:\n collapsed:    %s\n per-receiver: %s", collapsed[i], perReceiver[i])
		}
	}
}

// TestFanOutCollapsePreservesMetrics pins that the uniform-delay fan-out
// collapse (one ring entry per broadcast in scenario-free runs) is
// invisible in the metrics: per-receiver accounting must match a run in
// which collapsing is impossible because delays are non-uniform.
func TestFanOutCollapsePreservesMetrics(t *testing.T) {
	// Same flood workload under env.Synchronous (collapsible: all delays 0)
	// twice; the second run records a trace, which pins per-delivery
	// recording through the expansion path too.
	cfg := Config{N: 9, Automaton: floodFactory(9), Policy: env.Synchronous{}, MaxRounds: 40}
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.RecordTrace = true
	traced, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Metrics != traced.Metrics {
		t.Errorf("traced run metrics differ: %+v vs %+v", plain.Metrics, traced.Metrics)
	}
	// Every broadcast reaches all n-1 receivers under env.Synchronous with no
	// crashes, so the delivery count is exactly (n-1)·Broadcasts minus the
	// final round's envelopes (delivered at a step past the last executed
	// one, if the run ends by decision). At minimum the expansion must
	// deliver something every round.
	if plain.Metrics.Deliveries == 0 || plain.Metrics.Broadcasts == 0 {
		t.Fatalf("degenerate run: %+v", plain.Metrics)
	}
	// env.Synchronous is ES with GST 0: every delivery timely from round 1 on.
	if err := traced.Trace.CheckES(0); err != nil {
		t.Errorf("fan-out expansion broke the synchronous delivery pattern: %v", err)
	}
}

// rowLog is an ES policy that records, per round, the senders Schedule was
// given and the senders whose rows were asked for.
type rowLog struct {
	pol            *env.ES
	senders, asked map[int][]int
	round          int
	delays         env.Delays
}

func (p *rowLog) Schedule(round int, senders []int, n int) env.Delays {
	p.round, p.delays = round, p.pol.Schedule(round, senders, n)
	p.senders[round] = slices.Clone(senders)
	return p
}

func (p *rowLog) Row(sender int, row []int32) {
	p.asked[p.round] = append(p.asked[p.round], sender)
	p.delays.Row(sender, row)
}

func (p *rowLog) UniformDelay(round int) (int, bool) { return p.pol.UniformDelay(round) }

// TestEngineAsksRowsInSenderOrder pins the engine's half of env.Delays: a
// policy draws a row when it is asked for, so the engine asks for every
// sender's row exactly once, in the order of the senders it gave Schedule,
// and for none in a round the policy declares uniform. Crashes thin the
// senders out before GST.
func TestEngineAsksRowsInSenderOrder(t *testing.T) {
	const n, gst = 7, 5
	p := &rowLog{pol: &env.ES{GST: gst, Pre: env.MS{Seed: 3}}, senders: map[int][]int{}, asked: map[int][]int{}}
	_, err := Run(Config{
		N:         n,
		Automaton: floodFactory(0),
		Policy:    p,
		Scenario:  &env.Scenario{Crashes: map[int]int{2: 2, 5: 3}},
		MaxRounds: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.senders) == 0 {
		t.Fatal("Schedule never called")
	}
	for _, round := range slices.Sorted(maps.Keys(p.senders)) {
		want := p.senders[round]
		if round >= gst {
			want = nil
		}
		if got := p.asked[round]; !slices.Equal(got, want) {
			t.Errorf("round %d: rows asked for %v, want %v", round, got, want)
		}
	}
}
