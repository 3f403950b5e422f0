package sim

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"anonconsensus/internal/env"
	"anonconsensus/internal/giraf"
	"anonconsensus/internal/values"
)

// esAutomaton builds Algorithm-2-shaped test automata without importing
// internal/core (which would cycle): a tiny echo automaton is not enough
// for these tests, so they use the real behavior indirectly through the
// core-level tests; here we exercise the engine mechanics with a counting
// automaton and reserve algorithm-level properties for scenario tests in
// the root package. The counting automaton broadcasts its id-value set and
// never decides, making delivery accounting exact.
type countingAut struct {
	val   values.Value
	got   map[int]int // round → payload count seen at compute time
	limit int
}

type countPayload struct{ v values.Value }

func (p countPayload) PayloadKey() string { return "c:" + string(p.v) }
func (p countPayload) PayloadFingerprint() values.Fingerprint {
	return values.FingerprintString(p.PayloadKey())
}
func (p countPayload) PayloadEncodedSize() int { return len(p.PayloadKey()) }

func (a *countingAut) Initialize() giraf.Payload { return countPayload{a.val} }

func (a *countingAut) Compute(k int, inbox giraf.Inbox) (giraf.Payload, giraf.Decision) {
	if a.got == nil {
		a.got = make(map[int]int)
	}
	a.got[k] = len(inbox.Round(k))
	if k >= a.limit {
		return nil, giraf.Decision{Decided: true, Value: a.val}
	}
	return countPayload{a.val}, giraf.Decision{}
}

func countingConfig(n, rounds int, sc *env.Scenario) Config {
	return Config{
		N: n,
		Automaton: func(i int) giraf.Automaton {
			return &countingAut{val: values.Num(int64(i)), limit: rounds}
		},
		Policy:    env.Synchronous{},
		Scenario:  sc,
		MaxRounds: rounds + 5,
	}
}

func TestScenarioLossDropsDeliveries(t *testing.T) {
	// 100% loss: nobody ever sees a foreign payload; every inbox holds
	// exactly the process's own entry and every scheduled delivery is
	// counted as dropped.
	res, err := Run(countingConfig(3, 6, &env.Scenario{Seed: 1, LossPct: 100}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Deliveries != 0 {
		t.Errorf("Deliveries = %d, want 0 under total loss", res.Metrics.Deliveries)
	}
	if res.Metrics.Dropped == 0 {
		t.Error("Dropped = 0, want every delivery dropped")
	}
	if res.Metrics.Duplicated != 0 {
		t.Errorf("Duplicated = %d without a dup rate", res.Metrics.Duplicated)
	}
}

func TestScenarioDuplicationIsDedupedAndBehaviorPreserving(t *testing.T) {
	// Duplicates are real extra deliveries, but inbox set semantics make
	// them invisible to the automaton: payload counts per round match the
	// fault-free run exactly.
	plain, err := Run(countingConfig(4, 8, nil))
	if err != nil {
		t.Fatal(err)
	}
	duped, err := Run(countingConfig(4, 8, &env.Scenario{Seed: 5, DupPct: 100}))
	if err != nil {
		t.Fatal(err)
	}
	if duped.Metrics.Duplicated == 0 {
		t.Fatal("Duplicated = 0 at DupPct 100")
	}
	if duped.Metrics.Deliveries <= plain.Metrics.Deliveries {
		t.Errorf("duplication did not add deliveries: %d vs %d",
			duped.Metrics.Deliveries, plain.Metrics.Deliveries)
	}
	if len(plain.Statuses) != len(duped.Statuses) {
		t.Fatal("status length mismatch")
	}
	for i := range plain.Statuses {
		if plain.Statuses[i] != duped.Statuses[i] {
			t.Errorf("proc %d diverged under duplication: %+v vs %+v",
				i, plain.Statuses[i], duped.Statuses[i])
		}
	}
}

func TestScenarioPartitionCutsExactlyTheCrossLinks(t *testing.T) {
	// Partition [2,4) with cut 2 over n=4: rounds 2 and 3 deliver only
	// within blocks {0,1} and {2,3}; other rounds deliver everything.
	sc := &env.Scenario{Partitions: []env.Partition{{From: 2, Until: 4, Cut: 2}}}
	auts := make([]*countingAut, 4)
	cfg := countingConfig(4, 8, sc)
	cfg.Automaton = func(i int) giraf.Automaton {
		auts[i] = &countingAut{val: values.Num(int64(i)), limit: 8}
		return auts[i]
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	for i, a := range auts {
		for k := 1; k <= 6; k++ {
			want := 4 // everyone, all values distinct
			if k == 2 || k == 3 {
				want = 2 // own block only
			}
			if got := a.got[k]; got != want {
				t.Errorf("proc %d round %d saw %d payloads, want %d", i, k, got, want)
			}
		}
	}
}

// TestCrashOnlyScenarioKeepsFanOutCollapse pins the engine's delivery-path
// selection: a scenario that only crashes processes has no link faults, so
// under env.Synchronous every live sender's broadcast is one fanOutAll ring
// entry per step — and any loss, duplication or partition switches the run
// to per-receiver entries (each delivery then needs its own fault draw).
func TestCrashOnlyScenarioKeepsFanOutCollapse(t *testing.T) {
	const n = 4
	// queued runs steps 0 and 1 by hand and returns, per step, how many
	// collapsed and how many per-receiver entries the step scheduled.
	queued := func(sc *env.Scenario) (collapsed, perReceiver [2]int) {
		t.Helper()
		e, err := New(countingConfig(n, 10, sc))
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 2; step++ {
			e.stepNum = step
			e.deliverDue(step)
			e.step(step)
			for _, d := range e.due[(step+1)%len(e.due)].q {
				if d.receiver == fanOutAll {
					collapsed[step]++
				} else {
					perReceiver[step]++
				}
			}
		}
		return collapsed, perReceiver
	}

	crash := map[int]int{2: 1} // process 2 runs step 0 only
	for _, sc := range []*env.Scenario{nil, {Crashes: crash}} {
		collapsed, perReceiver := queued(sc)
		live1 := n
		if sc != nil {
			live1 = n - 1
		}
		if collapsed != [2]int{n, live1} || perReceiver != [2]int{} {
			t.Errorf("scenario %+v: collapsed %v per-receiver %v, want one fanOutAll entry per live sender (%d, %d) and nothing else",
				sc, collapsed, perReceiver, n, live1)
		}
	}
	for name, sc := range map[string]*env.Scenario{
		"loss":      {Crashes: crash, LossPct: 1},
		"dup":       {Crashes: crash, DupPct: 1},
		"partition": {Crashes: crash, Partitions: []env.Partition{{From: 5, Until: 6, Cut: 1}}},
	} {
		collapsed, perReceiver := queued(sc)
		if collapsed != [2]int{} {
			t.Errorf("%s: %v collapsed entries scheduled; link faults need per-receiver entries", name, collapsed)
		}
		// n−1 entries per live sender (a duplicate may add one more).
		if perReceiver[0] < n*(n-1) || perReceiver[1] < (n-1)*(n-1) {
			t.Errorf("%s: per-receiver entries %v, want ≥ (%d, %d)", name, perReceiver, n*(n-1), (n-1)*(n-1))
		}
	}
}

func TestScenarioConfigValidation(t *testing.T) {
	bad := []*env.Scenario{
		{LossPct: 101},
		{Partitions: []env.Partition{{From: 0, Until: 3, Cut: 1}}},
		{Partitions: []env.Partition{{From: 1, Until: 0, Cut: 3}}}, // cut ≥ n
		{Crashes: map[int]int{5: 2}},                               // pid ≥ n
		{Crashes: map[int]int{0: 1, 1: 1, 2: 1}},                   // everyone
	}
	for i, sc := range bad {
		if _, err := New(countingConfig(3, 4, sc)); err == nil {
			t.Errorf("scenario %d accepted: %+v", i, sc)
		}
	}
}

// scenarioBatch builds a grid of scenario'd runs whose result dump must be
// byte-identical at any parallelism.
func scenarioBatch(n int) []Config {
	var cfgs []Config
	for seed := int64(0); seed < 12; seed++ {
		sc := &env.Scenario{Seed: seed, LossPct: int(seed%4) * 10, DupPct: int(seed%3) * 15}
		if seed%2 == 0 {
			sc.Partitions = []env.Partition{{From: 2, Until: 5 + int(seed), Cut: 1 + int(seed)%(n-1)}}
		}
		cfgs = append(cfgs, countingConfig(n, 10, sc))
	}
	return cfgs
}

func dumpResults(results []*Result) string {
	var b strings.Builder
	for i, r := range results {
		fmt.Fprintf(&b, "run %d: rounds=%d bcast=%d deliv=%d dropped=%d dup=%d\n",
			i, r.Rounds, r.Metrics.Broadcasts, r.Metrics.Deliveries,
			r.Metrics.Dropped, r.Metrics.Duplicated)
		for p, st := range r.Statuses {
			fmt.Fprintf(&b, "  p%d decided=%v val=%q at=%d\n", p, st.Decided, string(st.Decision), st.DecidedAt)
		}
	}
	return b.String()
}

func TestScenarioBatchByteIdenticalAcrossParallelism(t *testing.T) {
	render := func(par int) string {
		results, err := RunBatch(context.Background(), scenarioBatch(5), BatchOpts{Parallelism: par})
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		return dumpResults(results)
	}
	want := render(1)
	if !strings.Contains(want, "dropped=") {
		t.Fatal("dump looks empty")
	}
	for _, par := range []int{4, runtime.NumCPU()} {
		if got := render(par); got != want {
			t.Errorf("scenario batch diverged between parallelism 1 and %d", par)
		}
	}
}
