package sim

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"anonconsensus/internal/env"
	"anonconsensus/internal/giraf"
	"anonconsensus/internal/values"
)

// batchAutomaton is a tiny consensus-ish automaton: broadcast the max
// value seen, decide once the same max survives three rounds.
type batchAutomaton struct {
	v      values.Value
	best   values.Value
	stable int
}

type valPayload struct{ v values.Value }

func (p valPayload) PayloadKey() string { return "v:" + string(p.v) }
func (p valPayload) PayloadFingerprint() values.Fingerprint {
	return values.FingerprintString(p.PayloadKey())
}
func (p valPayload) PayloadEncodedSize() int { return len(p.PayloadKey()) }

func (a *batchAutomaton) Initialize() giraf.Payload {
	a.best = a.v
	return valPayload{a.v}
}

func (a *batchAutomaton) Compute(k int, in giraf.Inbox) (giraf.Payload, giraf.Decision) {
	prev := a.best
	for _, p := range in.Round(k) {
		if v := p.(valPayload).v; v > a.best {
			a.best = v
		}
	}
	if a.best == prev {
		a.stable++
	} else {
		a.stable = 0
	}
	if a.stable >= 3 {
		return nil, giraf.Decision{Decided: true, Value: a.best}
	}
	return valPayload{a.best}, giraf.Decision{}
}

// trialConfigs builds a fresh, policy-independent config grid. Policies
// are stateful, so every call returns brand-new policy values — sharing
// them between runs (or batches) would break determinism.
func trialConfigs() []Config {
	var cfgs []Config
	aut := func(n int) func(int) giraf.Automaton {
		return func(i int) giraf.Automaton { return &batchAutomaton{v: values.Num(int64(i % n))} }
	}
	for seed := int64(0); seed < 6; seed++ {
		n := 3 + int(seed)
		cfgs = append(cfgs, Config{
			N: n, Automaton: aut(n), MaxRounds: 200,
			Policy: &env.ES{GST: 8, Pre: env.MS{Seed: seed, MaxDelay: 3}},
		})
		cfgs = append(cfgs, Config{
			N: n, Automaton: aut(n), MaxRounds: 400,
			Policy:   &env.ESS{GST: 6, StableSource: n - 1, Pre: env.MS{Seed: seed, Alternate: true}},
			Scenario: &env.Scenario{Crashes: map[int]int{0: 5}},
		})
		cfgs = append(cfgs, Config{
			N: n, Automaton: aut(n), MaxRounds: 300,
			Policy: &env.Async{Seed: seed, MaxDelay: 5},
		})
	}
	return cfgs
}

func sameResults(t *testing.T, label string, got, want []*Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i].Statuses, want[i].Statuses) {
			t.Errorf("%s: run %d statuses diverged:\n got %+v\nwant %+v", label, i, got[i].Statuses, want[i].Statuses)
		}
		if got[i].Rounds != want[i].Rounds || got[i].Metrics != want[i].Metrics {
			t.Errorf("%s: run %d rounds/metrics diverged: got %d/%+v want %d/%+v",
				label, i, got[i].Rounds, got[i].Metrics, want[i].Rounds, want[i].Metrics)
		}
	}
}

func TestRunBatchDeterministicAcrossParallelism(t *testing.T) {
	// Sequential oracle: one engine per run, no reuse.
	var want []*Result
	for _, cfg := range trialConfigs() {
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, res)
	}
	for _, par := range []int{1, 4, runtime.NumCPU()} {
		got, err := RunBatch(context.Background(), trialConfigs(), BatchOpts{Parallelism: par})
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		sameResults(t, fmt.Sprintf("parallelism %d", par), got, want)
	}
}

func TestRunBatchDeterministicError(t *testing.T) {
	for _, par := range []int{1, 4} {
		results, err := RunBatch(context.Background(), nil, BatchOpts{Parallelism: par})
		if err != nil || len(results) != 0 {
			t.Fatalf("empty batch: results=%d err=%v", len(results), err)
		}
		// Two invalid configs; the error at the lower index must win.
		bad := trialConfigs()
		bad[3].N = -1
		bad[7].MaxRounds = 0
		results, err = RunBatch(context.Background(), bad, BatchOpts{Parallelism: par})
		if err == nil {
			t.Fatalf("parallelism %d: invalid configs accepted", par)
		}
		if want := "need at least 1 process"; !strings.Contains(err.Error(), want) {
			t.Errorf("parallelism %d: err = %v, want the index-3 validation error (%q)", par, err, want)
		}
		if results[3] != nil || results[7] != nil {
			t.Error("failed slots must stay nil")
		}
		if results[0] == nil || results[len(results)-1] == nil {
			t.Error("healthy runs must still complete despite sibling errors")
		}
	}
}

func TestRunBatchCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunBatch(ctx, trialConfigs(), BatchOpts{Parallelism: 2})
	if err == nil {
		t.Fatal("cancelled batch must report an error")
	}
	if ctx.Err() == nil || !strings.Contains(err.Error(), "cancelled") {
		t.Errorf("err = %v, want a cancellation error", err)
	}
}

func TestEngineResetMatchesFreshRuns(t *testing.T) {
	cfgs := trialConfigs()
	eng, err := New(cfgs[0])
	if err != nil {
		t.Fatal(err)
	}
	reused := []*Result{eng.Run()}
	for _, cfg := range cfgs[1:] {
		if err := eng.Reset(cfg); err != nil {
			t.Fatal(err)
		}
		reused = append(reused, eng.Run())
	}
	var fresh []*Result
	for _, cfg := range trialConfigs() {
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fresh = append(fresh, res)
	}
	sameResults(t, "engine reuse", reused, fresh)
}

func TestResultStatusesNotAliased(t *testing.T) {
	// Satellite regression: a Result captured before Reset must not change
	// when the engine runs a different configuration afterwards.
	cfgs := trialConfigs()
	eng, err := New(cfgs[0])
	if err != nil {
		t.Fatal(err)
	}
	first := eng.Run()
	snapshot := make([]ProcStatus, len(first.Statuses))
	copy(snapshot, first.Statuses)
	if err := eng.Reset(cfgs[1]); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if !reflect.DeepEqual(first.Statuses, snapshot) {
		t.Error("earlier Result.Statuses mutated by engine reuse")
	}
}

func TestRingGrowsUnderLongDelays(t *testing.T) {
	// Delays far beyond the initial window force ring growth mid-run; the
	// run must still deliver every envelope exactly once.
	mk := func() Config {
		return Config{
			N:         4,
			Automaton: func(i int) giraf.Automaton { return &batchAutomaton{v: values.Num(int64(i))} },
			Policy: &env.Scripted{Default: 0, Delays: map[int]map[int]map[int]int{
				1: {0: {1: 40, 2: 41, 3: 97}},
				2: {1: {0: 25}},
			}},
			MaxRounds: 200,
		}
	}
	res, err := Run(mk())
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllCorrectDecided() {
		t.Fatal("undecided despite reliable (slow) links")
	}
	// Every broadcast reaches the n-1 peers of a live receiver set; with
	// nobody crashed, deliveries = broadcasts × (n-1) minus those scheduled
	// after the run ended. The far-future (round+97) envelope lands beyond
	// the decision round, so deliveries must be strictly fewer.
	if res.Metrics.Deliveries >= res.Metrics.Broadcasts*3 {
		t.Errorf("deliveries = %d, want < broadcasts×3 = %d (round+97 envelope must still be pending)",
			res.Metrics.Deliveries, res.Metrics.Broadcasts*3)
	}
	// And the same schedule on a reused engine stays identical.
	eng, err := New(Config{
		N: 2, Automaton: func(i int) giraf.Automaton { return &batchAutomaton{v: values.Num(int64(i))} },
		Policy: env.Synchronous{}, MaxRounds: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if err := eng.Reset(mk()); err != nil {
		t.Fatal(err)
	}
	again := eng.Run()
	sameResults(t, "ring growth after reuse", []*Result{again}, []*Result{res})
}
