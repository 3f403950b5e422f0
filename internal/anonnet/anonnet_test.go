package anonnet

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"anonconsensus/internal/core"
	"anonconsensus/internal/env"
	"anonconsensus/internal/giraf"
	"anonconsensus/internal/property"
	"anonconsensus/internal/values"
)

// Live tests use generous intervals and timeouts so they stay robust under
// race-detector slowdowns and noisy CI schedulers. Liveness assertions are
// kept to environments where the algorithm guarantees them.

const liveInterval = 5 * time.Millisecond

func esFactory(props []values.Value) func(int) giraf.Automaton {
	return func(i int) giraf.Automaton { return core.NewES(props[i]) }
}

func essFactory(props []values.Value) func(int) giraf.Automaton {
	return func(i int) giraf.Automaton { return core.NewESS(props[i]) }
}

func requireLiveConsensus(t *testing.T, res *Result, props []values.Value) {
	t.Helper()
	run := property.Run{Proposals: core.ProposalSet(props), Outcomes: res.Outcomes(), Promised: true}
	if vs := property.Check(run); len(vs) > 0 {
		t.Fatalf("%v: %+v", vs, res.Procs)
	}
}

func TestLiveESSynchronous(t *testing.T) {
	props := core.DistinctProposals(4)
	res, err := Run(context.Background(), Config{
		N:         4,
		Automaton: esFactory(props),
		Interval:  liveInterval,
		Latency:   env.Sync{Interval: liveInterval},
		Timeout:   10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	requireLiveConsensus(t, res, props)
}

func TestLiveESEventualSynchrony(t *testing.T) {
	props := core.DistinctProposals(3)
	res, err := Run(context.Background(), Config{
		N:         3,
		Automaton: esFactory(props),
		Interval:  liveInterval,
		Latency:   env.ESProfile{N: 3, Interval: liveInterval, Seed: 1, GST: 6},
		Timeout:   20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	requireLiveConsensus(t, res, props)
}

func TestLiveESSStableSource(t *testing.T) {
	props := core.DistinctProposals(3)
	res, err := Run(context.Background(), Config{
		N:         3,
		Automaton: essFactory(props),
		Interval:  liveInterval,
		Latency:   env.ESSProfile{N: 3, Interval: liveInterval, Seed: 2, GST: 4, Source: 1},
		Timeout:   30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	requireLiveConsensus(t, res, props)
}

func TestLiveESWithCrash(t *testing.T) {
	props := core.DistinctProposals(4)
	res, err := Run(context.Background(), Config{
		N:         4,
		Automaton: esFactory(props),
		Interval:  liveInterval,
		Latency:   env.Sync{Interval: liveInterval},
		Timeout:   15 * time.Second,
		Scenario:  &env.Scenario{Crashes: map[int]int{0: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Procs[0].Crashed {
		t.Error("process 0 should have crashed")
	}
	requireLiveConsensus(t, res, props)
}

func TestLiveMSSafetyOnly(t *testing.T) {
	// Under a pure moving-source profile liveness is not guaranteed (FLP
	// corollary); run briefly and assert safety of whatever happened.
	props := core.SplitProposals(3, 2)
	res, err := Run(context.Background(), Config{
		N:         3,
		Automaton: esFactory(props),
		Interval:  2 * time.Millisecond,
		Latency:   env.MSProfile{N: 3, Interval: 2 * time.Millisecond, Seed: 3},
		Timeout:   500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if vs := property.Check(property.Run{Proposals: core.ProposalSet(props), Outcomes: res.Outcomes()}); len(vs) > 0 {
		t.Fatal(vs)
	}
}

func TestLiveRoundsDrift(t *testing.T) {
	// Processes run unsynchronized rounds; with per-link noise their round
	// counters need not match, but all must have advanced.
	props := core.DistinctProposals(3)
	res, err := Run(context.Background(), Config{
		N:         3,
		Automaton: esFactory(props),
		Interval:  2 * time.Millisecond,
		Latency:   env.MSProfile{N: 3, Interval: 2 * time.Millisecond, Seed: 5},
		Timeout:   300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range res.Procs {
		if p.Rounds == 0 {
			t.Errorf("process %d never advanced", i)
		}
	}
}

func TestLiveConfigValidation(t *testing.T) {
	base := func() Config {
		return Config{
			N:         2,
			Automaton: esFactory(core.DistinctProposals(2)),
			Interval:  time.Millisecond,
			Latency:   env.Sync{Interval: time.Millisecond},
			Timeout:   time.Second,
		}
	}
	for name, mutate := range map[string]func(*Config){
		"zero N":        func(c *Config) { c.N = 0 },
		"nil automaton": func(c *Config) { c.Automaton = nil },
		"zero interval": func(c *Config) { c.Interval = 0 },
		"nil latency":   func(c *Config) { c.Latency = nil },
		"zero timeout":  func(c *Config) { c.Timeout = 0 },
	} {
		t.Run(name, func(t *testing.T) {
			cfg := base()
			mutate(&cfg)
			if _, err := Run(context.Background(), cfg); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}

func TestProfilesDeterministic(t *testing.T) {
	p := env.MSProfile{N: 4, Interval: time.Millisecond, Seed: 9}
	src := 3 % p.N // round-robin source of round 3 (Period defaults to 1)
	if p.Delay(3, 1, 2) != p.Delay(3, 1, 2) {
		t.Error("profile must be deterministic")
	}
	if p.Delay(3, src, 2) >= p.Interval {
		t.Error("source link must be fast")
	}
	if p.Delay(3, (src+1)%4, 2) < p.Interval {
		t.Error("non-source link must be slow")
	}
}

func TestLiveAsyncProfileCanBreakAgreement(t *testing.T) {
	// The live edition of TestESAgreementNeedsMS (internal/core): with no
	// link ever timely the MS property fails and Algorithm 2's agreement
	// genuinely can break — the paper's environment assumption is
	// load-bearing, not decorative. Validity must survive regardless.
	props := core.SplitProposals(3, 2)
	res, err := Run(context.Background(), Config{
		N:         3,
		Automaton: esFactory(props),
		Interval:  2 * time.Millisecond,
		Latency:   env.AsyncProfile{Interval: 2 * time.Millisecond, Seed: 8},
		Timeout:   400 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if v := property.CheckValidity(res.Outcomes(), core.ProposalSet(props)); v != nil {
		t.Error(v)
	}
	if v := property.CheckAgreement(res.Outcomes()); v != nil {
		t.Logf("agreement broke under async, as the theory predicts: %v", v)
	}
}

func TestOnRoundHookRunsInProcessGoroutine(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]int{}
	props := core.DistinctProposals(3)
	_, err := Run(context.Background(), Config{
		N:         3,
		Automaton: esFactory(props),
		Interval:  2 * time.Millisecond,
		Latency:   env.Sync{Interval: 2 * time.Millisecond},
		Timeout:   5 * time.Second,
		OnRound: func(proc, round int, aut giraf.Automaton) {
			if _, ok := aut.(*core.ES); !ok {
				t.Errorf("hook got %T", aut)
			}
			mu.Lock()
			if round > seen[proc] {
				seen[proc] = round
			}
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	for i := 0; i < 3; i++ {
		if seen[i] == 0 {
			t.Errorf("hook never ran for process %d", i)
		}
	}
}

func TestRunParentContextCancellation(t *testing.T) {
	// With a half-second round timer nothing can decide before the cancel
	// fires; Run must return promptly with a wrapped context error.
	props := core.DistinctProposals(3)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := Run(ctx, Config{
		N:         3,
		Automaton: esFactory(props),
		Interval:  500 * time.Millisecond,
		Latency:   env.Sync{Interval: 500 * time.Millisecond},
		Timeout:   5 * time.Minute,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want wrapped context.Canceled, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation not prompt: %v", elapsed)
	}
}
