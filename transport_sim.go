package anonconsensus

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"anonconsensus/internal/core"
	"anonconsensus/internal/env"
	"anonconsensus/internal/sim"
)

// simTransport adapts the deterministic lockstep simulator (internal/sim
// driven through internal/core) to the Transport interface. Concurrent
// Run calls recycle engines through a small free list: each Run acquires
// an idle engine (or allocates one) and Resets it to the spec, so k
// in-flight instances reuse k engines' arenas instead of allocating
// fresh simulator state per call. Reset is contractually identical to a
// fresh New, so pooling never reaches results — determinism stays fixed
// by the spec and seed alone.
type simTransport struct {
	closed atomic.Bool

	mu   sync.Mutex
	free []*sim.Engine
}

// maxPooledEngines bounds the idle free list; concurrency beyond it
// still works, the excess engines are just not retained when released.
const maxPooledEngines = 32

// NewSimTransport returns the deterministic simulator backend: seeded
// adversarial schedules, lockstep rounds, identical specs produce
// identical Results. Interval and Timeout are ignored; MaxRounds bounds
// the run. Run is safe for concurrent use; overlapping runs recycle a
// per-transport engine pool.
func NewSimTransport() Transport { return &simTransport{} }

// Name implements Transport.
func (t *simTransport) Name() string { return "sim" }

// Close implements Transport.
func (t *simTransport) Close() error {
	t.closed.Store(true)
	t.mu.Lock()
	t.free = nil
	t.mu.Unlock()
	return nil
}

// acquire pops an idle engine, or returns nil when the caller should
// allocate a fresh one.
func (t *simTransport) acquire() *sim.Engine {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := len(t.free); n > 0 {
		e := t.free[n-1]
		t.free[n-1] = nil
		t.free = t.free[:n-1]
		return e
	}
	return nil
}

// release returns an engine to the free list. Engines are reusable after
// any completed RunContext — including a context-cancelled one — because
// Reset rebuilds all run state (the same contract sim.RunBatch relies
// on).
func (t *simTransport) release(e *sim.Engine) {
	t.mu.Lock()
	if len(t.free) < maxPooledEngines && !t.closed.Load() {
		t.free = append(t.free, e)
	}
	t.mu.Unlock()
}

// Run implements Transport.
func (t *simTransport) Run(ctx context.Context, spec InstanceSpec) (*Result, error) {
	if t.closed.Load() {
		return nil, fmt.Errorf("anonconsensus: sim transport is closed")
	}
	if err := spec.validate(); err != nil {
		return nil, err
	}
	cfg := simConfig(spec)
	eng := t.acquire()
	var err error
	if eng == nil {
		eng, err = sim.New(cfg)
	} else if err = eng.Reset(cfg); err != nil {
		// A failed Reset leaves the engine unusable; drop it rather than
		// returning it to the pool.
		eng = nil
	}
	if err != nil {
		return nil, err
	}
	res, err := eng.RunContext(ctx)
	if err != nil {
		t.release(eng)
		return nil, err
	}
	// Convert before releasing: once the engine is back in the pool a
	// concurrent Run may Reset it.
	out := &Result{Rounds: res.Rounds, Decisions: decisions(res.Outcomes())}
	t.release(eng)
	return out, nil
}

// simConfig translates a validated spec into the simulator configuration
// the sim transport runs: the policy (and automata) it builds belong to
// this one run.
func simConfig(spec InstanceSpec) sim.Config {
	var policy env.Policy
	if spec.Env == EnvESS {
		policy = &env.ESS{GST: spec.GST, StableSource: spec.StableSource, Pre: env.MS{Seed: spec.Seed}}
	} else {
		policy = &env.ES{GST: spec.GST, Pre: env.MS{Seed: spec.Seed}}
	}
	opts := core.RunOpts{
		Policy:    policy,
		Scenario:  spec.Scenario.toEnv(spec.Seed),
		MaxRounds: spec.MaxRounds,
	}
	if spec.Env == EnvESS {
		return core.ConfigESS(toValues(spec.Proposals), opts)
	}
	return core.ConfigES(toValues(spec.Proposals), opts)
}
