package anonconsensus

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"anonconsensus/internal/anonnet"
	"anonconsensus/internal/env"
)

// liveTransport adapts the in-process goroutine runtime (internal/anonnet)
// to the Transport interface.
type liveTransport struct {
	closed atomic.Bool
}

// NewLiveTransport returns the in-process real-time backend: one goroutine
// per anonymous process, channel broadcast with per-link latency profiles
// realizing ES and ESS physically (drifting local round timers).
func NewLiveTransport() Transport { return &liveTransport{} }

// Name implements Transport.
func (t *liveTransport) Name() string { return "live" }

// Close implements Transport.
func (t *liveTransport) Close() error {
	t.closed.Store(true)
	return nil
}

// Run implements Transport.
func (t *liveTransport) Run(ctx context.Context, spec InstanceSpec) (*Result, error) {
	if t.closed.Load() {
		return nil, fmt.Errorf("anonconsensus: live transport is closed")
	}
	if err := spec.validate(); err != nil {
		return nil, err
	}
	n := spec.N()
	interval := spec.interval(5 * time.Millisecond)
	var latency env.LatencyModel
	if spec.Env == EnvESS {
		latency = env.ESSProfile{N: n, Interval: interval, Seed: spec.Seed, GST: spec.GST, Source: spec.StableSource}
	} else {
		latency = env.ESProfile{N: n, Interval: interval, Seed: spec.Seed, GST: spec.GST}
	}
	res, err := anonnet.Run(ctx, anonnet.Config{
		N:         n,
		Automaton: automatonFactory(spec.Env, spec.Proposals),
		Interval:  interval,
		Latency:   latency,
		Timeout:   spec.timeout(),
		Scenario:  spec.Scenario.toEnv(spec.Seed),
	})
	if err != nil {
		return nil, err
	}
	return &Result{Decisions: decisions(res.Outcomes()), Elapsed: res.Elapsed}, nil
}
