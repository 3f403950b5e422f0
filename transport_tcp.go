package anonconsensus

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"anonconsensus/internal/env"
	"anonconsensus/internal/tcpnet"
)

// tcpTransport adapts the real-TCP runtime (internal/tcpnet) to the
// Transport interface: every instance gets a fresh anonymous broadcast hub
// on the loopback interface and one TCP connection per process.
//
// A fresh hub per instance is load-bearing here: every node rides the
// same fixed epoch (tcpnet.RunNode), so reusing a hub would deliver
// instance k's envelopes into instance k+1 — and the GST delay and link
// faults below are hub options, which fault every connection of the hub
// they are set on. NewTCPMuxTransport is the multiplexed alternative —
// one epoch per instance, one shared hub, persistent connections — for
// sustained many-instance traffic.
type tcpTransport struct {
	listenAddr string
	closed     atomic.Bool

	// dialVia, when set, reroutes one node's hub dial — the seam the chaos
	// tests use to interpose a netchaos proxy on selected nodes. It
	// returns the address the node should dial and a cleanup run when the
	// instance finishes; returning hubAddr unchanged means "direct".
	dialVia func(node int, hubAddr string) (addr string, cleanup func())
}

// NewTCPTransport returns the real-TCP backend: an anonymous broadcast hub
// is started per instance (loopback, ephemeral port) and every process
// runs as a TCP client node. GST and Seed shape a wall-clock analogue of
// the pre-stabilization chaos: until GST×Interval has elapsed, frame
// forwards are jittered by 1.5–3.5 round intervals; afterwards they are
// immediate, so both ES and ESS hold physically.
func NewTCPTransport() Transport { return &tcpTransport{listenAddr: "127.0.0.1:0"} }

// Name implements Transport.
func (t *tcpTransport) Name() string { return "tcp" }

// Close implements Transport.
func (t *tcpTransport) Close() error {
	t.closed.Store(true)
	return nil
}

// tcpJitter is a tiny stateless mixer (FNV-1a) for per-forward delays.
func tcpJitter(seed int64, conn, serial int) uint64 {
	h := uint64(1469598103934665603) ^ uint64(seed)
	for _, x := range [2]int{conn, serial} {
		h ^= uint64(uint32(x))
		h *= 1099511628211
	}
	h ^= h >> 33
	return h
}

// Run implements Transport.
func (t *tcpTransport) Run(ctx context.Context, spec InstanceSpec) (*Result, error) {
	if t.closed.Load() {
		return nil, fmt.Errorf("anonconsensus: tcp transport is closed")
	}
	if err := spec.validate(); err != nil {
		return nil, err
	}
	n := spec.N()
	interval := spec.interval(10 * time.Millisecond)
	start := time.Now()
	chaosUntil := start.Add(time.Duration(spec.GST) * interval)

	var serial atomic.Int64
	delay := func(connIndex int) time.Duration {
		if !time.Now().Before(chaosUntil) {
			return 0
		}
		j := tcpJitter(spec.Seed, connIndex, int(serial.Add(1)))
		return 3*interval/2 + time.Duration(j%2000)*interval/1000
	}
	hubOpts := []tcpnet.HubOption{tcpnet.WithForwardDelay(delay)}
	if sc := spec.linkFaults(); sc != nil {
		// The hub relays opaque frames and never learns rounds, so the
		// scenario is realized physically: partitions activate by wall
		// clock (round ≈ elapsed/interval, the same approximation the GST
		// chaos uses) and the loss/duplication draws hash the frame serial
		// instead of the round — per-forward faults that are deterministic
		// in the spec seed for a fixed frame order.
		draws := &env.Scenario{Seed: sc.Seed, LossPct: sc.LossPct, DupPct: sc.DupPct}
		hubOpts = append(hubOpts, tcpnet.WithForwardFault(func(from, to, frameSerial int) (bool, bool) {
			round := int(time.Since(start)/interval) + 1
			if sc.Partitioned(round, from, to) {
				return true, false
			}
			return draws.Drops(frameSerial, from, to), draws.Duplicates(frameSerial, from, to)
		}))
	}
	hub, err := tcpnet.NewHub(t.listenAddr, hubOpts...)
	if err != nil {
		return nil, err
	}
	defer hub.Close()

	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = hub.Addr()
		if t.dialVia != nil {
			addr, cleanup := t.dialVia(i, addrs[i])
			addrs[i] = addr
			if cleanup != nil {
				defer cleanup()
			}
		}
	}
	factory := automatonFactory(spec.Env, spec.Proposals)
	out, err := runTCPProcs(ctx, t.Name(), n, func(ctx context.Context, i int) (*tcpnet.NodeResult, error) {
		return tcpnet.RunNode(ctx, tcpnet.NodeConfig{
			HubAddr:          addrs[i],
			Automaton:        factory(i),
			Interval:         interval,
			Timeout:          spec.timeout(),
			CrashAfterRounds: spec.Crashes[i],
			Peers:            n,
			Reconnect:        resolveReconnect(spec.Reconnect, interval, spec.Seed, i),
		})
	})
	if err != nil {
		return nil, err
	}
	out.Elapsed = time.Since(start)
	hs := hub.Stats()
	out.Robustness.HeartbeatMisses = hs.HeartbeatMisses
	out.Robustness.DroppedConns = hs.DroppedConns
	out.Robustness.OverwhelmedDrops = hs.OverwhelmedDrops
	return out, nil
}

// runTCPProcs runs one goroutine per process on a TCP plane and folds the
// node results into a Result (decisions plus the node-side robustness
// counters; Elapsed and hub-side counters are the caller's).
//
// A node failing on real infrastructure (encode error, dial failure at
// start) aborts the siblings immediately instead of letting them run out
// the full timeout. A node that established its session and then lost the
// hub for good (ErrHubLost, after the reconnect path was exhausted) is
// different: in the crash-fault model it is indistinguishable from a
// crashed process, so the siblings keep running — the severed minority is
// charged against the crash budget the algorithms already tolerate — and
// its partial result is kept (its counters record the outage).
func runTCPProcs(ctx context.Context, plane string, n int, run func(ctx context.Context, i int) (*tcpnet.NodeResult, error)) (*Result, error) {
	results := make([]*tcpnet.NodeResult, n)
	errs := make([]error, n)
	runCtx, abort := context.WithCancel(ctx)
	defer abort()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := run(runCtx, i)
			if err != nil && errors.Is(err, tcpnet.ErrHubLost) && res != nil {
				results[i] = res
				return
			}
			results[i], errs[i] = res, err
			if err != nil {
				abort()
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("anonconsensus: %s run cancelled: %w", plane, err)
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("anonconsensus: %s node %d: %w", plane, i, err)
		}
	}
	out := &Result{}
	for i, r := range results {
		out.Decisions = append(out.Decisions, Decision{
			Proc:    i,
			Decided: r.Decided,
			Value:   Value(r.Decision),
			Round:   r.Round,
			Crashed: r.Crashed,
		})
		out.Robustness.Reconnects += r.Reconnects
		out.Robustness.ReplayedFrames += r.ReplayedFrames
		out.Robustness.FailedDials += r.FailedDials
	}
	return out, nil
}

// resolveReconnect turns the public policy into the tcpnet one: defaults
// filled in, jitter seeded from the run seed and the process index so
// each node's backoff schedule is distinct yet replayable.
func resolveReconnect(p ReconnectPolicy, interval time.Duration, seed int64, node int) tcpnet.ReconnectPolicy {
	if p.MaxAttempts < 0 {
		return tcpnet.ReconnectPolicy{} // reconnection disabled: fail fast
	}
	attempts := p.MaxAttempts
	if attempts == 0 {
		attempts = 5
	}
	base := p.BaseDelay
	if base <= 0 {
		base = 2 * interval
		if base < 20*time.Millisecond {
			base = 20 * time.Millisecond
		}
	}
	maxd := p.MaxDelay
	if maxd <= 0 {
		maxd = time.Second
	}
	return tcpnet.ReconnectPolicy{
		MaxAttempts: attempts,
		BaseDelay:   base,
		MaxDelay:    maxd,
		Seed:        int64(tcpJitter(seed, node, 0x5eed)),
	}
}

// TCPHub is the public handle on the anonymous broadcast relay, for
// deployments where processes are separate OS processes or machines (see
// cmd/anonnode). It relays frames verbatim with no origin information; all
// algorithmic work happens in the joined nodes.
type TCPHub struct {
	inner *tcpnet.Hub
}

// NewTCPHub starts a hub listening on addr (e.g. "127.0.0.1:7777" or
// ":0" for an ephemeral port).
func NewTCPHub(addr string) (*TCPHub, error) {
	h, err := tcpnet.NewHub(addr)
	if err != nil {
		return nil, err
	}
	return &TCPHub{inner: h}, nil
}

// Addr returns the hub's listen address.
func (h *TCPHub) Addr() string { return h.inner.Addr() }

// Close stops the hub and all its connections.
func (h *TCPHub) Close() error { return h.inner.Close() }

// HubStats is the hub's robustness counters (sessions, resumptions,
// heartbeat misses, dropped connections).
type HubStats = tcpnet.HubStats

// Stats snapshots the hub's robustness counters.
func (h *TCPHub) Stats() HubStats { return h.inner.Stats() }

// JoinTCP joins the hub at hubAddr as one anonymous process proposing
// proposal, and blocks until that process decides, the run times out, or
// ctx is cancelled. The relevant options are WithEnv, WithInterval and
// WithTimeout; the returned Decision's Proc is always 0 (the process is
// anonymous — there is no meaningful index).
func JoinTCP(ctx context.Context, hubAddr string, proposal Value, opts ...Option) (Decision, error) {
	var o options
	if err := o.apply(opts); err != nil {
		return Decision{}, err
	}
	if err := o.validate(); err != nil {
		return Decision{}, err
	}
	if !proposal.valid() {
		return Decision{}, fmt.Errorf("anonconsensus: invalid proposal %q", string(proposal))
	}
	if ctx == nil {
		ctx = context.Background()
	}
	interval := o.interval
	if interval <= 0 {
		interval = 10 * time.Millisecond
	}
	factory := automatonFactory(o.resolvedEnv(), []Value{proposal})
	res, err := tcpnet.RunNode(ctx, tcpnet.NodeConfig{
		HubAddr:   hubAddr,
		Automaton: factory(0),
		Interval:  o.interval,
		Timeout:   o.timeout,
		Reconnect: resolveReconnect(o.reconnect, interval, o.seed, 0),
	})
	if err != nil {
		return Decision{}, err
	}
	if err := ctx.Err(); err != nil {
		return Decision{}, fmt.Errorf("anonconsensus: tcp join cancelled: %w", err)
	}
	return Decision{
		Decided: res.Decided,
		Value:   Value(res.Decision),
		Round:   res.Round,
		Crashed: res.Crashed,
	}, nil
}
