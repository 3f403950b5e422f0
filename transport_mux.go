package anonconsensus

import (
	"context"
	"fmt"
	"sync"
	"time"

	"anonconsensus/internal/tcpnet"
)

// tcpMuxTransport adapts the multiplexed real-TCP runtime to the
// Transport interface: ONE shared anonymous broadcast hub and a
// persistent pool of resumable hub sessions (one TCP connection per
// process slot), with every Run riding those connections as a distinct
// instance epoch. Where the plain tcp transport pays a hub, n dials and
// n handshakes per instance, this one pays them once and then
// multiplexes — the serving-plane shape for sustained traffic.
type tcpMuxTransport struct {
	mu     sync.Mutex
	hub    *tcpnet.Hub
	slots  []*tcpnet.MuxNode
	epoch  uint64
	closed bool
}

// NewTCPMuxTransport returns the multiplexed real-TCP backend. Run is
// safe for concurrent use: each call claims a fresh epoch, registers it
// on the first n connection slots (growing the pool to the largest n
// seen), runs the instance's automata over the shared connections, and
// retires the epoch on the hub when done — so the hub's replay log stays
// proportional to the instances in flight, not to everything it ever
// carried.
//
// Differences from NewTCPTransport, both rooted in connection sharing:
// link-fault scenarios (loss, duplication, partitions) are rejected —
// the hub cannot fault one instance's forwards without faulting its
// co-tenants' — and GST adds no wall-clock jitter (runs are synchronous
// from the start, a legal ES/ESS execution). Crash schedules still
// apply; a slot that exhausts its reconnect budget counts as crashed for
// the epochs it carried, exactly like the plain transport's ErrHubLost
// handling.
func NewTCPMuxTransport() Transport { return &tcpMuxTransport{} }

// Name implements Transport.
func (t *tcpMuxTransport) Name() string { return "tcp-mux" }

// Close implements Transport.
func (t *tcpMuxTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	slots, hub := t.slots, t.hub
	t.slots, t.hub = nil, nil
	t.mu.Unlock()
	var firstErr error
	for _, m := range slots {
		if err := m.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if hub != nil {
		if err := hub.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// lease returns n persistent slots and a fresh epoch, starting the hub
// and growing the slot pool on first need.
func (t *tcpMuxTransport) lease(ctx context.Context, n int, interval time.Duration, seed int64) ([]*tcpnet.MuxNode, uint64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, 0, fmt.Errorf("anonconsensus: tcp-mux transport is closed")
	}
	if t.hub == nil {
		hub, err := tcpnet.NewHub("127.0.0.1:0")
		if err != nil {
			return nil, 0, err
		}
		t.hub = hub
	}
	for len(t.slots) < n {
		m, err := tcpnet.DialMux(ctx, tcpnet.MuxConfig{
			HubAddr:   t.hub.Addr(),
			Reconnect: resolveReconnect(ReconnectPolicy{}, interval, seed, len(t.slots)),
		})
		if err != nil {
			return nil, 0, fmt.Errorf("anonconsensus: tcp-mux slot %d: %w", len(t.slots), err)
		}
		t.slots = append(t.slots, m)
	}
	t.epoch++
	return t.slots[:n:n], t.epoch, nil
}

// Run implements Transport.
func (t *tcpMuxTransport) Run(ctx context.Context, spec InstanceSpec) (*Result, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	if sc := spec.linkFaults(); sc != nil {
		return nil, fmt.Errorf("anonconsensus: the tcp-mux transport shares connections across instances and cannot inject per-instance link faults; use NewTCPTransport for loss/duplication/partition scenarios")
	}
	n := spec.N()
	interval := spec.interval(10 * time.Millisecond)
	start := time.Now()
	slots, epoch, err := t.lease(ctx, n, interval, spec.Seed)
	if err != nil {
		return nil, err
	}
	// Register the epoch on every slot before any automaton starts, so no
	// slot discards a sibling's first broadcast as unknown-epoch.
	for i, m := range slots {
		if err := m.Register(epoch); err != nil {
			for _, reg := range slots[:i] {
				reg.Unregister(epoch)
			}
			return nil, fmt.Errorf("anonconsensus: tcp-mux node %d: %w", i, err)
		}
	}
	hub := t.hubHandle()
	defer func() {
		for _, m := range slots {
			m.Unregister(epoch)
		}
		if hub != nil {
			hub.RetireEpoch(epoch)
		}
	}()

	factory := automatonFactory(spec.Env, spec.Proposals)
	out, err := runTCPProcs(ctx, t.Name(), n, func(ctx context.Context, i int) (*tcpnet.NodeResult, error) {
		return slots[i].RunInstance(ctx, epoch, tcpnet.InstanceRun{
			Automaton:        factory(i),
			Interval:         interval,
			Timeout:          spec.timeout(),
			CrashAfterRounds: spec.Crashes[i],
			Peers:            n,
		})
	})
	if err != nil {
		return nil, err
	}
	out.Elapsed = time.Since(start)
	// Robustness counters stay zero here by design (RunInstance reports
	// none): reconnects, replays and heartbeats belong to the transport's
	// persistent connections, which outlive and span instances, so
	// charging them to the one Run that happened to observe them would
	// misattribute. The hub's and slots' cumulative counters remain
	// available on their own handles.
	return out, nil
}

// hubHandle snapshots the shared hub under the lock (Close may nil it).
func (t *tcpMuxTransport) hubHandle() *tcpnet.Hub {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.hub
}
