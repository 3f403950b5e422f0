package anonconsensus

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"anonconsensus/internal/env"
	"anonconsensus/internal/rounddriver"
	"anonconsensus/internal/tcpnet"
)

// tcpPlane is the one TCP serving plane behind both TCP transports: an
// anonymous broadcast hub on the loopback interface, a pool of resumable
// hub sessions (one TCP connection per process slot), and every instance
// riding those connections as a distinct epoch. Slots are dialed one at a
// time under mu, so slot i is the hub's i-th session — the index the
// hub's forward delays and link faults are keyed by. (A slot re-dialed
// after its session was lost for good is a new session and takes the next
// free index instead.)
//
// NewTCPMuxTransport keeps one plane for its lifetime; NewTCPTransport
// builds and closes one per Run.
type tcpPlane struct {
	name string
	// hubOpts are the hub options beyond the plane's own fault hook.
	hubOpts []tcpnet.HubOption
	// dialVia, when set, reroutes one slot's hub dial — the seam the chaos
	// tests use to interpose a netchaos proxy on selected slots. It
	// returns the address the slot should dial and a cleanup run when the
	// plane closes; returning hubAddr unchanged means "direct".
	dialVia func(slot int, hubAddr string) (addr string, cleanup func())

	// faults maps each in-flight epoch under a link-fault scenario to its
	// tcpnet.LinkFault; fault-free epochs have no entry.
	faults sync.Map

	mu       sync.Mutex
	hub      *tcpnet.Hub // set once, by the first lease
	slots    []*tcpnet.MuxNode
	cleanups []func()
	epoch    uint64
	closed   bool
}

// faultOf is the hub's fault hook: one table lookup per broadcast frame.
func (p *tcpPlane) faultOf(epoch uint64) tcpnet.LinkFault {
	f, _ := p.faults.Load(epoch)
	fault, _ := f.(tcpnet.LinkFault)
	return fault
}

// linkFault realizes a scenario's link dimensions at the hub, keyed by
// the round each data frame's header carries: the hub drops and doubles
// exactly the forwards sc.Drops and sc.Duplicates name, the same draws
// the simulator and the live transport make.
func linkFault(sc *env.Scenario) tcpnet.LinkFault {
	return func(round, from, to int) (drop, dup bool) {
		return sc.Drops(round, from, to), sc.Duplicates(round, from, to)
	}
}

// lease returns the plane's first n slots, registered on a fresh epoch.
// It starts the hub on first need, dials the slots the pool lacks, and
// re-dials any whose session is permanently lost (instances still in
// flight on the old node see ErrHubLost: crash-equivalent). Registration
// happens here, under mu, so no slot discards a sibling's first broadcast
// as unknown-epoch and no slot is replaced between lease and Register.
func (p *tcpPlane) lease(ctx context.Context, spec *InstanceSpec, interval time.Duration) ([]*tcpnet.MuxNode, uint64, error) {
	n := spec.N()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, 0, fmt.Errorf("anonconsensus: %s transport is closed", p.name)
	}
	if p.hub == nil {
		hub, err := tcpnet.NewHub("127.0.0.1:0", append(p.hubOpts, tcpnet.WithForwardFault(p.faultOf))...)
		if err != nil {
			return nil, 0, err
		}
		p.hub = hub
	}
	for i := 0; i < n; i++ {
		if i < len(p.slots) && !p.slots[i].Lost() {
			continue
		}
		addr := p.hub.Addr()
		if p.dialVia != nil {
			var cleanup func()
			if addr, cleanup = p.dialVia(i, addr); cleanup != nil {
				p.cleanups = append(p.cleanups, cleanup)
			}
		}
		m, err := tcpnet.DialMux(ctx, tcpnet.MuxConfig{
			HubAddr:   addr,
			Reconnect: resolveReconnect(spec.Reconnect, interval, spec.Seed, i),
		})
		if err != nil {
			return nil, 0, fmt.Errorf("anonconsensus: %s slot %d: %w", p.name, i, err)
		}
		if i == len(p.slots) {
			p.slots = append(p.slots, m)
		} else {
			_ = p.slots[i].Close()
			p.slots[i] = m
		}
	}
	p.epoch++
	// A copy: instances in flight keep reading theirs while a later lease
	// replaces a lost slot.
	slots := append([]*tcpnet.MuxNode(nil), p.slots[:n]...)
	for i, m := range slots {
		if err := m.Register(p.epoch); err != nil {
			for _, reg := range slots[:i] {
				reg.Unregister(p.epoch)
			}
			// Retired unused, so the hub's retired epochs stay one low-water mark.
			p.hub.RetireEpoch(p.epoch)
			return nil, 0, fmt.Errorf("anonconsensus: %s node %d: %w", p.name, i, err)
		}
	}
	return slots, p.epoch, nil
}

// run executes one instance on the plane: lease the slots and an epoch,
// install the spec's link faults for that epoch, run one goroutine per
// process over the shared connections, and retire the epoch — so the hub's
// replay log stays proportional to the instances in flight, not to
// everything it ever carried.
func (p *tcpPlane) run(ctx context.Context, spec InstanceSpec) (*Result, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	interval := spec.interval(10 * time.Millisecond)
	start := time.Now()
	slots, epoch, err := p.lease(ctx, &spec, interval)
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, m := range slots {
			m.Unregister(epoch)
		}
		p.faults.Delete(epoch)
		p.hub.RetireEpoch(epoch)
	}()
	sc := spec.Scenario.toEnv(spec.Seed)
	if sc.HasLinkFaults() {
		p.faults.Store(epoch, linkFault(sc))
	}

	// A node failing on real infrastructure (an encode error, say) aborts
	// the siblings immediately instead of letting them run out the full
	// timeout. A node that lost the hub for good (ErrHubLost, after the
	// reconnect path was exhausted) is different: in the crash-fault model
	// it is indistinguishable from a crashed process, so the siblings keep
	// running — the severed minority is charged against the crash budget
	// the algorithms already tolerate — and its partial result is kept.
	factory := automatonFactory(spec.Env, spec.Proposals)
	results := make([]rounddriver.Outcome, len(slots))
	errs := make([]error, len(slots))
	runCtx, abort := context.WithCancel(ctx)
	defer abort()
	var wg sync.WaitGroup
	for i, m := range slots {
		wg.Add(1)
		go func() {
			defer wg.Done()
			crashAfter, _ := sc.CrashRound(i)
			res, err := m.RunInstance(runCtx, epoch, tcpnet.InstanceRun{
				Automaton:        factory(i),
				Interval:         interval,
				Timeout:          spec.timeout(),
				CrashAfterRounds: crashAfter,
			})
			if errors.Is(err, tcpnet.ErrHubLost) {
				err = nil
			}
			results[i], errs[i] = res, err
			if err != nil {
				abort()
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("anonconsensus: %s run cancelled: %w", p.name, err)
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("anonconsensus: %s node %d: %w", p.name, i, err)
		}
	}
	return &Result{Decisions: decisions(rounddriver.Outcomes(results)), Elapsed: time.Since(start)}, nil
}

// close detaches every slot and stops the hub. Idempotent.
func (p *tcpPlane) close() error {
	p.mu.Lock()
	wasClosed := p.closed
	p.closed = true
	p.mu.Unlock()
	if wasClosed || p.hub == nil {
		return nil
	}
	for _, m := range p.slots {
		_ = m.Close()
	}
	for _, cleanup := range p.cleanups {
		cleanup()
	}
	return p.hub.Close()
}

// tcpTransport is the per-instance shape of the TCP plane: every Run
// builds a private tcpPlane — fresh hub, n fresh connections, one epoch —
// and closes it. What the private hub buys is hub-wide options that would
// fault co-tenants on a shared one: the pre-GST forward jitter below.
type tcpTransport struct {
	closed atomic.Bool

	// dialVia is handed to every Run's plane (see tcpPlane.dialVia).
	dialVia func(slot int, hubAddr string) (addr string, cleanup func())
}

// NewTCPTransport returns the real-TCP backend: an anonymous broadcast hub
// is started per instance (loopback, ephemeral port) and every process
// runs as a TCP client node. GST and Seed shape a wall-clock analogue of
// the pre-stabilization chaos: until GST×Interval has elapsed, frame
// forwards are jittered by 1.5–3.5 round intervals; afterwards they are
// immediate, so both ES and ESS hold physically. Result.Robustness
// reports the run's own hub and connections, and InstanceSpec.Reconnect
// is honoured per Run. NewTCPMuxTransport is the long-lived alternative
// for sustained many-instance traffic.
func NewTCPTransport() Transport { return &tcpTransport{} }

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
	interval := spec.interval(10 * time.Millisecond)
	chaosUntil := time.Now().Add(time.Duration(spec.GST) * interval)
	var serial atomic.Int64
	delay := func(sessionIndex int) time.Duration {
		if !time.Now().Before(chaosUntil) {
			return 0
		}
		j := tcpJitter(spec.Seed, sessionIndex, int(serial.Add(1)))
		return 3*interval/2 + time.Duration(j%2000)*interval/1000
	}
	p := &tcpPlane{
		name:    t.Name(),
		hubOpts: []tcpnet.HubOption{tcpnet.WithForwardDelay(delay)},
		dialVia: t.dialVia,
	}
	defer p.close()
	out, err := p.run(ctx, spec)
	if err != nil {
		return nil, err
	}
	for _, m := range p.slots {
		ms := m.Stats()
		out.Robustness.Reconnects += ms.Reconnects
		out.Robustness.ReplayedFrames += ms.ReplayedFrames
		out.Robustness.FailedDials += ms.FailedDials
	}
	hs := p.hub.Stats()
	out.Robustness.HeartbeatMisses = hs.HeartbeatMisses
	out.Robustness.DroppedConns = hs.DroppedConns
	out.Robustness.OverwhelmedDrops = hs.OverwhelmedDrops
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

// joinEpoch is the one epoch every JoinTCP process rides; sharing it is
// what makes the processes joined to a hub one instance.
const joinEpoch = 1

// JoinTCP joins the hub at hubAddr as one anonymous process proposing
// proposal, and blocks until that process decides, the run times out, or
// ctx is cancelled. If the hub restarts under it, the instance is lost —
// the new hub's log lacks what the processes had broadcast — and JoinTCP
// returns an error. The relevant options are WithEnv, WithInterval,
// WithTimeout and WithReconnect; the returned Decision's Proc is always 0
// (the process is anonymous — there is no meaningful index).
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
	// The epoch is registered at dial, before the reader starts, so the
	// hub's replay of an instance already under way reaches the inbox.
	m, err := tcpnet.DialMux(ctx, tcpnet.MuxConfig{
		HubAddr:   hubAddr,
		Reconnect: resolveReconnect(o.reconnect, interval, o.seed, 0),
	}, joinEpoch)
	if err != nil {
		return Decision{}, err
	}
	defer m.Close()
	out, err := m.RunInstance(ctx, joinEpoch, tcpnet.InstanceRun{
		Automaton: automatonFactory(o.resolvedEnv(), []Value{proposal})(0),
		Interval:  interval,
		Timeout:   o.timeout,
	})
	if err != nil {
		return Decision{}, err
	}
	if err := ctx.Err(); err != nil {
		return Decision{}, fmt.Errorf("anonconsensus: tcp join cancelled: %w", err)
	}
	return decisions(rounddriver.Outcomes([]rounddriver.Outcome{out}))[0], nil
}
