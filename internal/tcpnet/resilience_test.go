package tcpnet

import (
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"anonconsensus/internal/core"
	"anonconsensus/internal/rounddriver"
	"anonconsensus/internal/values"
	"anonconsensus/internal/wire"
)

// flakyProxy is a minimal TCP relay whose link can be severed on demand —
// enough to cut one node's hub connection without touching the others.
// (The full chaos harness lives in internal/netchaos; this one keeps the
// tcpnet tests dependency-free.)
type flakyProxy struct {
	ln     net.Listener
	target string

	mu    sync.Mutex
	conns []net.Conn
	down  bool
}

func newFlakyProxy(t *testing.T, target string) *flakyProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &flakyProxy{ln: ln, target: target}
	go p.accept()
	t.Cleanup(func() { _ = ln.Close(); p.sever() })
	return p
}

func (p *flakyProxy) addr() string { return p.ln.Addr().String() }

func (p *flakyProxy) accept() {
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		if p.down {
			p.mu.Unlock()
			_ = client.Close()
			continue
		}
		p.mu.Unlock()
		upstream, err := net.Dial("tcp", p.target)
		if err != nil {
			_ = client.Close()
			continue
		}
		p.mu.Lock()
		p.conns = append(p.conns, client, upstream)
		p.mu.Unlock()
		go func() { _, _ = io.Copy(upstream, client); _ = upstream.Close() }()
		go func() { _, _ = io.Copy(client, upstream); _ = client.Close() }()
	}
}

// sever closes every live relayed connection (new dials still succeed).
func (p *flakyProxy) sever() {
	p.mu.Lock()
	conns := p.conns
	p.conns = nil
	p.mu.Unlock()
	for _, c := range conns {
		_ = c.Close()
	}
}

// blackout severs and additionally refuses all future dials.
func (p *flakyProxy) blackout() {
	p.mu.Lock()
	p.down = true
	p.mu.Unlock()
	p.sever()
}

// heal accepts dials again after a blackout.
func (p *flakyProxy) heal() {
	p.mu.Lock()
	p.down = false
	p.mu.Unlock()
}

// downFor blacks the link out for d, then heals it — long enough for
// traffic to accumulate hub-side so the resumption has something to
// replay.
func (p *flakyProxy) downFor(d time.Duration) {
	p.blackout()
	go func() {
		time.Sleep(d)
		p.heal()
	}()
}

func TestNodeReconnectResumesSession(t *testing.T) {
	// Node 1 dials through a proxy that severs its connection mid-run. With
	// a reconnect policy it must resume the hub session via the replay
	// cursor and the whole cluster still reaches agreement — with the
	// outage visible in the counters.
	hub, err := NewHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	proxy := newFlakyProxy(t, hub.Addr())

	props := core.DistinctProposals(3)
	results := make([]rounddriver.Outcome, 3)
	stats := make([]MuxStats, 3)
	errs := make([]error, 3)
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		i := i
		mux := MuxConfig{
			HubAddr:   hub.Addr(),
			Reconnect: ReconnectPolicy{MaxAttempts: 10, BaseDelay: 5 * time.Millisecond, Seed: int64(i)},
		}
		if i == 1 {
			mux.HubAddr = proxy.addr()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], stats[i], errs[i] = runSolo(context.Background(), mux, InstanceRun{
				Automaton: core.NewES(props[i]),
				Interval:  10 * time.Millisecond,
				Timeout:   30 * time.Second,
			})
		}()
	}
	// Cut node 1's link just after rounds begin (round 0 runs on the first
	// 10ms beat, round 1 ends on the second at the earliest) and keep it
	// down for several round-lengths, so its peers' broadcasts pile up in
	// the session log; the resumption must replay them (ReplayedFrames,
	// below).
	time.Sleep(15 * time.Millisecond)
	proxy.downFor(60 * time.Millisecond)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	requireConsensus(t, results, props)
	if stats[1].Reconnects < 1 {
		t.Errorf("severed node reports %d reconnects, want ≥ 1", stats[1].Reconnects)
	}
	if stats[1].ReplayedFrames == 0 {
		t.Error("severed node reports no replayed frames; the resumption must replay its peers' broadcasts from the outage")
	}
	if hs := hub.Stats(); hs.Reconnects < 1 {
		t.Errorf("hub reports %d reconnects, want ≥ 1", hs.Reconnects)
	}
}

// TestNodeSurvivesHubRestart: the hub process dies mid-run and a new hub
// comes up on the same address. Its log lacks the adds the in-flight
// instance had completed — a weak-set failure no node can repair — so the
// nodes, seeing the new incarnation when they reconnect, end that instance
// promptly as lost (crash-equivalent), and an instance registered after
// the restart decides over the same nodes.
func TestNodeSurvivesHubRestart(t *testing.T) {
	hub, err := NewHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := hub.Addr()
	nodes := make([]*MuxNode, 3)
	for i := range nodes {
		m, err := DialMux(context.Background(), MuxConfig{
			HubAddr: addr,
			// Generous backoff budget: all three nodes must outlive the
			// restart gap.
			Reconnect: ReconnectPolicy{MaxAttempts: 20, BaseDelay: 10 * time.Millisecond, MaxDelay: 100 * time.Millisecond, Seed: int64(i)},
		}, testEpoch)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		nodes[i] = m
	}

	props := core.DistinctProposals(3)
	results := make([]rounddriver.Outcome, 3)
	errs := make([]error, 3)
	var wg sync.WaitGroup
	for i, m := range nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = m.RunInstance(context.Background(), testEpoch, InstanceRun{
				Automaton: core.NewES(props[i]),
				Interval:  50 * time.Millisecond,
				Timeout:   30 * time.Second,
			})
		}()
	}
	// Kill the hub once every node has broadcast its round-1 envelope,
	// a beat before anyone could compute a decision.
	deadline := time.Now().Add(10 * time.Second)
	for {
		logged := hub.logged()
		if logged >= len(nodes) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("hub logged %d frames, want one per node", logged)
		}
		time.Sleep(time.Millisecond)
	}
	restarted := time.Now()
	if err := hub.Close(); err != nil {
		t.Fatal(err)
	}
	// Same concrete address: the nodes' redials land on the new hub.
	hub2, err := NewHub(addr)
	if err != nil {
		t.Fatalf("restarting hub on %s: %v", addr, err)
	}
	defer hub2.Close()
	wg.Wait()
	if took := time.Since(restarted); took > 5*time.Second {
		t.Errorf("the in-flight instance took %v to end after the restart", took)
	}
	for i := range nodes {
		if !results[i].Lost || results[i].Decided || !errors.Is(errs[i], ErrHubRestarted) {
			t.Fatalf("node %d across the restart: outcome %+v, error %v; want lost with ErrHubRestarted", i, results[i], errs[i])
		}
		nodes[i].Unregister(testEpoch)
	}
	runMuxInstance(t, nodes, testEpoch+1, 10*time.Millisecond)
	reconnects := 0
	for _, m := range nodes {
		reconnects += m.Stats().Reconnects
	}
	if reconnects < 3 {
		t.Errorf("total reconnects %d, want ≥ 3 (every node crossed the restart)", reconnects)
	}
}

func TestNodeNeverHealsReportsHubLost(t *testing.T) {
	// The link never comes back: the node must exhaust its budget and
	// report ErrHubLost with a populated partial result — not hang, not
	// panic, not pretend to decide.
	hub, err := NewHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	proxy := newFlakyProxy(t, hub.Addr())

	done := make(chan struct{})
	var res rounddriver.Outcome
	var stats MuxStats
	var runErr error
	go func() {
		defer close(done)
		res, stats, runErr = runSolo(context.Background(), MuxConfig{
			HubAddr:   proxy.addr(),
			Reconnect: ReconnectPolicy{MaxAttempts: 3, BaseDelay: 5 * time.Millisecond, Seed: 42},
		}, InstanceRun{
			Automaton: core.NewES(values.Num(7)),
			// The long beat holds the node's first round past the
			// blackout: the blackout, not a solo decision, is what it
			// experiences.
			Interval: 5 * time.Second,
			Timeout:  20 * time.Second,
		})
	}()
	time.Sleep(80 * time.Millisecond)
	proxy.blackout()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("node hung after a permanent link failure")
	}

	if runErr == nil {
		t.Fatal("permanent outage reported no error")
	}
	if !errors.Is(runErr, ErrHubLost) {
		t.Fatalf("error does not wrap ErrHubLost: %v", runErr)
	}
	if !res.Lost {
		t.Fatal("no partial outcome (Lost) alongside ErrHubLost")
	}
	if res.Decided {
		t.Error("cut-off node claims a decision")
	}
	if stats.FailedDials < 3 {
		t.Errorf("FailedDials = %d, want ≥ 3 (every attempt hit the blackout)", stats.FailedDials)
	}
}

func TestNoReconnectPolicyFailsFast(t *testing.T) {
	// The zero policy preserves the historical behavior: connection loss is
	// immediately fatal, with ErrHubLost naming the cause.
	hub, err := NewHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	proxy := newFlakyProxy(t, hub.Addr())

	done := make(chan struct{})
	var runErr error
	go func() {
		defer close(done)
		_, _, runErr = runSolo(context.Background(), MuxConfig{HubAddr: proxy.addr()}, InstanceRun{
			Automaton: core.NewES(values.Num(3)),
			Interval:  5 * time.Second, // park: the loss must hit a live conn
			Timeout:   20 * time.Second,
		})
	}()
	time.Sleep(60 * time.Millisecond)
	proxy.blackout()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("node without reconnect policy hung on connection loss")
	}
	if !errors.Is(runErr, ErrHubLost) {
		t.Fatalf("want ErrHubLost, got: %v", runErr)
	}
}

func TestHubDropsHeartbeatDeadSession(t *testing.T) {
	// A client that never acks heartbeats must be declared dead after the
	// miss limit and dropped — with the misses and the drop visible in the
	// stats.
	hub, err := NewHub("127.0.0.1:0", WithHeartbeat(20*time.Millisecond, 3))
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()

	// Handshaken, then silent.
	dead, _ := helloClient(t, hub, wire.Hello{})

	// The hub should sever the connection: reads on our side hit EOF.
	_ = dead.SetReadDeadline(time.Now().Add(5 * time.Second))
	for {
		if _, err := wire.ReadFrame(dead); err != nil {
			if errors.Is(err, io.EOF) || !errors.Is(err, wire.ErrBadFrame) {
				break // severed (EOF / reset), as demanded
			}
		}
	}
	stats := hub.Stats()
	if stats.HeartbeatMisses < 3 {
		t.Errorf("HeartbeatMisses = %d, want ≥ 3", stats.HeartbeatMisses)
	}
	if stats.DroppedConns < 1 {
		t.Errorf("DroppedConns = %d, want ≥ 1", stats.DroppedConns)
	}
}

func TestHeartbeatAckKeepsSessionAlive(t *testing.T) {
	// A live node (its MuxNode acks heartbeats) must never be declared dead,
	// even with an aggressive probe schedule.
	hub, err := NewHub("127.0.0.1:0", WithHeartbeat(15*time.Millisecond, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()

	props := core.DistinctProposals(2)
	results, stats := runClusterAt(t, hub, 2, func(i int) (MuxConfig, InstanceRun) {
		return MuxConfig{Reconnect: ReconnectPolicy{MaxAttempts: 5, BaseDelay: 5 * time.Millisecond}},
			InstanceRun{
				Automaton: core.NewES(props[i]),
				Interval:  10 * time.Millisecond,
				Timeout:   30 * time.Second,
			}
	})
	requireConsensus(t, results, props)
	for i := range results {
		if stats[i].HeartbeatsAcked == 0 {
			t.Errorf("node %d acked no heartbeats under a 15ms probe schedule", i)
		}
	}
	if hs := hub.Stats(); hs.DroppedConns != 0 {
		t.Errorf("hub dropped %d conns; live acking nodes should never be declared dead", hs.DroppedConns)
	}
}

func TestHubOverwhelmGraceThenDrop(t *testing.T) {
	// A consumer that stops reading gets the high-water grace window, then
	// is dropped with OverwhelmedDrops accounting — not silently, not
	// instantly.
	hub, err := NewHub("127.0.0.1:0", WithQueuePolicy(8, 50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()

	sender, _ := helloClient(t, hub, wire.Hello{})
	// The victim never reads: its queue lag only grows.
	helloClient(t, hub, wire.Hello{})

	frame := make([]byte, 32<<10) // big frames defeat kernel socket buffering
	deadline := time.Now().Add(10 * time.Second)
	for hub.Stats().OverwhelmedDrops == 0 {
		if time.Now().After(deadline) {
			t.Fatal("overwhelmed consumer never dropped")
		}
		if err := wire.WriteFrame(sender, frame); err != nil {
			t.Fatalf("sender write: %v", err)
		}
	}
	stats := hub.Stats()
	if stats.DroppedConns < 1 {
		t.Errorf("DroppedConns = %d, want ≥ 1", stats.DroppedConns)
	}
}

func TestReconnectBackoffDeterministic(t *testing.T) {
	// Same seed ⇒ same jittered schedule; different seeds ⇒ (generically)
	// different schedules; and every delay lives in [d/2, 3d/2) of the
	// capped exponential envelope.
	p1 := ReconnectPolicy{MaxAttempts: 8, BaseDelay: 10 * time.Millisecond, MaxDelay: 200 * time.Millisecond, Seed: 1}
	p1b := p1
	p2 := p1
	p2.Seed = 2
	differs := false
	for i := 0; i < 8; i++ {
		d1, d1b, d2 := p1.backoff(i), p1b.backoff(i), p2.backoff(i)
		if d1 != d1b {
			t.Fatalf("attempt %d: same seed gave %v then %v", i, d1, d1b)
		}
		if d1 != d2 {
			differs = true
		}
		env := 10 * time.Millisecond << uint(i)
		if env > 200*time.Millisecond {
			env = 200 * time.Millisecond
		}
		if d1 < env/2 || d1 >= env+env/2 {
			t.Errorf("attempt %d: delay %v outside [%v, %v)", i, d1, env/2, env+env/2)
		}
	}
	if !differs {
		t.Error("seeds 1 and 2 produced identical jitter on all 8 attempts")
	}
}
