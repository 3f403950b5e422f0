package tcpnet

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"anonconsensus/internal/core"
	"anonconsensus/internal/values"
	"anonconsensus/internal/wire"
)

// runCluster starts a hub and n concurrent nodes, returning their results.
func runCluster(t *testing.T, n int, interval time.Duration, mkAut func(i int) NodeConfig, opts ...HubOption) []*NodeResult {
	t.Helper()
	hub, err := NewHub("127.0.0.1:0", opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()

	results := make([]*NodeResult, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		cfg := mkAut(i)
		cfg.HubAddr = hub.Addr()
		if cfg.Interval == 0 {
			cfg.Interval = interval
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = RunNode(context.Background(), cfg)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	return results
}

func TestTCPConsensusES(t *testing.T) {
	props := core.DistinctProposals(4)
	results := runCluster(t, 4, 8*time.Millisecond, func(i int) NodeConfig {
		return NodeConfig{
			Automaton: core.NewES(props[i]),
			Timeout:   30 * time.Second,
		}
	})
	decided := values.NewSet()
	for i, r := range results {
		if !r.Decided {
			t.Fatalf("node %d undecided after %d rounds", i, r.Rounds)
		}
		decided.Add(r.Decision)
	}
	if decided.Len() != 1 {
		t.Fatalf("agreement violated over TCP: %v", decided)
	}
	if v, _ := decided.Max(); !core.ProposalSet(props).Contains(v) {
		t.Fatalf("validity violated: %v", v)
	}
}

func TestTCPConsensusESS(t *testing.T) {
	props := core.DistinctProposals(3)
	results := runCluster(t, 3, 8*time.Millisecond, func(i int) NodeConfig {
		return NodeConfig{
			Automaton: core.NewESS(props[i]),
			Timeout:   40 * time.Second,
		}
	})
	decided := values.NewSet()
	for i, r := range results {
		if !r.Decided {
			t.Fatalf("node %d undecided", i)
		}
		decided.Add(r.Decision)
	}
	if decided.Len() != 1 {
		t.Fatalf("agreement violated over TCP: %v", decided)
	}
}

func TestTCPConsensusWithForwardDelays(t *testing.T) {
	// Shape the hub so one connection gets its frames late — the TCP
	// analogue of a slow link. Eventual synchrony still holds (delays are
	// bounded below the decision horizon), so everyone decides.
	props := core.DistinctProposals(3)
	slow := func(connIndex int) time.Duration {
		if connIndex == 1 {
			return 3 * time.Millisecond
		}
		return 0
	}
	results := runCluster(t, 3, 10*time.Millisecond, func(i int) NodeConfig {
		return NodeConfig{
			Automaton: core.NewES(props[i]),
			Timeout:   40 * time.Second,
		}
	}, WithForwardDelay(slow))
	decided := values.NewSet()
	for i, r := range results {
		if !r.Decided {
			t.Fatalf("node %d undecided", i)
		}
		decided.Add(r.Decision)
	}
	if decided.Len() != 1 {
		t.Fatalf("agreement violated: %v", decided)
	}
}

func TestTCPNodeValidation(t *testing.T) {
	if _, err := RunNode(context.Background(), NodeConfig{}); err == nil {
		t.Error("nil automaton accepted")
	}
	if _, err := RunNode(context.Background(), NodeConfig{
		HubAddr:   "127.0.0.1:1", // nothing listens here
		Automaton: core.NewES(values.Num(1)),
		Timeout:   time.Second,
	}); err == nil {
		t.Error("dial failure not reported")
	}
}

func TestHubCloseIdempotent(t *testing.T) {
	hub, err := NewHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := hub.Close(); err != nil {
		t.Fatal(err)
	}
	if err := hub.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}

func TestTCPLateJoinerStillAgrees(t *testing.T) {
	// Unknown participation: a node joins a while after the others
	// started. Agreement must hold among all deciders (the laggard may
	// adopt the already-decided value or decide in a later round).
	hub, err := NewHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()

	props := core.DistinctProposals(3)
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		decided = values.NewSet()
	)
	start := func(i int, delay time.Duration) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(delay)
			res, err := RunNode(context.Background(), NodeConfig{
				HubAddr:   hub.Addr(),
				Automaton: core.NewES(props[i]),
				Interval:  8 * time.Millisecond,
				Timeout:   30 * time.Second,
			})
			if err != nil {
				t.Error(err)
				return
			}
			if res.Decided {
				mu.Lock()
				decided.Add(res.Decision)
				mu.Unlock()
			}
		}()
	}
	start(0, 0)
	start(1, 0)
	start(2, 30*time.Millisecond) // joins a few rounds late
	wg.Wait()
	if decided.Len() > 1 {
		t.Fatalf("agreement violated with late joiner: %v", decided)
	}
	if decided.Len() == 0 {
		t.Fatal("nobody decided")
	}
}

// TestRunNodeLateJoinerReplayReachesInbox pins the hub contract on the
// folded client: a node that attaches after its peers broadcast must
// receive every logged frame (late counts as asynchronous, lost would
// break the model). The hub queues the replay before the dial even
// returns, so RunNode's epoch has to be registered before its reader
// starts — otherwise the replay is demultiplexed as unknown-epoch and
// dropped.
func TestRunNodeLateJoinerReplayReachesInbox(t *testing.T) {
	hub, err := NewHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	ctx := context.Background()

	const rounds = 5
	for i := 0; i < 2; i++ {
		early, err := dialMux(ctx, MuxConfig{HubAddr: hub.Addr()}, nodeEpoch)
		if err != nil {
			t.Fatal(err)
		}
		defer early.Close()
		for round := 1; round <= rounds; round++ {
			if err := early.send(nodeEpoch, setEnvelope(round)); err != nil {
				t.Fatal(err)
			}
		}
	}
	const logged = 2 * rounds
	deadline := time.Now().Add(5 * time.Second)
	for {
		hub.mu.Lock()
		n := len(hub.log)
		hub.mu.Unlock()
		if n == logged {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("hub logged %d frames, want %d", n, logged)
		}
		time.Sleep(time.Millisecond)
	}

	// The third node takes RunNode's dial path.
	late, err := dialMux(ctx, MuxConfig{HubAddr: hub.Addr()}, nodeEpoch)
	if err != nil {
		t.Fatal(err)
	}
	defer late.Close()
	late.mu.Lock()
	inbox := late.epochs[nodeEpoch].inbox
	late.mu.Unlock()
	for got := 0; got < logged; got++ {
		select {
		case <-inbox:
		case <-time.After(5 * time.Second):
			t.Fatalf("late joiner received %d of %d replayed frames (stats %+v)", got, logged, late.Stats())
		}
	}
	if s := late.Stats(); s.UnknownEpochFrames != 0 || s.InboxDrops != 0 {
		t.Fatalf("late joiner lost replay frames: %+v", s)
	}
}

// TestRunNodeSilentPeersWaitForEscape pins that the plain TCP plane runs
// under the round driver's pacing gate: a node told it has two peers, and
// hearing from neither, executes round 1 and then holds round 2 for the
// silent-beat escape instead of running a round per beat against its own
// solo view (the exposure RunNode carried until it was folded into the
// mux client).
func TestRunNodeSilentPeersWaitForEscape(t *testing.T) {
	hub, err := NewHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	const interval = 20 * time.Millisecond
	res, err := RunNode(context.Background(), NodeConfig{
		HubAddr:   hub.Addr(),
		Automaton: core.NewES(values.Num(1)),
		Interval:  interval,
		Peers:     3,
		// Three beats of join grace, then five more: round 1 fits, the
		// eight quiet beats before round 2 do not.
		Timeout: 8 * interval,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 1 || res.Decided {
		t.Fatalf("silent peers: executed %d rounds (decided=%v), want exactly round 1", res.Rounds, res.Decided)
	}
}

func TestTCPNodeCrashSchedule(t *testing.T) {
	// One node crashes after two rounds; the survivors still agree and the
	// crashed node reports Crashed rather than an error (crash-fault model).
	props := core.DistinctProposals(3)
	results := runCluster(t, 3, 8*time.Millisecond, func(i int) NodeConfig {
		cfg := NodeConfig{
			Automaton: core.NewES(props[i]),
			Timeout:   30 * time.Second,
		}
		if i == 0 {
			cfg.CrashAfterRounds = 2
		}
		return cfg
	})
	if !results[0].Crashed {
		t.Error("node 0 should report Crashed")
	}
	decided := values.NewSet()
	for i, r := range results[1:] {
		if !r.Decided {
			t.Fatalf("survivor %d undecided after %d rounds", i+1, r.Rounds)
		}
		decided.Add(r.Decision)
	}
	if decided.Len() != 1 {
		t.Fatalf("agreement violated among survivors: %v", decided)
	}
}

// waitForConns blocks until the hub has n attached sessions: Dial returns
// at the kernel handshake, before the hub's accept loop (and, for raw
// clients, the handshake-window classification) runs, and frames forwarded
// before registration reach late registrants only via the fault-free
// replay path — exactly what these tests must not measure.
func waitForConns(t *testing.T, h *Hub, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		got := h.attached()
		if got >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("hub registered %d connections, want %d", got, n)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestHubForwardFaultDuplication(t *testing.T) {
	// A fault that duplicates every forward: a frame sent once arrives
	// twice at every peer — the hub-level realization of a scenario's
	// duplication dimension (receivers dedup by set semantics, so this is
	// safe for the algorithms; here we assert the raw relay behavior).
	hub, err := NewHub("127.0.0.1:0", WithForwardFault(func(from, to, serial int) (bool, bool) {
		return false, true
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()

	sender, err := net.Dial("tcp", hub.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()
	receiver, err := net.Dial("tcp", hub.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer receiver.Close()

	waitForConns(t, hub, 2)
	frame := []byte("scenario-dup-frame")
	if err := wire.WriteFrame(sender, frame); err != nil {
		t.Fatal(err)
	}
	receiver.SetReadDeadline(time.Now().Add(5 * time.Second))
	for i := 0; i < 2; i++ {
		got, err := wire.ReadFrame(receiver)
		if err != nil {
			t.Fatalf("copy %d: %v", i+1, err)
		}
		if string(got) != string(frame) {
			t.Fatalf("copy %d: got %q", i+1, got)
		}
	}
}

func TestHubForwardFaultLoss(t *testing.T) {
	// A fault that drops every forward: peers receive nothing live. The
	// frame still lands in the hub log, so a later joiner replays it —
	// loss hits deliveries, not the broadcast itself.
	hub, err := NewHub("127.0.0.1:0", WithForwardFault(func(from, to, serial int) (bool, bool) {
		return true, false
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()

	sender, err := net.Dial("tcp", hub.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()
	receiver, err := net.Dial("tcp", hub.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer receiver.Close()

	waitForConns(t, hub, 2)
	if err := wire.WriteFrame(sender, []byte("lost-frame")); err != nil {
		t.Fatal(err)
	}
	receiver.SetReadDeadline(time.Now().Add(150 * time.Millisecond))
	if frame, err := wire.ReadFrame(receiver); err == nil {
		t.Fatalf("dropped frame delivered anyway: %q", frame)
	}

	// The replay path is fault-free: a late joiner still catches up.
	late, err := net.Dial("tcp", hub.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer late.Close()
	late.SetReadDeadline(time.Now().Add(5 * time.Second))
	got, err := wire.ReadFrame(late)
	if err != nil {
		t.Fatalf("late joiner replay: %v", err)
	}
	if string(got) != "lost-frame" {
		t.Fatalf("late joiner got %q", got)
	}
}
