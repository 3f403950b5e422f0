package tcpnet

import (
	"bufio"
	"context"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"anonconsensus/internal/core"
	"anonconsensus/internal/env"
	"anonconsensus/internal/property"
	"anonconsensus/internal/rounddriver"
	"anonconsensus/internal/values"
	"anonconsensus/internal/wire"
)

// testEpoch is the one epoch every runSolo process rides; sharing it is
// what makes the processes on a hub one instance.
const testEpoch = 1

// runSolo is one single-instance process: a private MuxNode dialed with
// testEpoch registered (so the hub's replay reaches its inbox), one
// RunInstance on it, and the connection's counters beside the outcome —
// DialMux + RunInstance, the way JoinTCP drives them.
func runSolo(ctx context.Context, mux MuxConfig, run InstanceRun) (rounddriver.Outcome, MuxStats, error) {
	m, err := DialMux(ctx, mux, testEpoch)
	if err != nil {
		return rounddriver.Outcome{}, MuxStats{}, err
	}
	defer m.Close()
	out, err := m.RunInstance(ctx, testEpoch, run)
	return out, m.Stats(), err
}

// runClusterAt runs n concurrent solo processes against hub and returns
// their outcomes and connection counters; mk's MuxConfig needs no HubAddr.
func runClusterAt(t *testing.T, hub *Hub, n int, mk func(i int) (MuxConfig, InstanceRun)) ([]rounddriver.Outcome, []MuxStats) {
	t.Helper()
	results := make([]rounddriver.Outcome, n)
	stats := make([]MuxStats, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		mux, run := mk(i)
		mux.HubAddr = hub.Addr()
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], stats[i], errs[i] = runSolo(context.Background(), mux, run)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	return results, stats
}

// runCluster starts a hub and n concurrent nodes, returning their results.
func runCluster(t *testing.T, n int, mk func(i int) InstanceRun, opts ...HubOption) []rounddriver.Outcome {
	t.Helper()
	hub, err := NewHub("127.0.0.1:0", opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	results, _ := runClusterAt(t, hub, n, func(i int) (MuxConfig, InstanceRun) { return MuxConfig{}, mk(i) })
	return results
}

// requireConsensus fails t unless the outcomes satisfy every property of
// the paper, Termination included.
func requireConsensus(t *testing.T, outs []rounddriver.Outcome, props []values.Value) {
	t.Helper()
	run := property.Run{Proposals: core.ProposalSet(props), Outcomes: rounddriver.Outcomes(outs), Promised: true}
	if vs := property.Check(run); len(vs) > 0 {
		t.Fatalf("%v: %+v", vs, outs)
	}
}

func TestTCPConsensusES(t *testing.T) {
	props := core.DistinctProposals(4)
	results := runCluster(t, 4, func(i int) InstanceRun {
		return InstanceRun{
			Automaton: core.NewES(props[i]),
			Interval:  8 * time.Millisecond,
			Timeout:   30 * time.Second,
		}
	})
	requireConsensus(t, results, props)
}

func TestTCPConsensusESS(t *testing.T) {
	props := core.DistinctProposals(3)
	results := runCluster(t, 3, func(i int) InstanceRun {
		return InstanceRun{
			Automaton: core.NewESS(props[i]),
			Interval:  8 * time.Millisecond,
			Timeout:   40 * time.Second,
		}
	})
	requireConsensus(t, results, props)
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
	results := runCluster(t, 3, func(i int) InstanceRun {
		return InstanceRun{
			Automaton: core.NewES(props[i]),
			Interval:  10 * time.Millisecond,
			Timeout:   40 * time.Second,
		}
	}, WithForwardDelay(slow))
	requireConsensus(t, results, props)
}

func TestTCPNodeValidation(t *testing.T) {
	hub, err := NewHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	if _, _, err := runSolo(context.Background(), MuxConfig{HubAddr: hub.Addr()}, InstanceRun{}); err == nil {
		t.Error("nil automaton accepted")
	}
	if _, _, err := runSolo(context.Background(),
		MuxConfig{HubAddr: "127.0.0.1:1"}, // nothing listens here
		InstanceRun{Automaton: core.NewES(values.Num(1)), Timeout: time.Second},
	); err == nil {
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
		wg   sync.WaitGroup
		outs = make([]rounddriver.Outcome, len(props))
	)
	start := func(i int, delay time.Duration) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(delay)
			res, _, err := runSolo(context.Background(), MuxConfig{HubAddr: hub.Addr()}, InstanceRun{
				Automaton: core.NewES(props[i]),
				Interval:  8 * time.Millisecond,
				Timeout:   30 * time.Second,
			})
			if err != nil {
				t.Error(err)
				return
			}
			outs[i] = res
		}()
	}
	start(0, 0)
	start(1, 0)
	start(2, 30*time.Millisecond) // joins a few rounds late
	wg.Wait()
	run := property.Run{Proposals: core.ProposalSet(props), Outcomes: rounddriver.Outcomes(outs)}
	if vs := property.Check(run); len(vs) > 0 {
		t.Fatalf("late joiner: %v", vs)
	}
	if property.Decisions(run.Outcomes).Len() == 0 {
		t.Fatal("nobody decided")
	}
}

// TestRunNodeLateJoinerReplayReachesInbox pins the hub contract on a
// single-instance node (runSolo here, JoinTCP in the root package): a node
// that attaches after its peers broadcast must receive every logged frame
// (late counts as asynchronous, lost would break the model). The hub queues
// the replay before the dial even returns, so the node's epoch has to be
// registered at dial, before its reader starts — otherwise the replay is
// demultiplexed as unknown-epoch and dropped.
func TestRunNodeLateJoinerReplayReachesInbox(t *testing.T) {
	hub, err := NewHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	ctx := context.Background()

	const rounds = 5
	for i := 0; i < 2; i++ {
		early, err := DialMux(ctx, MuxConfig{HubAddr: hub.Addr()}, testEpoch)
		if err != nil {
			t.Fatal(err)
		}
		defer early.Close()
		for round := 1; round <= rounds; round++ {
			if err := early.send(early.epochs[testEpoch], setEnvelope(round)); err != nil {
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

	// The third node takes runSolo's dial path.
	late, err := DialMux(ctx, MuxConfig{HubAddr: hub.Addr()}, testEpoch)
	if err != nil {
		t.Fatal(err)
	}
	defer late.Close()
	late.mu.Lock()
	inbox := late.epochs[testEpoch].inbox
	late.mu.Unlock()
	awaitInbox(t, inbox, logged)
	if s := late.Stats(); s.UnknownEpochFrames != 0 {
		t.Fatalf("late joiner lost replay frames: %+v", s)
	}
}

// TestRunNodeSoloRunsOneRoundPerBeat pins that a node alone on a hub runs
// one round per beat: the hub completes each add at once, so nothing holds
// it for silent peers. Its rounds 0–2 run on beats 1–3 and fit a
// five-beat timeout; three beats idled before round 0, or a round held for
// three beats, would not.
func TestRunNodeSoloRunsOneRoundPerBeat(t *testing.T) {
	hub, err := NewHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	const interval = 50 * time.Millisecond
	res, _, err := runSolo(context.Background(), MuxConfig{HubAddr: hub.Addr()}, InstanceRun{
		Automaton: core.NewES(values.Num(1)),
		Interval:  interval,
		Timeout:   5 * interval,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Decided || res.DecidedRound != 2 {
		t.Fatalf("solo node: %+v, want a decision computing round 2", res)
	}
}

func TestTCPNodeCrashSchedule(t *testing.T) {
	// One node crashes after two rounds; the survivors still agree and the
	// crashed node reports Crashed rather than an error (crash-fault model).
	props := core.DistinctProposals(3)
	results := runCluster(t, 3, func(i int) InstanceRun {
		cfg := InstanceRun{
			Automaton: core.NewES(props[i]),
			Interval:  8 * time.Millisecond,
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
	requireConsensus(t, results, props)
}

// helloClient dials the hub as a bare session: the Hello/Welcome
// handshake and nothing else, so the test owns every byte after it. The
// session is attached hub-side before the Welcome is written, so frames
// broadcast after this returns reach it live, not through the replay.
// The returned connection reads through dialHub's reader, which may
// already hold the first of those frames.
func helloClient(t *testing.T, hub *Hub, hello wire.Hello) (net.Conn, wire.Welcome) {
	t.Helper()
	conn, br, welcome, err := dialHub(context.Background(), hub.Addr(), hello.Token, hello.Cursor)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	return bufferedConn{conn, br}, welcome
}

// bufferedConn is a connection whose reads go through its buffered reader.
type bufferedConn struct {
	net.Conn
	br *bufio.Reader
}

func (c bufferedConn) Read(p []byte) (int, error) { return c.br.Read(p) }

// readData returns the next data frame on conn, skipping the hub's
// control frames (heartbeats).
func readData(conn net.Conn, timeout time.Duration) ([]byte, error) {
	_ = conn.SetReadDeadline(time.Now().Add(timeout))
	for {
		frame, err := wire.ReadFrame(conn)
		if err != nil || !wire.IsControlFrame(frame) {
			return frame, err
		}
	}
}

// withHelloDeadline shortens the hub's wait for a connection's Hello.
func withHelloDeadline(d time.Duration) HubOption {
	return func(h *Hub) { h.helloDeadline = d }
}

func TestHubForwardFaultDuplication(t *testing.T) {
	// A fault that duplicates every forward: a frame sent once arrives
	// twice at every peer — the hub-level realization of a scenario's
	// duplication dimension (receivers dedup by set semantics, so this is
	// safe for the algorithms; here we assert the raw relay behavior).
	hub, err := NewHub("127.0.0.1:0", WithForwardFault(func(uint64) LinkFault {
		return func(round, from, to int) (bool, bool) { return false, true }
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	sender, _ := helloClient(t, hub, wire.Hello{})
	receiver, _ := helloClient(t, hub, wire.Hello{})

	frame := []byte("scenario-dup-frame")
	if err := wire.WriteFrame(sender, frame); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		got, err := readData(receiver, 5*time.Second)
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
	hub, err := NewHub("127.0.0.1:0", WithForwardFault(func(uint64) LinkFault {
		return func(round, from, to int) (bool, bool) { return true, false }
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	sender, _ := helloClient(t, hub, wire.Hello{})
	receiver, _ := helloClient(t, hub, wire.Hello{})

	if err := wire.WriteFrame(sender, []byte("lost-frame")); err != nil {
		t.Fatal(err)
	}
	if frame, err := readData(receiver, 150*time.Millisecond); err == nil {
		t.Fatalf("dropped frame delivered anyway: %q", frame)
	}

	// The replay path is fault-free: a late joiner still catches up.
	late, welcome := helloClient(t, hub, wire.Hello{})
	if welcome.Pending != 1 {
		t.Fatalf("late joiner's Welcome announces %d pending frames, want 1", welcome.Pending)
	}
	got, err := readData(late, 5*time.Second)
	if err != nil {
		t.Fatalf("late joiner replay: %v", err)
	}
	if string(got) != "lost-frame" {
		t.Fatalf("late joiner got %q", got)
	}
}

// TestHubForwardFaultScopedByEpoch pins the hook's epoch argument: the hub
// asks for the fault of the epoch each frame carries, so a fault installed
// for one epoch leaves its co-tenants' forwards alone.
func TestHubForwardFaultScopedByEpoch(t *testing.T) {
	hub, err := NewHub("127.0.0.1:0", WithForwardFault(func(epoch uint64) LinkFault {
		if epoch != 2 {
			return nil
		}
		return func(round, from, to int) (bool, bool) { return true, false }
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	sender, _ := helloClient(t, hub, wire.Hello{})
	receiver, _ := helloClient(t, hub, wire.Hello{})

	// Epoch 2's frame goes first: if it were forwarded it would arrive first.
	for _, epoch := range []uint64{2, 1} {
		if err := wire.WriteFrame(sender, epochFrame(t, epoch, 1)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := readData(receiver, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if epoch, _, _ := wire.DataFrameHeader(got); epoch != 1 {
		t.Fatalf("first delivered frame carries epoch %d, want 1 (epoch 2 is dropped)", epoch)
	}
}

// TestHubForwardFaultKeyedByRound pins the round the hub hands the fault
// hook: it is the one the frame's header carries, so a scenario's
// partition, loss and duplication draws pick the same forwards on the hub
// as on the simulator and the live transport.
func TestHubForwardFaultKeyedByRound(t *testing.T) {
	sc := &env.Scenario{Seed: 11, LossPct: 30, DupPct: 30,
		Partitions: []env.Partition{{From: 2, Until: 4, Cut: 1}}}
	hub, err := NewHub("127.0.0.1:0", WithForwardFault(func(epoch uint64) LinkFault {
		if epoch != 1 {
			return nil
		}
		return func(round, from, to int) (bool, bool) {
			return sc.Drops(round, from, to), sc.Duplicates(round, from, to)
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	// Sessions are indexed in creation order: the sender is process 0.
	sender, _ := helloClient(t, hub, wire.Hello{})
	receivers := []net.Conn{nil}
	for to := 1; to <= 2; to++ {
		conn, _ := helloClient(t, hub, wire.Hello{})
		receivers = append(receivers, conn)
	}
	for round := 1; round <= 6; round++ {
		if err := wire.WriteFrame(sender, epochFrame(t, 1, round)); err != nil {
			t.Fatal(err)
		}
	}
	// A fault-free frame on another epoch closes each receiver's stream:
	// the hub forwards in order, so everything before it has arrived.
	if err := wire.WriteFrame(sender, epochFrame(t, 2, 1)); err != nil {
		t.Fatal(err)
	}
	var dropped, doubled int
	for to := 1; to <= 2; to++ {
		var want, got []int
		for round := 1; round <= 6; round++ {
			switch {
			case sc.Drops(round, 0, to):
				dropped++
			case sc.Duplicates(round, 0, to):
				doubled++
				want = append(want, round, round)
			default:
				want = append(want, round)
			}
		}
		for {
			frame, err := readData(receivers[to], 5*time.Second)
			if err != nil {
				t.Fatalf("receiver %d: %v", to, err)
			}
			epoch, round, ok := wire.DataFrameHeader(frame)
			if !ok {
				t.Fatalf("receiver %d: undecodable header on %q", to, frame)
			}
			if epoch == 2 {
				break
			}
			got = append(got, round)
		}
		if !slices.Equal(got, want) {
			t.Errorf("receiver %d got rounds %v, want %v", to, got, want)
		}
	}
	// The partition alone drops rounds 2 and 3 for both receivers; the
	// seed must also exercise a loss draw and a duplication.
	if dropped <= 4 || doubled == 0 {
		t.Fatalf("seed exercises %d drops and %d duplicates; pick one with loss and duplication", dropped, doubled)
	}
}

// TestHubRejectsNonHelloFirstFrame pins the one admission path: a
// connection whose first frame is not a wire.Hello — a data frame, some
// other control frame, or nothing at all by the hello deadline — is
// closed and never becomes a session.
func TestHubRejectsNonHelloFirstFrame(t *testing.T) {
	hub, err := NewHub("127.0.0.1:0", withHelloDeadline(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	for name, first := range map[string][]byte{
		"data frame":        epochFrame(t, 1, 1),
		"non-Hello control": wire.EncodeHeartbeat(wire.Heartbeat{Seq: 1}),
		"silence":           nil,
	} {
		conn, err := net.Dial("tcp", hub.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if first != nil {
			if err := wire.WriteFrame(conn, first); err != nil {
				t.Fatal(err)
			}
		}
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if frame, err := wire.ReadFrame(conn); err == nil {
			t.Fatalf("%s: hub answered with a frame (% x), want the connection closed", name, frame)
		} else if nerr, ok := err.(net.Error); ok && nerr.Timeout() {
			t.Fatalf("%s: connection still open after 5s", name)
		}
		if got := hub.Stats().Sessions; got != 0 {
			t.Fatalf("%s: hub counts %d sessions, want 0", name, got)
		}
	}
	// The hub is unharmed: a proper Hello is still admitted.
	if _, welcome := helloClient(t, hub, wire.Hello{}); welcome.Token == 0 {
		t.Fatal("Hello after the rejects got no session token")
	}
}

// TestHubClampsHostileResumeCursor is the regression for a hub crash: a
// resume Hello with a known token and Cursor ≥ 1<<63 used to become a
// negative log index and panic the write loop — the whole hub. The cursor
// must be clamped to the session's log length, and the hub must go on
// relaying.
func TestHubClampsHostileResumeCursor(t *testing.T) {
	hub, err := NewHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	victim, issued := helloClient(t, hub, wire.Hello{})
	peer, _ := helloClient(t, hub, wire.Hello{})
	for round := 1; round <= 2; round++ {
		if err := wire.WriteFrame(peer, epochFrame(t, 1, round)); err != nil {
			t.Fatal(err)
		}
		if _, err := readData(victim, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}

	resumed, welcome := helloClient(t, hub, wire.Hello{Token: issued.Token, Cursor: 1 << 63})
	if welcome.Token != issued.Token || welcome.ResumeFrom != 2 || welcome.Pending != 0 {
		t.Fatalf("Welcome = %+v, want the session resumed at its log length 2 with nothing pending", welcome)
	}
	third, _ := helloClient(t, hub, wire.Hello{})
	if err := wire.WriteFrame(third, epochFrame(t, 1, 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := readData(resumed, 5*time.Second); err != nil {
		t.Fatalf("hub stopped relaying after the hostile Hello: %v", err)
	}
}

// TestHubSessionIndexStableAcrossResume pins that a session's delay/fault
// index is assigned once, at creation: a node that reconnects stays on its
// side of every partition cut and on its own loss/jitter stream.
func TestHubSessionIndexStableAcrossResume(t *testing.T) {
	type link struct{ from, to int }
	var mu sync.Mutex
	var seen []link
	hub, err := NewHub("127.0.0.1:0", WithForwardFault(func(uint64) LinkFault {
		return func(round, from, to int) (bool, bool) {
			mu.Lock()
			seen = append(seen, link{from, to})
			mu.Unlock()
			return false, false
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	sender, issued := helloClient(t, hub, wire.Hello{})
	receiver, _ := helloClient(t, hub, wire.Hello{})

	if err := wire.WriteFrame(sender, epochFrame(t, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := readData(receiver, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	// Sever, then resume by token.
	_ = sender.Close()
	sender, _ = helloClient(t, hub, wire.Hello{Token: issued.Token})
	if err := wire.WriteFrame(sender, epochFrame(t, 1, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := readData(receiver, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if want := []link{{0, 1}, {0, 1}}; len(seen) != 2 || seen[0] != want[0] || seen[1] != want[1] {
		t.Fatalf("fault hook saw links %v across a sever-and-resume, want %v", seen, want)
	}
}
