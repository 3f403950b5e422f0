package tcpnet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"anonconsensus/internal/core"
	"anonconsensus/internal/giraf"
	"anonconsensus/internal/rounddriver"
	"anonconsensus/internal/values"
	"anonconsensus/internal/wire"
)

// dialMuxCluster attaches n MuxNodes to the hub.
func dialMuxCluster(t *testing.T, hub *Hub, n int) []*MuxNode {
	t.Helper()
	nodes := make([]*MuxNode, n)
	for i := range nodes {
		m, err := DialMux(context.Background(), MuxConfig{HubAddr: hub.Addr()})
		if err != nil {
			t.Fatalf("mux node %d: %v", i, err)
		}
		nodes[i] = m
		t.Cleanup(func() { _ = m.Close() })
	}
	return nodes
}

// runMuxInstance registers epoch on every node, runs one consensus
// instance over it, and asserts every property of the paper.
func runMuxInstance(t *testing.T, nodes []*MuxNode, epoch uint64, interval time.Duration) {
	t.Helper()
	props := core.DistinctProposals(len(nodes))
	results, err := runEpoch(nodes, epoch, props, interval)
	if err != nil {
		t.Fatalf("epoch %d: %v", epoch, err)
	}
	requireConsensus(t, results, props)
}

// runEpoch registers epoch on every node, runs one ES instance over it
// with a goroutine per node, and unregisters it. It reports failures as an
// error, so it may run off the test's goroutine.
func runEpoch(nodes []*MuxNode, epoch uint64, props []values.Value, interval time.Duration) ([]rounddriver.Outcome, error) {
	defer func() {
		for _, m := range nodes {
			m.Unregister(epoch)
		}
	}()
	for i, m := range nodes {
		if err := m.Register(epoch); err != nil {
			return nil, fmt.Errorf("node %d: %w", i, err)
		}
	}
	results := make([]rounddriver.Outcome, len(nodes))
	errs := make([]error, len(nodes))
	var wg sync.WaitGroup
	for i, m := range nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = m.RunInstance(context.Background(), epoch, InstanceRun{
				Automaton: core.NewES(props[i]),
				Interval:  interval,
				Timeout:   30 * time.Second,
			})
		}()
	}
	wg.Wait()
	return results, errors.Join(errs...)
}

// TestMuxManyEpochsOneConnection is the multiplexing pin: several
// consensus instances run concurrently over ONE hub and ONE resumable
// session (one TCP connection) per node, each instance on its own
// epoch, and every instance still satisfies agreement and validity. The
// session count proves the sharing: it stays at n no matter how many
// instances ran.
func TestMuxManyEpochsOneConnection(t *testing.T) {
	hub, err := NewHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	const n, instances = 3, 4
	nodes := dialMuxCluster(t, hub, n)

	var wg sync.WaitGroup
	for e := uint64(1); e <= instances; e++ {
		e := e
		wg.Add(1)
		go func() {
			defer wg.Done()
			runMuxInstance(t, nodes, e, 4*time.Millisecond)
		}()
	}
	wg.Wait()

	if got := hub.Stats().Sessions; got != n {
		t.Fatalf("hub saw %d sessions for %d instances on %d nodes, want %d (one per node)", got, instances, n, n)
	}
	for i, m := range nodes {
		if s := m.Stats(); s.Reconnects != 0 {
			t.Fatalf("node %d reconnected %d times on a healthy link", i, s.Reconnects)
		}
	}
}

// TestMuxSequentialEpochsReuseSession pins that a node runs instance
// after instance on the same attachment, with retirement keeping the
// hub log from accumulating dead traffic.
func TestMuxSequentialEpochsReuseSession(t *testing.T) {
	hub, err := NewHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	nodes := dialMuxCluster(t, hub, 3)
	for e := uint64(1); e <= 3; e++ {
		runMuxInstance(t, nodes, e, 4*time.Millisecond)
		hub.RetireEpoch(e)
	}
	hs := hub.Stats()
	if hs.Sessions != 3 {
		t.Fatalf("hub saw %d sessions, want 3", hs.Sessions)
	}
	if hs.EpochsRetired != 3 {
		t.Fatalf("EpochsRetired = %d, want 3", hs.EpochsRetired)
	}
	if hs.RetiredFrames == 0 {
		t.Fatal("retiring three finished epochs compacted no frames")
	}
}

// setEnvelope builds a full-form one-payload envelope for the round.
func setEnvelope(round int) giraf.Envelope { return valueEnvelope(round, int64(round)) }

// valueEnvelope is a round-`round` envelope whose one payload proposes v.
func valueEnvelope(round int, v int64) giraf.Envelope {
	p := core.SetPayload{Proposed: values.NewSet(values.Num(v))}
	var h values.Hasher
	h.WriteFingerprint(p.PayloadFingerprint())
	return giraf.Envelope{
		Round:          round,
		Payloads:       []giraf.Payload{p},
		SetFingerprint: h.Sum(),
	}
}

// awaitInbox drains inbox, with no round driver on it, until it has taken
// n envelopes, and returns them in arrival order.
func awaitInbox(t *testing.T, inbox *rounddriver.Mailbox, n int) []giraf.Envelope {
	t.Helper()
	var got []giraf.Envelope
	deadline := time.Now().Add(5 * time.Second)
	for {
		inbox.Drain(func(env giraf.Envelope) { got = append(got, env) })
		if len(got) >= n {
			return got
		}
		if time.Now().After(deadline) {
			t.Fatalf("inbox took %d of %d envelopes", len(got), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// epochFrame builds one self-contained epoch-tagged data frame.
func epochFrame(t *testing.T, epoch uint64, round int) []byte {
	t.Helper()
	data, err := wire.EncodeDeltaEnvelopeEpoch(setEnvelope(round), epoch)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestRetireEpochScopesReplay pins the replay contract: a session
// established after RetireEpoch(k) replays every live epoch's frames
// but none of epoch k's, and a straggler broadcast tagged k is
// suppressed rather than logged.
func TestRetireEpochScopesReplay(t *testing.T) {
	hub, err := NewHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()

	// A writer node feeds the hub two interleaved epoch streams.
	writer, err := DialMux(context.Background(), MuxConfig{HubAddr: hub.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()
	for round := 1; round <= 3; round++ {
		for _, epoch := range []uint64{1, 2} {
			writer.writeMu.Lock()
			werr := wire.WriteFrame(writer.conn, epochFrame(t, epoch, round))
			writer.writeMu.Unlock()
			if werr != nil {
				t.Fatal(werr)
			}
		}
	}
	// Wait for the hub to log all six frames before retiring.
	deadline := time.Now().Add(5 * time.Second)
	for hub.Stats().EpochsRetired == 0 {
		logged := hub.logged()
		if logged >= 6 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("hub logged %d frames, want 6", logged)
		}
		time.Sleep(time.Millisecond)
	}

	hub.RetireEpoch(1)
	hs := hub.Stats()
	if hs.EpochsRetired != 1 || hs.RetiredFrames != 3 {
		t.Fatalf("after retiring epoch 1: EpochsRetired=%d RetiredFrames=%d, want 1 and 3", hs.EpochsRetired, hs.RetiredFrames)
	}

	// A straggler broadcast for the retired epoch must be suppressed.
	writer.writeMu.Lock()
	werr := wire.WriteFrame(writer.conn, epochFrame(t, 1, 4))
	writer.writeMu.Unlock()
	if werr != nil {
		t.Fatal(werr)
	}

	// A late joiner registered only for epoch 2 must see exactly epoch
	// 2's three frames — retired traffic is gone from the replay.
	// (Registered before its reader starts: the replay is already on the
	// socket when the dial returns.)
	late, err := DialMux(context.Background(), MuxConfig{HubAddr: hub.Addr()}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer late.Close()
	late.mu.Lock()
	inbox := late.epochs[2].inbox
	late.mu.Unlock()
	got := awaitInbox(t, inbox, 3)
	time.Sleep(50 * time.Millisecond) // room for an unexpected extra frame
	inbox.Drain(func(env giraf.Envelope) { got = append(got, env) })
	if len(got) != 3 {
		t.Fatalf("late joiner received %d frames, want epoch 2's 3", len(got))
	}
	for i, env := range got {
		if env.Round != i+1 {
			t.Fatalf("late joiner's frame %d is round %d, want %d", i, env.Round, i+1)
		}
	}
	if s := late.Stats(); s.UnknownEpochFrames != 0 {
		// Epoch-1 frames were retired before the late joiner's session
		// was seeded, so none should have reached it at all.
		t.Fatalf("late joiner demuxed %d unknown-epoch frames, want 0", s.UnknownEpochFrames)
	}
	if got := hub.Stats().RetiredFrames; got != 4 {
		t.Fatalf("RetiredFrames = %d after straggler, want 4 (3 compacted + 1 suppressed)", got)
	}
}

// TestMuxReconnectResumesAllEpochs pins recovery of the shared session:
// severing the one TCP connection mid-flight forces a reconnect, and
// both in-flight instances still decide (their delta streams restart
// from full payloads, their inboxes resume from the session replay).
func TestMuxReconnectResumesAllEpochs(t *testing.T) {
	hub, err := NewHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	const n = 3
	nodes := make([]*MuxNode, n)
	for i := range nodes {
		m, err := DialMux(context.Background(), MuxConfig{
			HubAddr:   hub.Addr(),
			Reconnect: ReconnectPolicy{MaxAttempts: 8, BaseDelay: 5 * time.Millisecond, Seed: int64(i)},
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = m
		t.Cleanup(func() { _ = m.Close() })
	}

	// Sever node 0's connection shortly into the run: after round 0 (the
	// first 4ms beat of a Registered epoch) and 3.5 beats before the
	// earliest decision (round 4, on the 5th beat, for distinct proposals),
	// so the instances cannot have decided yet.
	go func() {
		time.Sleep(6 * time.Millisecond)
		nodes[0].writeMu.Lock()
		if c := nodes[0].conn; c != nil {
			_ = c.Close()
		}
		nodes[0].writeMu.Unlock()
	}()

	var wg sync.WaitGroup
	for e := uint64(1); e <= 2; e++ {
		e := e
		wg.Add(1)
		go func() {
			defer wg.Done()
			runMuxInstance(t, nodes, e, 4*time.Millisecond)
		}()
	}
	wg.Wait()

	if s := nodes[0].Stats(); s.Reconnects == 0 {
		t.Fatal("severed node never reconnected")
	}
	if hs := hub.Stats(); hs.Reconnects == 0 {
		t.Fatal("hub recorded no session resumption")
	}
}

// runFirstBeatProbe runs process i as run(ctx, i, its InstanceRun) for
// three ES processes at 50ms beats, under one context that ends 2.6 beats
// in, so two beats fit and the third does not. It fails the test unless
// every process has executed a round by then: round 0 on the first beat.
func runFirstBeatProbe(t *testing.T, run func(ctx context.Context, i int, cfg InstanceRun) (rounddriver.Outcome, error)) {
	t.Helper()
	const (
		n    = 3
		beat = 50 * time.Millisecond
	)
	ctx, cancel := context.WithTimeout(context.Background(), 13*beat/5)
	defer cancel()
	props := core.DistinctProposals(n)
	results := make([]rounddriver.Outcome, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = run(ctx, i, InstanceRun{Automaton: core.NewES(props[i]), Interval: beat})
		}()
	}
	wg.Wait()
	for i, out := range results {
		if errs[i] != nil {
			t.Fatalf("process %d: %v", i, errs[i])
		}
		if out.Rounds < 1 {
			t.Errorf("process %d executed %d rounds in 2.6 beats, want ≥ 1 (round 0 on the first beat)", i, out.Rounds)
		}
	}
}

// TestMuxRegisteredEpochHasNoJoinGrace pins that an epoch opened by
// Register — every participating node's epoch registered before any
// automaton starts, the way the TCP transports lease — runs round 0 on its
// first beat.
func TestMuxRegisteredEpochHasNoJoinGrace(t *testing.T) {
	hub, err := NewHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	nodes := dialMuxCluster(t, hub, 3)
	for _, m := range nodes {
		if err := m.Register(testEpoch); err != nil {
			t.Fatal(err)
		}
	}
	runFirstBeatProbe(t, func(ctx context.Context, i int, cfg InstanceRun) (rounddriver.Outcome, error) {
		return nodes[i].RunInstance(ctx, testEpoch, cfg)
	})
}

// TestMuxDialEpochRunsRoundZeroOnFirstBeat pins the same for an epoch
// registered at DialMux (runSolo, the JoinTCP path): it runs round 0 on its
// first beat too, exactly as a Registered one does.
func TestMuxDialEpochRunsRoundZeroOnFirstBeat(t *testing.T) {
	hub, err := NewHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	runFirstBeatProbe(t, func(ctx context.Context, _ int, cfg InstanceRun) (rounddriver.Outcome, error) {
		out, _, err := runSolo(ctx, MuxConfig{HubAddr: hub.Addr()}, cfg)
		return out, err
	})
}

// burstCounter is an automaton that never decides and proposes the same
// value every round. Its first Compute closes entered and waits for gate,
// so its driver drains nothing until the test opens the gate; each later
// Compute sends, on counts, how many peer payloads its process holds for
// round 2.
type burstCounter struct {
	own           core.SetPayload
	entered, gate chan struct{}
	counts        chan int
}

func newBurstCounter() *burstCounter {
	return &burstCounter{
		own:     core.SetPayload{Proposed: values.NewSet(values.Num(1 << 40))},
		entered: make(chan struct{}),
		gate:    make(chan struct{}),
		counts:  make(chan int, 64),
	}
}

func (b *burstCounter) Initialize() giraf.Payload { return b.own }

func (b *burstCounter) Compute(k int, inbox giraf.Inbox) (giraf.Payload, giraf.Decision) {
	if k == 1 {
		close(b.entered)
		<-b.gate
		return b.own, giraf.Decision{}
	}
	peers := 0
	for _, p := range inbox.Round(2) {
		if p.PayloadKey() != b.own.PayloadKey() {
			peers++
		}
	}
	select {
	case b.counts <- peers:
	default:
	}
	return b.own, giraf.Decision{}
}

// sessionQueue reports the stream positions [base, end) of the hub
// session created index-th.
func sessionQueue(hub *Hub, index int) (base, end int) {
	hub.mu.Lock()
	defer hub.mu.Unlock()
	for _, s := range hub.sessions {
		if s.index == index {
			return s.base, s.end()
		}
	}
	return -1, -1
}

// TestMuxResumeBurstReachesDriver: a DialMux joiner whose round driver is
// busy inside a round is severed, and resumed into a hub replay of 2049
// frames of its epoch — twice the 1024 envelopes an epoch inbox used to
// hold, plus one. Its reader takes the whole replay (the hub trims the
// session queue behind the acked cursor) before the driver drains
// anything. Every frame must then reach the driver, and the round whose
// add's mark travels behind the replay must still end.
func TestMuxResumeBurstReachesDriver(t *testing.T) {
	const burst = 2049
	hub, err := NewHub("127.0.0.1:0", WithHeartbeat(5*time.Millisecond, 100))
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	proxy := newFlakyProxy(t, hub.Addr())
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	joiner, err := DialMux(ctx, MuxConfig{
		HubAddr:   proxy.addr(),
		Reconnect: ReconnectPolicy{MaxAttempts: 10000, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
	}, testEpoch) // session 0
	if err != nil {
		t.Fatal(err)
	}
	defer joiner.Close()
	peer, err := DialMux(ctx, MuxConfig{HubAddr: hub.Addr()}, testEpoch)
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()

	aut := newBurstCounter()
	ran := make(chan error, 1)
	go func() {
		_, err := joiner.RunInstance(ctx, testEpoch, InstanceRun{Automaton: aut, Interval: time.Millisecond, Timeout: 30 * time.Second})
		ran <- err
	}()
	select {
	case <-aut.entered: // the driver is inside round 1 from here on
	case <-ctx.Done():
		t.Fatal("the joiner never computed round 1")
	}

	proxy.blackout()
	for joiner.attached() != 0 {
		time.Sleep(time.Millisecond)
	}
	peer.mu.Lock()
	ep := peer.epochs[testEpoch]
	peer.mu.Unlock()
	for i := 0; i < burst; i++ {
		if err := peer.send(ep, valueEnvelope(2, int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	for {
		if _, end := sessionQueue(hub, 0); end == burst {
			break
		}
		if ctx.Err() != nil {
			t.Fatal("the hub never queued the burst to the joiner")
		}
		time.Sleep(time.Millisecond)
	}
	proxy.heal()
	for {
		if base, _ := sessionQueue(hub, 0); base == burst {
			break // the reader acked, so it has put, every replayed frame
		}
		if ctx.Err() != nil {
			t.Fatalf("the joiner's reader never took the replay (stats %+v)", joiner.Stats())
		}
		time.Sleep(time.Millisecond)
	}

	close(aut.gate)
	select {
	case got := <-aut.counts:
		if got != burst {
			t.Fatalf("round 2 ended holding %d of the %d replayed frames", got, burst)
		}
	case err := <-ran:
		t.Fatalf("the run ended before round 2 did: %v", err)
	case <-ctx.Done():
		t.Fatal("round 2 never ended: its mark did not reach the driver")
	}
	if s := joiner.Stats(); s.Reconnects < 1 || s.UnknownEpochFrames != 0 {
		t.Fatalf("joiner stats %+v: want a resumption and no unknown-epoch frames", s)
	}
}
