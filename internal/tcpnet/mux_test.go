package tcpnet

import (
	"context"
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
// instance over it, and asserts agreement + validity.
func runMuxInstance(t *testing.T, nodes []*MuxNode, epoch uint64, interval time.Duration) {
	t.Helper()
	props := core.DistinctProposals(len(nodes))
	for i, m := range nodes {
		if err := m.Register(epoch); err != nil {
			t.Fatalf("epoch %d node %d: %v", epoch, i, err)
		}
	}
	defer func() {
		for _, m := range nodes {
			m.Unregister(epoch)
		}
	}()
	results := make([]rounddriver.Outcome, len(nodes))
	errs := make([]error, len(nodes))
	var wg sync.WaitGroup
	for i, m := range nodes {
		i, m := i, m
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = m.RunInstance(context.Background(), epoch, InstanceRun{
				Automaton: core.NewES(props[i]),
				Interval:  interval,
				Timeout:   30 * time.Second,
				Peers:     len(nodes),
			})
		}()
	}
	wg.Wait()
	for i := range nodes {
		if errs[i] != nil {
			t.Fatalf("epoch %d node %d: %v", epoch, i, errs[i])
		}
	}
	requireConsensus(t, results, props)
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
func setEnvelope(round int) giraf.Envelope {
	p := core.SetPayload{Proposed: values.NewSet(values.Num(int64(round)))}
	var h values.Hasher
	h.WriteFingerprint(p.PayloadFingerprint())
	return giraf.Envelope{
		Round:          round,
		Payloads:       []giraf.Payload{p},
		SetFingerprint: h.Sum(),
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
		hub.mu.Lock()
		logged := len(hub.log)
		hub.mu.Unlock()
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
	for round := 1; round <= 3; round++ {
		select {
		case env := <-inbox:
			if env.Round != round {
				t.Fatalf("late joiner got round %d, want %d", env.Round, round)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("late joiner missing epoch-2 round %d from replay", round)
		}
	}
	select {
	case env := <-inbox:
		t.Fatalf("late joiner received unexpected extra frame (round %d)", env.Round)
	case <-time.After(50 * time.Millisecond):
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

// The join-grace pins' shape: three ES processes at 50ms beats whose
// context ends 2.6 beats in, so two beats fit and the third does not.
const (
	graceProbeN        = 3
	graceProbeBeat     = 50 * time.Millisecond
	graceProbeDeadline = 13 * graceProbeBeat / 5
)

// runGraceProbe runs process i as run(ctx, i, its InstanceRun) for every
// i < graceProbeN, under one context that ends at graceProbeDeadline.
func runGraceProbe(t *testing.T, run func(ctx context.Context, i int, cfg InstanceRun) (rounddriver.Outcome, error)) []rounddriver.Outcome {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), graceProbeDeadline)
	defer cancel()
	props := core.DistinctProposals(graceProbeN)
	results := make([]rounddriver.Outcome, graceProbeN)
	errs := make([]error, graceProbeN)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = run(ctx, i, InstanceRun{
				Automaton: core.NewES(props[i]),
				Interval:  graceProbeBeat,
				Peers:     graceProbeN,
			})
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("process %d: %v", i, err)
		}
	}
	return results
}

// TestMuxRegisteredEpochHasNoJoinGrace pins that an epoch opened by
// Register — every participating node's epoch registered before any
// automaton starts, the way the TCP transports lease — runs round 0 on its
// first beat: 2.6 beats in, every process has executed at least one round.
func TestMuxRegisteredEpochHasNoJoinGrace(t *testing.T) {
	hub, err := NewHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	nodes := dialMuxCluster(t, hub, graceProbeN)
	for _, m := range nodes {
		if err := m.Register(testEpoch); err != nil {
			t.Fatal(err)
		}
	}
	results := runGraceProbe(t, func(ctx context.Context, i int, cfg InstanceRun) (rounddriver.Outcome, error) {
		return nodes[i].RunInstance(ctx, testEpoch, cfg)
	})
	for i, out := range results {
		if out.Rounds < 1 {
			t.Errorf("process %d executed %d rounds in 2.6 beats, want ≥ 1 (round 0 on the first beat)", i, out.Rounds)
		}
	}
}

// TestMuxDialEpochKeepsJoinGrace pins the other side: an epoch registered
// at DialMux (runSolo, the JoinTCP path) may be joining an instance already
// under way, so its first joinGraceBeats beats execute nothing — 2.6 beats
// in, no process has executed a round.
func TestMuxDialEpochKeepsJoinGrace(t *testing.T) {
	hub, err := NewHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	results := runGraceProbe(t, func(ctx context.Context, _ int, cfg InstanceRun) (rounddriver.Outcome, error) {
		out, _, err := runSolo(ctx, MuxConfig{HubAddr: hub.Addr()}, cfg)
		return out, err
	})
	for i, out := range results {
		if out.Rounds != 0 {
			t.Errorf("process %d executed %d rounds in 2.6 beats, want 0 (still in its %d-beat join grace)", i, out.Rounds, joinGraceBeats)
		}
	}
}
