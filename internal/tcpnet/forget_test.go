package tcpnet

import (
	"context"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"anonconsensus/internal/core"
	"anonconsensus/internal/property"
	"anonconsensus/internal/rounddriver"
	"anonconsensus/internal/wire"
)

// hubFootprint is what a hub retains: the longest session queue, the
// frames held in all session queues and epoch logs together, and the size
// of the out-of-order retired set.
type hubFootprint struct{ queue, frames, retired int }

// footprint samples the hub's retained state.
func (h *Hub) footprint() hubFootprint {
	h.mu.Lock()
	defer h.mu.Unlock()
	f := hubFootprint{retired: len(h.retiredAbove)}
	for _, s := range h.sessions {
		f.queue = max(f.queue, len(s.sent))
		f.frames += len(s.sent)
	}
	for _, log := range h.logs {
		f.frames += len(log)
	}
	return f
}

// worst is the elementwise maximum of two footprints.
func (f hubFootprint) worst(g hubFootprint) hubFootprint {
	return hubFootprint{max(f.queue, g.queue), max(f.frames, g.frames), max(f.retired, g.retired)}
}

// logged counts the frames in the hub's live epoch logs.
func (h *Hub) logged() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := 0
	for _, log := range h.logs {
		n += len(log)
	}
	return n
}

// forgetRun drives instances epochs through one hub and three MuxNodes at
// 1 ms beats, retiring each epoch when its run ends, beside a fourth
// MuxNode that never registers an epoch or sends: it only receives, and
// only its heartbeat acks can trim its queue. Closed more MuxNodes attach
// and close for good before the first epoch; the hub must release their
// sessions. Epochs run in a
// sliding window: epoch e+inFlight starts only once epoch e is retired, so
// every epoch started lies below the oldest unretired one plus inFlight,
// and at most inFlight-1 are retired above it. Every instance must satisfy
// the paper's properties. It returns the largest footprint sampled after
// each instance.
func forgetRun(t *testing.T, instances, inFlight, closed int, opts ...HubOption) hubFootprint {
	t.Helper()
	hub, err := NewHub("127.0.0.1:0", append([]HubOption{WithHeartbeat(2*time.Millisecond, 1<<20)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	nodes := dialMuxCluster(t, hub, 4+closed)
	for _, m := range nodes[4:] {
		_ = m.Close()
	}
	quiet, nodes := nodes[3], nodes[:3]
	props := core.DistinctProposals(len(nodes))

	var (
		mu    sync.Mutex
		worst hubFootprint
		fail  error
	)
	retired := make([]chan struct{}, instances+1) // retired[e] closes once epoch e retires
	var wg sync.WaitGroup
	for e := 1; e <= instances; e++ {
		if e > inFlight {
			<-retired[e-inFlight]
		}
		retired[e] = make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			results, err := runEpoch(nodes, uint64(e), props, time.Millisecond)
			run := property.Run{Proposals: core.ProposalSet(props), Outcomes: rounddriver.Outcomes(results), Promised: true}
			if vs := property.Check(run); err == nil && len(vs) > 0 {
				err = fmt.Errorf("epoch %d: %v", e, vs)
			}
			hub.RetireEpoch(uint64(e))
			close(retired[e])
			f := hub.footprint()
			mu.Lock()
			defer mu.Unlock()
			worst = worst.worst(f)
			if err != nil && fail == nil {
				fail = err
			}
		}()
	}
	wg.Wait()
	if fail != nil {
		t.Fatal(fail)
	}

	hub.mu.Lock()
	defer hub.mu.Unlock()
	if hub.retiredBelow != uint64(instances)+1 || len(hub.retiredAbove) != 0 {
		t.Errorf("retired set after %d dense epochs: below %d, %d above; want %d and none",
			instances, hub.retiredBelow, len(hub.retiredAbove), instances+1)
	}
	for _, s := range hub.sessions {
		if s.base == 0 {
			t.Errorf("session %d was never trimmed (queue %d)", s.index, len(s.sent))
		}
	}
	if s := quiet.Stats(); s.HeartbeatsAcked == 0 || s.UnknownEpochFrames == 0 {
		t.Errorf("the quiet node acked %d heartbeats and received %d frames; want both", s.HeartbeatsAcked, s.UnknownEpochFrames)
	}
	if len(hub.sessions) != 4 {
		t.Errorf("the hub keeps %d sessions after %d epochs; want the 4 live nodes' (%d closed for good)", len(hub.sessions), instances, closed)
	}
	return worst
}

// TestHubForgetsDeliveredFrames is the bounded-memory pin: however many
// epochs a hub has carried, every session's queue holds only what its node
// may still ask for — trimmed behind the cursor the node reports beside
// each add or, for a node that never sends, in its heartbeat acks — and
// the retired epochs collapse to a low-water mark, with fewer than the
// window's 8 epochs retired above it at any time. The same bounds hold at
// 50 and at 400 epochs; an append-only queue passes 1,000 frames before
// 100.
func TestHubForgetsDeliveredFrames(t *testing.T) {
	const bound, inFlight = 512, 8
	for _, instances := range []int{50, 400} {
		f := forgetRun(t, instances, inFlight, 0)
		t.Logf("%d epochs: longest queue %d frames, %d retired out of order", instances, f.queue, f.retired)
		if f.queue > bound || f.retired >= inFlight {
			t.Errorf("%d epochs: longest queue %d (bound %d), retired set %d (bound %d)", instances, f.queue, bound, f.retired, inFlight-1)
		}
	}
}

// TestHubForgetsClosedNodes: two of six nodes close for good before the
// first epoch, and the other four carry on. A closed node's session is
// detached, and nothing reports its queue received, so the hub releases it
// once it stays past the high-water mark for a grace window. One bound on
// the frames the hub holds, summed over session queues and epoch logs,
// holds at 50 and at 400 epochs, and only the four live sessions remain. A
// hub that keeps every detached session held 1,280 frames at 50 epochs and
// 9,645 at 400, and all six sessions.
func TestHubForgetsClosedNodes(t *testing.T) {
	const (
		bound, inFlight, closed = 1024, 8, 2
		highWater, grace        = 128, 10 * time.Millisecond
	)
	for _, instances := range []int{50, 400} {
		f := forgetRun(t, instances, inFlight, closed, WithQueuePolicy(highWater, grace))
		t.Logf("%d epochs: %d frames held at most", instances, f.frames)
		if f.frames > bound {
			t.Errorf("%d epochs: the hub held %d frames (bound %d)", instances, f.frames, bound)
		}
	}
}

// scriptedSession is a bare session the test drives frame by frame.
type scriptedSession struct {
	t    *testing.T
	conn net.Conn
	// cursor counts the data frames read, as a MuxNode's does.
	cursor uint64
}

// send writes one data frame of (epoch, round).
func (c *scriptedSession) send(epoch uint64, round int) {
	c.t.Helper()
	if err := wire.WriteFrame(c.conn, epochFrame(c.t, epoch, round)); err != nil {
		c.t.Fatal(err)
	}
}

// report sends a cursor report, as a node does beside each add.
func (c *scriptedSession) report(cursor uint64) {
	c.t.Helper()
	if err := wire.WriteFrame(c.conn, wire.EncodeHeartbeatAck(wire.Heartbeat{Cursor: cursor})); err != nil {
		c.t.Fatal(err)
	}
}

// next returns the next data frame's round, or the next mark's round with
// isMark set; heartbeats are skipped.
func (c *scriptedSession) next() (round int, isMark bool) {
	c.t.Helper()
	_ = c.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for {
		frame, err := wire.ReadFrame(c.conn)
		if err != nil {
			c.t.Fatal(err)
		}
		if kind, ok := wire.ControlKind(frame); ok {
			if kind == wire.ControlMark {
				mk, err := wire.DecodeMark(frame)
				if err != nil {
					c.t.Fatal(err)
				}
				return mk.Round, true
			}
			continue
		}
		c.cursor++
		_, round, _ := wire.DataFrameHeader(frame)
		return round, false
	}
}

// expect reads the next frames and checks them: data rounds as given, and
// a mark where -round is given.
func (c *scriptedSession) expect(rounds ...int) {
	c.t.Helper()
	for _, want := range rounds {
		got, isMark := c.next()
		if isMark {
			got = -got
		}
		if got != want {
			c.t.Fatalf("got %d, want %d (negative: a mark)", got, want)
		}
	}
}

// queue reports the session's queue as base and end stream positions.
func (h *Hub) queue(token uint64) (base, end int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := h.sessions[token]
	return s.base, s.end()
}

// awaitQueue waits until the session's queue spans [base, end).
func awaitQueue(t *testing.T, hub *Hub, token uint64, base, end int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		b, e := hub.queue(token)
		if b == base && e == end {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue spans [%d, %d), want [%d, %d)", b, e, base, end)
		}
		time.Sleep(time.Millisecond)
	}
}

// newScripted opens a bare victim session and a peer session, sessions 0
// and 1, on a hub with no heartbeats and opts. The peer's data frames
// carry epoch 2, so their rounds never act as the victim's epoch-1 adds.
func newScripted(t *testing.T, opts ...HubOption) (hub *Hub, victim *scriptedSession, token uint64, peer *scriptedSession) {
	t.Helper()
	hub, err := NewHub("127.0.0.1:0", append([]HubOption{WithHeartbeat(0, 0)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = hub.Close() })
	vc, welcome := helloClient(t, hub, wire.Hello{})
	pc, _ := helloClient(t, hub, wire.Hello{})
	return hub, &scriptedSession{t: t, conn: vc}, welcome.Token, &scriptedSession{t: t, conn: pc}
}

// TestHubForgetsAcrossResume: a session severed after its queue was
// trimmed resumes with exactly the frames it missed — none lost, none
// repeated.
func TestHubForgetsAcrossResume(t *testing.T) {
	hub, victim, token, peer := newScripted(t)
	for r := 1; r <= 10; r++ {
		peer.send(2, r)
	}
	victim.expect(1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	victim.send(1, 1)
	victim.expect(-1)            // the mark goes out at position 10
	victim.report(victim.cursor) // position 10 read
	awaitQueue(t, hub, token, 10, 10)

	for r := 11; r <= 15; r++ {
		peer.send(2, r)
	}
	victim.expect(11, 12)
	_ = victim.conn.Close()
	for r := 16; r <= 18; r++ {
		peer.send(2, r)
	}
	awaitQueue(t, hub, token, 10, 18)

	conn, welcome := helloClient(t, hub, wire.Hello{Token: token, Cursor: victim.cursor})
	if welcome.ResumeFrom != 12 || welcome.Pending != 6 {
		t.Fatalf("Welcome = %+v, want ResumeFrom 12 with 6 pending", welcome)
	}
	victim.conn = conn
	victim.expect(13, 14, 15, 16, 17, 18)
	peer.send(2, 19)
	victim.expect(19) // nothing repeated before the next live frame
}

// TestHubForgetsClampsResumeBelowBase: a resume cursor below the trimmed
// queue's base — frames the node had proved it received — is clamped to
// the base, and the hub goes on relaying.
func TestHubForgetsClampsResumeBelowBase(t *testing.T) {
	hub, victim, token, peer := newScripted(t)
	for r := 1; r <= 10; r++ {
		peer.send(2, r)
	}
	awaitQueue(t, hub, token, 0, 10)
	victim.send(1, 1)
	victim.expect(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, -1)
	victim.report(victim.cursor)
	awaitQueue(t, hub, token, 10, 10)
	peer.send(2, 11)
	victim.expect(11)
	_ = victim.conn.Close()

	conn, welcome := helloClient(t, hub, wire.Hello{Token: token, Cursor: 3})
	if welcome.ResumeFrom != 10 || welcome.Pending != 1 {
		t.Fatalf("Welcome = %+v, want ResumeFrom clamped to the base 10 with 1 pending", welcome)
	}
	victim.conn = conn
	victim.expect(11)
	peer.send(2, 12)
	victim.expect(12)
}

// TestHubForgetsClampsHostileReport: a cursor report is the peer's claim,
// and the hub forgets no frame it has not delivered. The victim's write
// loop is held on its first frame while nine more queue behind it. Reports
// of a position inside that queue, one past its end, and two at 2^63 or
// more trim nothing and panic nothing, and the victim then reads every
// frame and its marks in order; once all ten are delivered, a report of
// 2^64−1 trims exactly those. A report is no heartbeat ack either: it
// leaves the hub's miss counts and the acked probe as they were.
func TestHubForgetsClampsHostileReport(t *testing.T) {
	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	defer release()
	var delays atomic.Int64
	hub, victim, token, peer := newScripted(t, WithForwardDelay(func(i int) time.Duration {
		if i == 0 && delays.Add(1) == 1 {
			<-gate
		}
		return 0
	}))
	peer.send(2, 1)
	for deadline := time.Now().Add(5 * time.Second); delays.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the victim's write loop never took its first frame")
		}
	}
	for r := 2; r <= 10; r++ {
		peer.send(2, r)
	}
	awaitQueue(t, hub, token, 0, 10)
	hub.mu.Lock()
	s := hub.sessions[token]
	s.hbSeq, s.hbAcked, s.misses = 3, 1, 2 // probes 2 and 3 outstanding
	hub.mu.Unlock()
	misses := hub.Stats().HeartbeatMisses

	// Each batch of reports is fenced by an add read behind it: once the
	// add is logged, the reports were handled.
	for round, reports := range [][]uint64{{8}, {11, 1 << 63, math.MaxUint64}} {
		for _, cursor := range reports {
			victim.report(cursor)
		}
		victim.send(1, round+1)
		for deadline := time.Now().Add(5 * time.Second); hub.logged() < 11+round; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("the hub never logged the victim's add")
			}
		}
		hub.mu.Lock()
		base, cur, acked, sessionMisses := s.base, s.cur, s.hbAcked, s.misses
		hub.mu.Unlock()
		if base != 0 || cur != 1 {
			t.Fatalf("after reports %v the queue starts at %d with the write loop at %d; want 0 and 1", reports, base, cur)
		}
		if acked != 1 || sessionMisses != 2 || hub.Stats().HeartbeatMisses != misses {
			t.Errorf("reports moved the heartbeat state: acked %d, misses %d, HeartbeatMisses %d→%d; want 1, 2, unchanged",
				acked, sessionMisses, misses, hub.Stats().HeartbeatMisses)
		}
	}

	release()
	victim.expect(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, -1, -2)
	victim.report(math.MaxUint64) // trims up to the 10 frames delivered
	awaitQueue(t, hub, token, 10, 10)
}

// TestMuxReportsCursorBesideEachAdd: a MuxNode reports its receive cursor
// beside every add, so the hub forgets what the node received with no
// heartbeat running, and neither side counts the report as an ack.
func TestMuxReportsCursorBesideEachAdd(t *testing.T) {
	hub, err := NewHub("127.0.0.1:0", WithHeartbeat(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	var nodes [2]*MuxNode // sessions 0 and 1
	for i := range nodes {
		if nodes[i], err = DialMux(context.Background(), MuxConfig{HubAddr: hub.Addr()}, testEpoch); err != nil {
			t.Fatal(err)
		}
		defer nodes[i].Close()
	}
	for round := 1; round <= 10; round++ {
		if err := nodes[1].send(nodes[1].epochs[testEpoch], setEnvelope(round)); err != nil {
			t.Fatal(err)
		}
	}
	awaitInbox(t, nodes[0].epochs[testEpoch].inbox, 10)
	if err := nodes[0].send(nodes[0].epochs[testEpoch], setEnvelope(1)); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if base, _ := sessionQueue(hub, 0); base == 10 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the node's add did not trim its queue behind the 10 frames it received")
		}
	}
	if acked, misses := nodes[0].Stats().HeartbeatsAcked, hub.Stats().HeartbeatMisses; acked != 0 || misses != 0 {
		t.Errorf("with no heartbeats the node acked %d and the hub counted %d misses; want 0 and 0", acked, misses)
	}
}
