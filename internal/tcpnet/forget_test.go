package tcpnet

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"anonconsensus/internal/core"
	"anonconsensus/internal/property"
	"anonconsensus/internal/rounddriver"
	"anonconsensus/internal/wire"
)

// hubFootprint is what a hub retains: the longest session queue and the
// size of the out-of-order retired set.
type hubFootprint struct{ queue, retired int }

// footprint samples the hub's retained state.
func (h *Hub) footprint() hubFootprint {
	h.mu.Lock()
	defer h.mu.Unlock()
	f := hubFootprint{retired: len(h.retiredAbove)}
	for _, s := range h.sessions {
		f.queue = max(f.queue, len(s.sent))
	}
	return f
}

// forgetRun drives instances epochs, inFlight at a time, through one hub
// and three MuxNodes at 1 ms beats, retiring each epoch when its run ends,
// beside a fourth MuxNode that never registers an epoch or sends: it only
// receives, and only its heartbeat acks can trim its queue. Every instance
// must satisfy the paper's properties. It returns the largest footprint
// sampled after each instance.
func forgetRun(t *testing.T, instances, inFlight int) hubFootprint {
	t.Helper()
	hub, err := NewHub("127.0.0.1:0", WithHeartbeat(2*time.Millisecond, 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	nodes := dialMuxCluster(t, hub, 4)
	quiet, nodes := nodes[3], nodes[:3]
	props := core.DistinctProposals(len(nodes))

	var (
		mu    sync.Mutex
		worst hubFootprint
		fail  error
	)
	sem := make(chan struct{}, inFlight)
	var wg sync.WaitGroup
	for e := uint64(1); e <= uint64(instances); e++ {
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer func() { <-sem; wg.Done() }()
			results, err := runEpoch(nodes, e, props, time.Millisecond)
			run := property.Run{Proposals: core.ProposalSet(props), Outcomes: rounddriver.Outcomes(results), Promised: true}
			if vs := property.Check(run); err == nil && len(vs) > 0 {
				err = fmt.Errorf("epoch %d: %v", e, vs)
			}
			hub.RetireEpoch(e)
			f := hub.footprint()
			mu.Lock()
			defer mu.Unlock()
			worst.queue, worst.retired = max(worst.queue, f.queue), max(worst.retired, f.retired)
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
		if len(s.emitted) != 0 {
			t.Errorf("session %d keeps %d mark records after every epoch retired", s.index, len(s.emitted))
		}
		if s.base == 0 {
			t.Errorf("session %d was never trimmed (queue %d)", s.index, len(s.sent))
		}
	}
	if s := quiet.Stats(); s.HeartbeatsAcked == 0 || s.UnknownEpochFrames == 0 {
		t.Errorf("the quiet node acked %d heartbeats and received %d frames; want both", s.HeartbeatsAcked, s.UnknownEpochFrames)
	}
	return worst
}

// TestHubForgetsDeliveredFrames is the bounded-memory pin: however many
// epochs a hub has carried, every session's queue holds only what its node
// may still ask for — trimmed behind the marks its adds prove consumed, or,
// for a node that never sends, behind its heartbeat acks' cursors — and
// the retired epochs collapse to a low-water mark. The same bound holds
// at 50 and at 400 epochs; an append-only queue passes 1,000 frames
// before 100.
func TestHubForgetsDeliveredFrames(t *testing.T) {
	const bound = 512
	for _, instances := range []int{50, 400} {
		f := forgetRun(t, instances, 8)
		t.Logf("%d epochs: longest queue %d frames, %d retired out of order", instances, f.queue, f.retired)
		if f.queue > bound || f.retired > 8 {
			t.Errorf("%d epochs: longest queue %d (bound %d), retired set %d (bound 8)", instances, f.queue, bound, f.retired)
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

// awaitDelivered waits until the session's write loop has delivered
// everything queued, marks included.
func awaitDelivered(t *testing.T, hub *Hub, token uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		hub.mu.Lock()
		s := hub.sessions[token]
		done := s.cur == s.end() && len(s.marks) == 0
		hub.mu.Unlock()
		if done {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("the write loop did not drain the queue")
		}
		time.Sleep(time.Millisecond)
	}
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

// newScripted opens a bare victim session and a peer session. The peer's
// data frames carry epoch 2, so their rounds never act as the victim's
// epoch-1 adds.
func newScripted(t *testing.T) (hub *Hub, victim *scriptedSession, token uint64, peer *scriptedSession) {
	t.Helper()
	hub, err := NewHub("127.0.0.1:0", WithHeartbeat(0, 0))
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
	victim.expect(-1) // the mark goes out at position 10
	victim.send(1, 2) // proves position 10 read
	victim.expect(-2)
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

// TestHubForgetsOnlyFirstMarkOfResentAdd: an add sent twice is marked
// twice, and the node may have consumed only the first mark before its
// next add. That add proves the first mark's position, not the second's.
func TestHubForgetsOnlyFirstMarkOfResentAdd(t *testing.T) {
	hub, victim, token, peer := newScripted(t)
	for r := 1; r <= 10; r++ {
		peer.send(2, r)
	}
	awaitQueue(t, hub, token, 0, 10)
	victim.send(1, 1)
	victim.expect(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, -1) // the first mark, at 10
	for r := 11; r <= 16; r++ {
		peer.send(2, r)
	}
	awaitQueue(t, hub, token, 0, 16)
	victim.send(1, 1) // the re-sent add
	awaitDelivered(t, hub, token)
	// The second mark went out at 16, but the node has read only up to the
	// first when its next add arrives: the queue keeps 10 onward.
	victim.send(1, 2)
	awaitQueue(t, hub, token, 10, 16)
	_ = victim.conn.Close()

	conn, welcome := helloClient(t, hub, wire.Hello{Token: token, Cursor: 10})
	if welcome.ResumeFrom != 10 || welcome.Pending != 6 {
		t.Fatalf("Welcome = %+v, want ResumeFrom 10 with 6 pending", welcome)
	}
	victim.conn = conn
	victim.expect(11, 12, 13, 14, 15, 16)
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
	victim.send(1, 2)
	victim.expect(-2)
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
