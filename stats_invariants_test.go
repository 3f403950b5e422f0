package anonconsensus

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countInstanceEvents returns the number of events one completed
// instance emits: Started, one Decision per decided process, Done.
func countInstanceEvents(res *Result) int64 {
	n := int64(2)
	for _, d := range res.Decisions {
		if d.Decided {
			n++
		}
	}
	return n
}

// TestEventAccountingThroughClose pins the full event conservation law:
// after Close and a complete drain of Decisions(), every event ever
// emitted was either delivered or counted in EventsDropped: emit's
// drop-oldest path and a send after the feed ended both count what they
// discard.
func TestEventAccountingThroughClose(t *testing.T) {
	node, err := NewNode(NewSimTransport(), WithEnv(EnvES), WithGST(0))
	if err != nil {
		t.Fatal(err)
	}
	// No consumer while the instances run: the maxBufferedEvents-slot feed
	// channel fills and emit drops the oldest events.
	var emitted int64
	const instances = 500
	for i := 0; i < instances; i++ {
		id := fmt.Sprintf("i%d", i)
		if err := node.Propose(context.Background(), id, props(1, 2)); err != nil {
			t.Fatal(err)
		}
		res, err := node.Wait(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		emitted += countInstanceEvents(res)
	}
	if err := node.Close(); err != nil {
		t.Fatal(err)
	}
	var delivered int64
	for range node.Decisions() {
		delivered++
	}
	dropped := node.Stats().EventsDropped
	if delivered+dropped != emitted {
		t.Fatalf("event conservation violated: emitted %d, delivered %d + dropped %d = %d",
			emitted, delivered, dropped, delivered+dropped)
	}
	if dropped == 0 {
		t.Fatal("test exercised no lossy path (backlog never overflowed)")
	}
}

// TestNeverStartedInstanceEmitsDoneOnly pins the Started/Done pairing
// contract: an instance Close drains off the queue before any worker
// picked it up emits exactly one event — EventInstanceDone carrying
// ErrNodeClosed — and no EventInstanceStarted.
func TestNeverStartedInstanceEmitsDoneOnly(t *testing.T) {
	tr := newGateTransport()
	node, err := NewNode(tr) // one worker
	if err != nil {
		t.Fatal(err)
	}
	events := make(map[string][]Event)
	var evWG sync.WaitGroup
	evWG.Add(1)
	go func() {
		defer evWG.Done()
		for ev := range node.Decisions() {
			events[ev.Instance] = append(events[ev.Instance], ev)
		}
	}()
	if err := node.Propose(context.Background(), "running", props(1)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for tr.running.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never picked up the first instance")
		}
		time.Sleep(time.Millisecond)
	}
	// This one sits on the queue until Close fails it.
	if err := node.Propose(context.Background(), "drained", props(1)); err != nil {
		t.Fatal(err)
	}
	if err := node.Close(); err != nil {
		t.Fatal(err)
	}
	evWG.Wait()
	got := events["drained"]
	if len(got) != 1 || got[0].Kind != EventInstanceDone {
		t.Fatalf("never-started instance emitted %v, want exactly one Done", got)
	}
	if !errors.Is(got[0].Err, ErrNodeClosed) {
		t.Fatalf("drained instance's Done carries %v, want ErrNodeClosed", got[0].Err)
	}
	for _, ev := range got {
		if ev.Kind == EventInstanceStarted {
			t.Fatal("never-started instance emitted EventInstanceStarted")
		}
	}
}

// TestEnqueueAbortCountedRejected pins the admission accounting fix:
// under WithAdmissionWait, a proposal that spends its token but aborts
// while blocked on a full queue must land in Rejected — before the fix
// it was counted neither Admitted nor Rejected.
func TestEnqueueAbortCountedRejected(t *testing.T) {
	tr := newGateTransport()
	node, err := NewNode(tr, WithQueueDepth(1), WithAdmission(1000, 1000), WithAdmissionWait())
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	if err := node.Propose(context.Background(), "running", props(1)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for tr.running.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never picked up the first instance")
		}
		time.Sleep(time.Millisecond)
	}
	if err := node.Propose(context.Background(), "queued", props(1)); err != nil {
		t.Fatal(err)
	}
	// The queue is full and blocking admission never fast-rejects: this
	// Propose parks on the enqueue until its ctx dies.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	err = node.Propose(ctx, "aborted", props(1))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want ctx deadline error from enqueue abort, got %v", err)
	}
	s := node.Stats()
	if s.Admitted != 2 || s.Rejected != 1 {
		t.Fatalf("Admitted=%d Rejected=%d, want 2 and 1 (abort must count as rejected)", s.Admitted, s.Rejected)
	}
	// The aborted ID left the session: it is immediately reusable.
	if _, err := node.Wait(context.Background(), "aborted"); err == nil {
		t.Fatal("aborted instance still registered")
	}
	tr.release <- struct{}{}
	tr.release <- struct{}{}
}

// TestStatsInvariantsStress hammers one fast-reject node from many
// goroutines and checks the accounting invariants at quiescence:
//
//   - every Propose lands in exactly one of Admitted or Rejected (the
//     specs are valid and the node stays open, so there are no
//     pre-admission errors);
//   - Completed ≤ Admitted throughout, equal once all work drained;
//   - event conservation: emitted == delivered + EventsDropped.
//
// Run under -race this also shakes out data races between Propose,
// Wait, Stats, the workers and the event feed.
func TestStatsInvariantsStress(t *testing.T) {
	node, err := NewNode(NewSimTransport(), WithEnv(EnvES), WithGST(0),
		WithMaxInFlight(4), WithQueueDepth(4), WithAdmission(1e6, 1e6))
	if err != nil {
		t.Fatal(err)
	}
	var delivered int64
	var evWG sync.WaitGroup
	evWG.Add(1)
	go func() {
		defer evWG.Done()
		for range node.Decisions() {
			delivered++
		}
	}()

	const goroutines = 8
	const perG = 60
	var accepted, overloaded int64
	ids := make(chan string, goroutines*perG)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				id := fmt.Sprintf("g%d-i%d", g, i)
				err := node.Propose(context.Background(), id, props(int64(g), int64(i)))
				switch {
				case err == nil:
					atomic.AddInt64(&accepted, 1)
					ids <- id
				case errors.Is(err, ErrOverloaded):
					atomic.AddInt64(&overloaded, 1)
				default:
					t.Errorf("unexpected Propose error: %v", err)
				}
				// Completed ≤ Admitted is a quiescence invariant (admitted
				// is counted just after the enqueue, so a racing worker can
				// finish an instance a beat before its proposer's counter
				// increment); occupancy bounds hold at every instant.
				if s := node.Stats(); s.InFlight > s.MaxInFlight || s.Queued > s.QueueDepth {
					t.Errorf("occupancy out of bounds: %+v", s)
				}
			}
		}(g)
	}
	wg.Wait()
	close(ids)
	var emitted int64
	for id := range ids {
		res, err := node.Wait(context.Background(), id)
		if err != nil {
			t.Fatalf("accepted instance %q failed: %v", id, err)
		}
		emitted += countInstanceEvents(res)
	}
	s := node.Stats()
	if s.Admitted != accepted || s.Rejected != overloaded {
		t.Errorf("Admitted=%d Rejected=%d, want %d and %d", s.Admitted, s.Rejected, accepted, overloaded)
	}
	if s.Admitted+s.Rejected != goroutines*perG {
		t.Errorf("accounting leak: Admitted+Rejected = %d, want %d", s.Admitted+s.Rejected, goroutines*perG)
	}
	if s.Completed != s.Admitted {
		t.Errorf("at quiescence Completed = %d, want Admitted = %d", s.Completed, s.Admitted)
	}
	if s.InFlight != 0 || s.Queued != 0 {
		t.Errorf("quiescent node reports InFlight=%d Queued=%d", s.InFlight, s.Queued)
	}
	if err := node.Close(); err != nil {
		t.Fatal(err)
	}
	evWG.Wait()
	dropped := node.Stats().EventsDropped
	if delivered+dropped != emitted {
		t.Errorf("event conservation violated: emitted %d, delivered %d + dropped %d",
			emitted, delivered, dropped)
	}
}
