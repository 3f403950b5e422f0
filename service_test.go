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

// gateTransport is a controllable fake — each Run blocks until the
// test releases it (or the ctx dies), so tests can hold a chosen number
// of instances in flight.
type gateTransport struct {
	release chan struct{} // one receive releases one Run
	running atomic.Int32
	peak    atomic.Int32
}

func newGateTransport() *gateTransport { return &gateTransport{release: make(chan struct{})} }

func (t *gateTransport) Name() string { return "gate" }

func (t *gateTransport) Close() error { return nil }

func (t *gateTransport) Run(ctx context.Context, spec InstanceSpec) (*Result, error) {
	cur := t.running.Add(1)
	defer t.running.Add(-1)
	for {
		p := t.peak.Load()
		if cur <= p || t.peak.CompareAndSwap(p, cur) {
			break
		}
	}
	select {
	case <-t.release:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return &Result{Decisions: []Decision{{Proc: 0, Decided: true, Value: spec.Proposals[0]}}}, nil
}

// TestNodePoolRunsConcurrently pins the tentpole at the Node layer: with
// WithMaxInFlight(k), k instances are genuinely in flight at once (the
// single-worker node could never exceed 1).
func TestNodePoolRunsConcurrently(t *testing.T) {
	const k = 4
	tr := newGateTransport()
	node, err := NewNode(tr, WithMaxInFlight(k))
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	for i := 0; i < k; i++ {
		if err := node.Propose(context.Background(), fmt.Sprintf("i%d", i), props(1)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for tr.running.Load() < k {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d instances in flight", tr.running.Load(), k)
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < k; i++ {
		tr.release <- struct{}{}
	}
	for i := 0; i < k; i++ {
		if _, err := node.Wait(context.Background(), fmt.Sprintf("i%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	s := node.Stats()
	if s.PeakInFlight != k || s.MaxInFlight != k {
		t.Fatalf("PeakInFlight=%d MaxInFlight=%d, want %d and %d", s.PeakInFlight, s.MaxInFlight, k, k)
	}
	if s.Admitted != k || s.Completed != k || s.InFlight != 0 {
		t.Fatalf("Admitted=%d Completed=%d InFlight=%d, want %d, %d, 0", s.Admitted, s.Completed, s.InFlight, k, k)
	}
	if s.QueueWait <= 0 {
		t.Fatal("QueueWait not recorded")
	}
}

// TestNodeStressConcurrentUse is the -race stress satellite: many
// goroutines hammer Propose/Wait/Forget across several WithMaxInFlight
// settings; every proposed instance must produce exactly one outcome
// (no lost, no duplicated EventInstanceDone) and shutdown mid-flight
// must be clean.
func TestNodeStressConcurrentUse(t *testing.T) {
	for _, k := range []int{1, 2, 8} {
		k := k
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			node, err := NewNode(NewSimTransport(),
				WithEnv(EnvES), WithGST(2), WithSeed(7), WithMaxInFlight(k))
			if err != nil {
				t.Fatal(err)
			}

			const producers, perProducer = 8, 25
			done := make(map[string]int)
			var doneMu sync.Mutex
			feedDrained := make(chan struct{})
			go func() {
				defer close(feedDrained)
				for ev := range node.Decisions() {
					if ev.Kind == EventInstanceDone {
						doneMu.Lock()
						done[ev.Instance]++
						doneMu.Unlock()
					}
				}
			}()

			var wg sync.WaitGroup
			var succeeded atomic.Int64
			for p := 0; p < producers; p++ {
				p := p
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perProducer; i++ {
						id := fmt.Sprintf("p%d-i%d", p, i)
						if err := node.Propose(context.Background(), id, props(1, 2, 3), WithSeed(int64(p*1000+i))); err != nil {
							t.Errorf("%s: %v", id, err)
							return
						}
						succeeded.Add(1)
						// Alternate consumption styles: Wait (consumes) and
						// feed-driven Forget.
						if i%2 == 0 {
							if _, err := node.Wait(context.Background(), id); err != nil {
								t.Errorf("%s: %v", id, err)
							}
						} else {
							for !node.Forget(id) {
								time.Sleep(100 * time.Microsecond)
							}
						}
					}
				}()
			}
			wg.Wait()
			if err := node.Close(); err != nil {
				t.Fatal(err)
			}
			<-feedDrained

			s := node.Stats()
			if s.Completed != succeeded.Load() {
				t.Fatalf("Completed=%d, want %d", s.Completed, succeeded.Load())
			}
			doneMu.Lock()
			defer doneMu.Unlock()
			for id, count := range done {
				if count != 1 {
					t.Fatalf("instance %s emitted %d EventInstanceDone events", id, count)
				}
			}
		})
	}
}

// TestNodeCloseMidFlight pins clean shutdown with a full pipeline: some
// instances running, some queued. Every one must still resolve (result
// or ErrNodeClosed) — none may hang or leak.
func TestNodeCloseMidFlight(t *testing.T) {
	tr := newGateTransport()
	node, err := NewNode(tr, WithMaxInFlight(2), WithQueueDepth(4))
	if err != nil {
		t.Fatal(err)
	}
	const total = 6 // 2 running + 4 queued
	for i := 0; i < total; i++ {
		if err := node.Propose(context.Background(), fmt.Sprintf("i%d", i), props(1)); err != nil {
			t.Fatal(err)
		}
	}
	closed := make(chan error, 1)
	go func() { closed <- node.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung with instances in flight")
	}
	for i := 0; i < total; i++ {
		_, err := node.Wait(context.Background(), fmt.Sprintf("i%d", i))
		if err == nil || errors.Is(err, context.Canceled) {
			continue // the running pair was cancelled via the node's stop
		}
		if !errors.Is(err, ErrNodeClosed) {
			t.Fatalf("i%d: unexpected outcome: %v", i, err)
		}
	}
}

// TestAdmissionFastReject pins the token bucket's fast-reject contract:
// burst proposals are admitted, the next is shed with ErrOverloaded,
// nothing about the shed proposal survives (its ID is immediately
// reusable), and the counters record the split.
func TestAdmissionFastReject(t *testing.T) {
	tr := newGateTransport()
	// 1 token/hour after a burst of 3: the bucket will not refill within
	// the test.
	node, err := NewNode(tr, WithMaxInFlight(3), WithAdmission(1.0/3600, 3))
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	for i := 0; i < 3; i++ {
		if err := node.Propose(context.Background(), fmt.Sprintf("i%d", i), props(1)); err != nil {
			t.Fatalf("proposal %d inside burst rejected: %v", i, err)
		}
	}
	err = node.Propose(context.Background(), "shed", props(1))
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("want ErrOverloaded, got %v", err)
	}
	// The shed ID left no trace: re-proposing it fails on admission, not
	// on duplication.
	if err := node.Propose(context.Background(), "shed", props(1)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("shed ID not released: %v", err)
	}
	s := node.Stats()
	if s.Admitted != 3 || s.Rejected != 2 {
		t.Fatalf("Admitted=%d Rejected=%d, want 3 and 2", s.Admitted, s.Rejected)
	}
	for i := 0; i < 3; i++ {
		tr.release <- struct{}{}
	}
}

// TestAdmissionQueueFullRejects pins the WithQueueDepth satellite: under
// fast-reject admission a full instance queue returns ErrOverloaded
// instead of silently blocking Propose.
func TestAdmissionQueueFullRejects(t *testing.T) {
	tr := newGateTransport()
	node, err := NewNode(tr, WithQueueDepth(1), WithAdmission(1000, 1000))
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	// First proposal occupies the single worker, second fills the
	// 1-deep queue; the third must be shed, not block.
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
	start := time.Now()
	err = node.Propose(context.Background(), "shed", props(1))
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("full queue: want ErrOverloaded, got %v", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("fast-reject blocked")
	}
	if got := node.Stats().QueueDepth; got != 1 {
		t.Fatalf("Stats().QueueDepth = %d, want 1", got)
	}
	tr.release <- struct{}{}
	tr.release <- struct{}{}
}

// TestAdmissionWaitBlocks pins the blocking mode: an empty bucket makes
// Propose wait for refill rather than reject, and the wait honours ctx.
func TestAdmissionWaitBlocks(t *testing.T) {
	tr := newGateTransport()
	// 50 tokens/sec, burst 1: after the burst, a token arrives in ~20ms.
	node, err := NewNode(tr, WithMaxInFlight(2), WithAdmission(50, 1), WithAdmissionWait())
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	if err := node.Propose(context.Background(), "a", props(1)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := node.Propose(context.Background(), "b", props(1)); err != nil {
		t.Fatalf("blocking admission rejected: %v", err)
	}
	if time.Since(start) < 5*time.Millisecond {
		t.Fatal("second proposal did not wait for a token")
	}
	// A cancelled ctx aborts the wait.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	err = node.Propose(ctx, "c", props(1))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want ctx deadline error from admission wait, got %v", err)
	}
	tr.release <- struct{}{}
	tr.release <- struct{}{}
}

// TestServiceOptionValidation pins the new options' eager validation.
func TestServiceOptionValidation(t *testing.T) {
	for name, opt := range map[string]Option{
		"zero max in-flight": WithMaxInFlight(0),
		"zero queue depth":   WithQueueDepth(0),
		"zero rate":          WithAdmission(0, 1),
		"zero burst":         WithAdmission(1, 0),
	} {
		if _, err := NewNode(NewSimTransport(), opt); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestEventDropCounting pins the lossy-feed satellite: with no consumer
// on Decisions(), events beyond the bounded backlog are dropped AND
// counted, where before they vanished silently.
func TestEventDropCounting(t *testing.T) {
	node, err := NewNode(NewSimTransport(), WithEnv(EnvES), WithGST(0))
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	// Each instance emits ≥ 3 events (started, ≥1 decision, done) but the
	// pump drains 128 into the channel buffer; overflow the 1024-slot
	// backlog with margin.
	const instances = 600
	for i := 0; i < instances; i++ {
		id := fmt.Sprintf("i%d", i)
		if err := node.Propose(context.Background(), id, props(1, 2)); err != nil {
			t.Fatal(err)
		}
		if _, err := node.Wait(context.Background(), id); err != nil {
			t.Fatal(err)
		}
	}
	if got := node.Stats().EventsDropped; got == 0 {
		t.Fatal("overflowing the unconsumed feed counted no drops")
	}
}

// TestSimPoolDeterminism pins that the sim transport's engine pool never
// leaks state into results: a pooled transport run hot (engines recycled across
// many concurrent instances) produces byte-identical decisions to a fresh
// NewSimTransport() per spec, whose pool is empty.
func TestSimPoolDeterminism(t *testing.T) {
	specs := make([]InstanceSpec, 40)
	for i := range specs {
		specs[i] = InstanceSpec{
			ID:        fmt.Sprintf("s%d", i),
			Proposals: props(int64(i), int64(i+1), int64(i+2)),
			Env:       EnvES,
			GST:       i % 7,
			Seed:      int64(i * 13),
		}
	}
	want := make([]*Result, len(specs))
	for i, spec := range specs {
		fresh := NewSimTransport()
		res, err := fresh.Run(context.Background(), spec)
		fresh.Close()
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	pooled := NewSimTransport()
	defer pooled.Close()
	// Two hot passes: the second is guaranteed to hit recycled engines.
	for pass := 0; pass < 2; pass++ {
		var wg sync.WaitGroup
		got := make([]*Result, len(specs))
		errs := make([]error, len(specs))
		for i, spec := range specs {
			i, spec := i, spec
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i], errs[i] = pooled.Run(context.Background(), spec)
			}()
		}
		wg.Wait()
		for i := range specs {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			if fmt.Sprintf("%+v", got[i].Decisions) != fmt.Sprintf("%+v", want[i].Decisions) ||
				got[i].Rounds != want[i].Rounds {
				t.Fatalf("pass %d spec %d: pooled engines diverged from fresh baseline\npooled: %+v\nfresh:  %+v",
					pass, i, got[i], want[i])
			}
		}
	}
}

// TestTCPMuxNodeService is the acceptance pin for the multiplexed TCP
// plane under -race: a Node with a worker pool drives many concurrent
// instances through NewTCPMuxTransport — many epochs, ONE hub, one
// persistent connection per process slot — and overload is shed with
// ErrOverloaded rather than queued without bound.
func TestTCPMuxNodeService(t *testing.T) {
	node, err := NewNode(NewTCPMuxTransport(),
		WithEnv(EnvES), WithInterval(2*time.Millisecond), WithTimeout(20*time.Second),
		WithMaxInFlight(8), WithQueueDepth(16), WithAdmission(1.0/3600, 16))
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	const instances = 16 // == burst: all admitted, the 17th is shed
	var wg sync.WaitGroup
	for i := 0; i < instances; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := fmt.Sprintf("mux-%d", i)
			if err := node.Propose(context.Background(), id, props(int64(i), int64(i+100), int64(i+200))); err != nil {
				t.Errorf("%s: %v", id, err)
				return
			}
			res, err := node.Wait(context.Background(), id)
			if err != nil {
				t.Errorf("%s: %v", id, err)
				return
			}
			if _, ok := res.Agreed(); !ok {
				t.Errorf("%s: agreement violated: %+v", id, res.Decisions)
			}
		}()
	}
	wg.Wait()
	// The bucket is drained and refills at 1/hour: the next proposal is
	// overload and must be shed.
	if err := node.Propose(context.Background(), "overflow", props(1, 2, 3)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("drained bucket: want ErrOverloaded, got %v", err)
	}
	s := node.Stats()
	if s.Admitted != instances || s.Rejected != 1 {
		t.Fatalf("Admitted=%d Rejected=%d, want %d and 1", s.Admitted, s.Rejected, instances)
	}
	if s.PeakInFlight < 2 {
		t.Fatalf("PeakInFlight=%d: instances never overlapped", s.PeakInFlight)
	}
}

// TestTCPMuxLinkFaultsStayInTheirEpoch is the isolation pin for
// epoch-scoped link faults: on ONE shared plane, an instance under a
// never-healing partition and a fault-free instance run concurrently over
// the same connections. The partition bites exactly its own epoch — each
// block agrees on a proposal of its own and the blocks split, which only
// a cut of that epoch's forwards can produce — while the co-tenant agrees
// as one ensemble in its usual rounds.
func TestTCPMuxLinkFaultsStayInTheirEpoch(t *testing.T) {
	tr := NewTCPMuxTransport()
	defer tr.Close()
	clean := InstanceSpec{
		ID: "clean", Proposals: props(1, 2, 3, 4), Env: EnvES,
		Interval: 4 * time.Millisecond, Timeout: 20 * time.Second,
	}
	solo, err := tr.Run(context.Background(), clean)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := solo.Agreed(); !ok {
		t.Fatalf("solo baseline did not agree: %+v", solo.Decisions)
	}
	usual := 0
	for _, d := range solo.Decisions {
		usual = max(usual, d.Round)
	}

	faulted := clean
	faulted.ID = "faulted"
	faulted.Proposals = props(5, 5, 9, 9)
	faulted.Scenario = Scenario{Partitions: []Partition{{From: 1, Cut: 2}}}
	results := make([]*Result, 2)
	var wg sync.WaitGroup
	for i, spec := range []InstanceSpec{faulted, clean} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := tr.Run(context.Background(), spec)
			if err != nil {
				t.Errorf("%s: %v", spec.ID, err)
				return
			}
			results[i] = res
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	for i, d := range results[0].Decisions {
		if want := faulted.Proposals[i]; !d.Decided || d.Value != want {
			t.Errorf("faulted process %d: decided=%v value=%q, want its block's own proposal %q (the cut at 2 must hold for this epoch)",
				i, d.Decided, string(d.Value), string(want))
		}
	}
	if v, ok := results[1].Agreed(); !ok || v != NumValue(4) {
		t.Fatalf("fault-free co-tenant disturbed: agreed=%v value=%q: %+v", ok, string(v), results[1].Decisions)
	}
	for i, d := range results[1].Decisions {
		if d.Round > usual+2 {
			t.Errorf("fault-free process %d decided in round %d; alone on the plane it took %d", i, d.Round, usual)
		}
	}
}

// TestServiceThroughputScales is the mux-smoke scaling assertion: on the
// timer-bound live backend, a k-wide pool must clearly outrun the
// sequential node on the same workload (overlapping round-timer waits —
// which is why this holds on any core count).
func TestServiceThroughputScales(t *testing.T) {
	if testing.Short() {
		t.Skip("sustained-load test; run via make mux-smoke")
	}
	const instances = 60
	run := func(k int) time.Duration {
		node, err := NewNode(NewLiveTransport(),
			WithEnv(EnvES), WithGST(0), WithInterval(2*time.Millisecond),
			WithTimeout(30*time.Second), WithMaxInFlight(k), WithQueueDepth(instances))
		if err != nil {
			t.Fatal(err)
		}
		defer node.Close()
		start := time.Now()
		var wg sync.WaitGroup
		for i := 0; i < instances; i++ {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				id := fmt.Sprintf("t%d", i)
				if err := node.Propose(context.Background(), id, props(1, 2, 3)); err != nil {
					t.Errorf("%s: %v", id, err)
					return
				}
				if _, err := node.Wait(context.Background(), id); err != nil {
					t.Errorf("%s: %v", id, err)
				}
			}()
		}
		wg.Wait()
		return time.Since(start)
	}
	seq := run(1)
	pooled := run(8)
	t.Logf("sequential: %v, k=8: %v (%.1fx)", seq, pooled, float64(seq)/float64(pooled))
	if pooled*2 > seq {
		t.Fatalf("throughput did not scale with the pool: sequential %v vs k=8 %v (want ≥ 2x)", seq, pooled)
	}
}
