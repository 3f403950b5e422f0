package anonconsensus

import (
	"context"
	"errors"
	"testing"
	"time"
)

func props(vals ...int64) []Value {
	out := make([]Value, len(vals))
	for i, v := range vals {
		out[i] = NumValue(v)
	}
	return out
}

// TestNodeSequentialInstances is the acceptance demo: one Node, one
// transport, several consensus instances back to back, per-instance
// decisions streamed on Decisions().
func TestNodeSequentialInstances(t *testing.T) {
	node, err := NewNode(NewSimTransport(), WithEnv(EnvES), WithGST(6), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	ids := []string{"epoch-1", "epoch-2", "epoch-3", "epoch-4"}
	for k, id := range ids {
		if err := node.Propose(context.Background(), id, props(int64(10*k+1), int64(10*k+2), int64(10*k+3))); err != nil {
			t.Fatalf("propose %s: %v", id, err)
		}
	}
	for _, id := range ids {
		res, err := node.Wait(context.Background(), id)
		if err != nil {
			t.Fatalf("wait %s: %v", id, err)
		}
		if _, ok := res.Agreed(); !ok {
			t.Fatalf("instance %s did not agree: %+v", id, res.Decisions)
		}
	}

	// The feed must carry every instance's lifecycle, in execution order.
	started := map[string]bool{}
	decisions := map[string]int{}
	done := map[string]bool{}
	timeout := time.After(10 * time.Second)
	for len(done) < len(ids) {
		select {
		case ev, ok := <-node.Decisions():
			if !ok {
				t.Fatalf("feed closed early: done=%v", done)
			}
			switch ev.Kind {
			case EventInstanceStarted:
				started[ev.Instance] = true
			case EventDecision:
				if !started[ev.Instance] {
					t.Fatalf("decision before start for %s", ev.Instance)
				}
				if !ev.Decision.Decided {
					t.Fatalf("undecided decision event: %+v", ev)
				}
				decisions[ev.Instance]++
			case EventInstanceDone:
				if ev.Err != nil {
					t.Fatalf("instance %s failed: %v", ev.Instance, ev.Err)
				}
				if ev.Result == nil {
					t.Fatalf("done event without result for %s", ev.Instance)
				}
				done[ev.Instance] = true
			}
		case <-timeout:
			t.Fatalf("feed incomplete: started=%v done=%v", started, done)
		}
	}
	for _, id := range ids {
		if decisions[id] == 0 {
			t.Errorf("no decision events for %s", id)
		}
	}
}

func TestNodePerInstanceOptionOverrides(t *testing.T) {
	node, err := NewNode(NewSimTransport(), WithEnv(EnvES), WithGST(4), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	// The second instance overrides the session environment; both must
	// still reach agreement, and the override must not leak back.
	if _, err := node.Run(context.Background(), "es", props(1, 2, 3)); err != nil {
		t.Fatal(err)
	}
	res, err := node.Run(context.Background(), "ess", props(4, 5, 6),
		WithEnv(EnvESS), WithStableSource(1), WithGST(8), WithMaxRounds(600))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Agreed(); !ok {
		t.Fatalf("ESS override did not agree: %+v", res.Decisions)
	}
	if _, err := node.Run(context.Background(), "es-again", props(7, 8, 9)); err != nil {
		t.Fatal(err)
	}
}

func TestNodeCancellationMidRunLive(t *testing.T) {
	// A live instance that cannot decide before the cancel fires: with a
	// half-second round timer, deciding takes multiple seconds no matter
	// what the adversary does. Cancelling the Propose context must abort
	// it promptly with a wrapped context error.
	node, err := NewNode(NewLiveTransport(),
		WithEnv(EnvES), WithGST(0), WithSeed(3),
		WithInterval(500*time.Millisecond), WithTimeout(5*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	ctx, cancel := context.WithCancel(context.Background())
	if err := node.Propose(ctx, "doomed", props(1, 2, 3)); err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = node.Wait(context.Background(), "doomed")
	if err == nil {
		t.Fatal("cancelled instance reported success")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error does not wrap ctx.Err(): %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation not prompt: took %v", elapsed)
	}
}

func TestNodeCancellationMidRunSim(t *testing.T) {
	// Same for the simulator: a pre-cancelled context must abort before the
	// run completes, with a wrapped context error.
	node, err := NewNode(NewSimTransport(), WithEnv(EnvES), WithGST(5))
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := node.Propose(ctx, "dead-on-arrival", props(1, 2)); err == nil {
		// The enqueue may or may not observe the cancellation first; either
		// way Wait must surface the context error.
		if _, werr := node.Wait(context.Background(), "dead-on-arrival"); !errors.Is(werr, context.Canceled) {
			t.Fatalf("want wrapped context.Canceled, got %v", werr)
		}
	} else if !errors.Is(err, context.Canceled) {
		t.Fatalf("want wrapped context.Canceled, got %v", err)
	}
}

func TestNodeDuplicateAndUnknownIDs(t *testing.T) {
	node, err := NewNode(NewSimTransport(), WithGST(3))
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	if err := node.Propose(context.Background(), "a", props(1, 2)); err != nil {
		t.Fatal(err)
	}
	if err := node.Propose(context.Background(), "a", props(3, 4)); err == nil {
		t.Error("duplicate live instance ID accepted")
	}
	if err := node.Propose(context.Background(), "", props(1)); err == nil {
		t.Error("empty instance ID accepted")
	}
	if _, err := node.Wait(context.Background(), "nope"); err == nil {
		t.Error("unknown instance ID accepted by Wait")
	}
	// Wait consumes the outcome: the ID frees up for reuse, and a second
	// Wait reports it unknown.
	if _, err := node.Wait(context.Background(), "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := node.Wait(context.Background(), "a"); err == nil {
		t.Error("consumed instance still waitable")
	}
	if _, err := node.Run(context.Background(), "a", props(5, 6)); err != nil {
		t.Errorf("consumed ID not reusable: %v", err)
	}
}

func TestNodeForgetReleasesFeedDrivenInstances(t *testing.T) {
	node, err := NewNode(NewSimTransport(), WithGST(3))
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	if node.Forget("missing") {
		t.Error("Forget invented an instance")
	}
	if err := node.Propose(context.Background(), "fed", props(1, 2)); err != nil {
		t.Fatal(err)
	}
	// Drive the session through the feed only, then release.
	for ev := range node.Decisions() {
		if ev.Kind == EventInstanceDone && ev.Instance == "fed" {
			break
		}
	}
	if !node.Forget("fed") {
		t.Error("finished instance not forgettable")
	}
	if _, err := node.Wait(context.Background(), "fed"); err == nil {
		t.Error("forgotten instance still waitable")
	}
}

func TestNodeCloseRejectsFurtherWork(t *testing.T) {
	node, err := NewNode(NewSimTransport(), WithGST(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := node.Run(context.Background(), "a", props(1, 2)); err != nil {
		t.Fatal(err)
	}
	if err := node.Close(); err != nil {
		t.Fatal(err)
	}
	if err := node.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
	if err := node.Propose(context.Background(), "b", props(1, 2)); !errors.Is(err, ErrNodeClosed) {
		t.Errorf("propose after close: %v", err)
	}
	// The feed must be closed.
	for range node.Decisions() {
	}
	// The transport is owned by the node and must be closed too.
	if _, err := node.Transport().Run(context.Background(), InstanceSpec{
		Proposals: props(1), Env: EnvES,
	}); err == nil {
		t.Error("transport still usable after node close")
	}
}

func TestNodeOverTCPTransport(t *testing.T) {
	if testing.Short() {
		t.Skip("real TCP round trips in -short mode")
	}
	node, err := NewNode(NewTCPTransport(),
		WithEnv(EnvES), WithGST(2), WithSeed(5),
		WithInterval(8*time.Millisecond), WithTimeout(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	// Two instances over one transport: each gets a fresh hub, so no
	// frames leak across instance boundaries.
	for k, id := range []string{"tcp-1", "tcp-2"} {
		res, err := node.Run(context.Background(), id, props(int64(k+1), int64(k+2), int64(k+3)))
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if _, ok := res.Agreed(); !ok {
			t.Fatalf("%s did not agree: %+v", id, res.Decisions)
		}
	}
}

// TestTransportParity drives the identical spec through every backend
// via the one Transport interface — the unification the redesign is for.
func TestTransportParity(t *testing.T) {
	if testing.Short() {
		t.Skip("live + TCP round trips in -short mode")
	}
	spec := InstanceSpec{
		ID:        "parity",
		Proposals: props(11, 22, 33),
		Env:       EnvES,
		GST:       2,
		Seed:      9,
		Interval:  6 * time.Millisecond,
		Timeout:   30 * time.Second,
	}
	for _, transport := range []Transport{NewLiveTransport(), NewSimTransport(), NewTCPTransport(), NewTCPMuxTransport()} {
		t.Run(transport.Name(), func(t *testing.T) {
			defer transport.Close()
			res, err := transport.Run(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			if vs := violations(res.Decisions, spec.Proposals, spec.Scenario, true); len(vs) > 0 {
				t.Fatalf("over %s: %v: %+v", transport.Name(), vs, res.Decisions)
			}
			if ps := unscheduledCrashes(res.Decisions, spec.Scenario); len(ps) > 0 {
				t.Fatalf("over %s: processes %v crashed outside the schedule: %+v", transport.Name(), ps, res.Decisions)
			}
		})
	}
}

func TestNodeCrashScheduleFlowsThroughTransports(t *testing.T) {
	node, err := NewNode(NewSimTransport(), WithEnv(EnvES), WithGST(6), WithCrashes(map[int]int{0: 2}))
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	res, err := node.Run(context.Background(), "with-crash", props(1, 2, 3, 4))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Decisions[0].Crashed {
		t.Error("crash schedule not applied")
	}
	if _, ok := res.Agreed(); !ok {
		t.Fatalf("survivors must agree: %+v", res.Decisions)
	}
}

func TestNodeFailedProposeReleasesID(t *testing.T) {
	node, err := NewNode(NewSimTransport(), WithGST(3))
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := node.Propose(ctx, "retry-me", props(1, 2)); err != nil {
		// The failed Propose must not occupy the ID forever.
		if err := node.Propose(context.Background(), "retry-me", props(1, 2)); err != nil {
			t.Fatalf("ID still occupied after failed Propose: %v", err)
		}
	} else {
		// The enqueue won the race; the worker fails it with the ctx error
		// and Wait consumes it, after which the ID is reusable.
		if _, werr := node.Wait(context.Background(), "retry-me"); !errors.Is(werr, context.Canceled) {
			t.Fatalf("want wrapped context.Canceled, got %v", werr)
		}
		if err := node.Propose(context.Background(), "retry-me", props(1, 2)); err != nil {
			t.Fatalf("ID not reusable after consumed failure: %v", err)
		}
	}
	if _, err := node.Wait(context.Background(), "retry-me"); err != nil {
		t.Fatal(err)
	}
}

// cannedTransport decides instantly: every process "decides" the first
// proposal in round 1 — the harness's nullTransport, so a Node.Run over it
// costs the Node's own work plus the two allocations of the Result.
type cannedTransport struct{}

func (cannedTransport) Name() string { return "canned" }
func (cannedTransport) Close() error { return nil }
func (cannedTransport) Run(_ context.Context, spec InstanceSpec) (*Result, error) {
	res := &Result{Rounds: 1, Decisions: make([]Decision, len(spec.Proposals))}
	for i := range res.Decisions {
		res.Decisions[i] = Decision{Proc: i, Decided: true, Value: spec.Proposals[0], Round: 1}
	}
	return res, nil
}

// TestNodeRoundTripAllocBudget pins the Node's per-instance fixed cost —
// spec, instance, run context, feed events, wake-up — in allocations: the
// deterministic twin of the harness's node.null_roundtrip_us probe
// (11 allocs/op measured).
func TestNodeRoundTripAllocBudget(t *testing.T) {
	node, err := NewNode(cannedTransport{})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	proposals := props(1, 2, 3)
	run := func() {
		if _, err := node.Run(context.Background(), "null", proposals); err != nil {
			t.Fatal(err)
		}
	}
	// Warm past the feed's backlog, so the steady state — a full feed
	// nobody reads — is what gets measured.
	for i := 0; i < maxBufferedEvents; i++ {
		run()
	}
	const budget = 12
	if n := testing.AllocsPerRun(200, run); n > budget {
		t.Errorf("Node.Run over a canned transport: %v allocs/op, budget %d", n, budget)
	}
}
