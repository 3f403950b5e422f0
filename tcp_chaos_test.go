package anonconsensus

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"anonconsensus/internal/netchaos"
	"anonconsensus/internal/tcpnet"
)

// viaProxyOnSlot1 is a dialVia that routes slot 1 through a netchaos proxy
// running sched; everyone else dials direct.
func viaProxyOnSlot1(t *testing.T, sched netchaos.Schedule) func(slot int, hubAddr string) (string, func()) {
	return func(slot int, hubAddr string) (string, func()) {
		if slot != 1 {
			return hubAddr, nil
		}
		p, err := netchaos.NewProxy(hubAddr, sched)
		if err != nil {
			t.Fatalf("chaos proxy: %v", err)
		}
		return p.Addr(), func() { _ = p.Close() }
	}
}

// cutAt is when the chaos tests' blackouts begin, measured from the
// proxy's start, which shortly precedes the run's first beat: one beat
// after round 0 runs on the first 12ms beat, and three beats before the
// earliest decision of an ES instance with distinct proposals, round 4 on
// the 5th beat.
const cutAt = 24 * time.Millisecond

// TestTCPChaosSeveredNodeRecovers is the acceptance property for the
// resilient live plane: one node's hub link is blacked out mid-run by a
// seeded chaos proxy, and the instance still reaches Agreement and
// Validity — with the outage visible as Reconnects ≥ 1 and
// ReplayedFrames > 0 in the result's robustness counters.
func TestTCPChaosSeveredNodeRecovers(t *testing.T) {
	tr := NewTCPTransport().(*tcpTransport)
	defer tr.Close()

	// Node 1 dials through a proxy whose schedule cuts the link just as
	// rounds begin and holds it down for several round-lengths, so the
	// resumption has peer broadcasts to replay. Everyone else dials direct.
	tr.dialVia = viaProxyOnSlot1(t, netchaos.Schedule{
		{Kind: netchaos.Blackout, At: cutAt, Dur: 100 * time.Millisecond},
	})

	props := []Value{NumValue(11), NumValue(47), NumValue(23), NumValue(5)}
	res, err := tr.Run(context.Background(), InstanceSpec{
		ID:        "chaos-sever",
		Proposals: props,
		Env:       EnvES,
		Interval:  12 * time.Millisecond,
		Timeout:   30 * time.Second,
		Reconnect: ReconnectPolicy{MaxAttempts: 20, BaseDelay: 20 * time.Millisecond, MaxDelay: 100 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if vs := violations(res.Decisions, props, Scenario{}, true); len(vs) > 0 {
		t.Fatalf("under chaos: %v: %+v", vs, res.Decisions)
	}
	// Termination excuses a crashed process; the severed node must have
	// resumed, not been given up for lost.
	if ps := unscheduledCrashes(res.Decisions, Scenario{}); len(ps) > 0 {
		t.Fatalf("processes %v lost under chaos: %+v", ps, res.Decisions)
	}
	if res.Robustness.Reconnects < 1 {
		t.Errorf("Robustness.Reconnects = %d, want ≥ 1", res.Robustness.Reconnects)
	}
	if res.Robustness.ReplayedFrames == 0 {
		t.Error("Robustness.ReplayedFrames = 0; the resumption should have replayed the outage gap")
	}
}

// TestTCPChaosMinorityCutOffDegradesGracefully pins the degradation
// contract: a node whose link never heals exhausts its reconnect budget
// and becomes crash-equivalent — the siblings still decide, the run
// returns a clean Result (no error, no sibling abort), and the failed
// dials are on the counters.
func TestTCPChaosMinorityCutOffDegradesGracefully(t *testing.T) {
	tr := NewTCPTransport().(*tcpTransport)
	defer tr.Close()

	tr.dialVia = viaProxyOnSlot1(t, netchaos.Schedule{
		{Kind: netchaos.Blackout, At: cutAt}, // Dur 0: never heals
	})

	props := []Value{NumValue(1), NumValue(2), NumValue(3)}
	res, err := tr.Run(context.Background(), InstanceSpec{
		ID:        "chaos-cutoff",
		Proposals: props,
		Env:       EnvES,
		Interval:  12 * time.Millisecond,
		Timeout:   30 * time.Second,
		Reconnect: ReconnectPolicy{MaxAttempts: 3, BaseDelay: 10 * time.Millisecond, MaxDelay: 50 * time.Millisecond},
	})
	if err != nil {
		t.Fatalf("permanent minority outage must not error the run: %v", err)
	}
	if d := res.Decisions[1]; d.Decided || !d.Crashed {
		t.Errorf("cut-off node %+v, want undecided and crashed (its session was lost for good)", d)
	}
	if _, ok := res.Agreed(); !ok {
		t.Fatalf("survivors must decide and agree: %+v", res.Decisions)
	}
	if res.Robustness.FailedDials < 3 {
		t.Errorf("Robustness.FailedDials = %d, want ≥ 3 (every redial hit the blackout)", res.Robustness.FailedDials)
	}
}

// TestTCPChaosMuxSeveredSlotRecovers points netchaos at the multi-tenant
// service: slot 1 of a shared plane dials through a proxy that blacks its
// link out while several instances are in flight on it. The slot resumes
// its one hub session, and every instance — the ones that lived through
// the outage included — decides with Agreement and Validity.
func TestTCPChaosMuxSeveredSlotRecovers(t *testing.T) {
	tr := NewTCPMuxTransport().(*tcpMuxTransport)
	tr.plane.dialVia = viaProxyOnSlot1(t, netchaos.Schedule{
		{Kind: netchaos.Blackout, At: cutAt, Dur: 100 * time.Millisecond},
	})
	node, err := NewNode(tr,
		WithEnv(EnvES), WithInterval(12*time.Millisecond), WithTimeout(30*time.Second),
		WithMaxInFlight(4), WithQueueDepth(8),
		WithReconnect(ReconnectPolicy{MaxAttempts: 20, BaseDelay: 20 * time.Millisecond, MaxDelay: 100 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	const instances = 8
	var wg sync.WaitGroup
	for i := 0; i < instances; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := fmt.Sprintf("chaos-mux-%d", i)
			proposals := props(int64(i), int64(i+100), int64(i+200), int64(i+300))
			if err := node.Propose(context.Background(), id, proposals); err != nil {
				t.Errorf("%s: %v", id, err)
				return
			}
			res, err := node.Wait(context.Background(), id)
			if err != nil {
				t.Errorf("%s: %v", id, err)
				return
			}
			// Termination demands a decision from every process that did not
			// crash, and nothing is scheduled to: slot 1 must resume and decide.
			if vs := violations(res.Decisions, proposals, Scenario{}, true); len(vs) > 0 {
				t.Errorf("%s under chaos: %v: %+v", id, vs, res.Decisions)
			}
			if ps := unscheduledCrashes(res.Decisions, Scenario{}); len(ps) > 0 {
				t.Errorf("%s: processes %v lost under chaos: %+v", id, ps, res.Decisions)
			}
		}()
	}
	wg.Wait()
	if s := node.Stats(); s.PeakInFlight < 4 {
		t.Errorf("PeakInFlight = %d, want 4 instances sharing the severed slot", s.PeakInFlight)
	}
	if got := tr.plane.slots[1].Stats().Reconnects; got < 1 {
		t.Errorf("slot 1 MuxStats.Reconnects = %d, want ≥ 1", got)
	}
}

// TestTCPChaosMuxDeadSlotReplaced pins that the shared plane heals: a slot
// whose link never comes back exhausts its reconnect budget and is
// crash-equivalent for the instance that carried it — and only for that
// one. The next Run re-dials the slot, so all n processes decide again.
// The dead slot's old session ends too: detached, and never reported
// received, it stays past the hub's high-water mark (a small one here)
// for a grace window, and the hub releases it, so the hub is back to n
// sessions.
func TestTCPChaosMuxDeadSlotReplaced(t *testing.T) {
	tr := NewTCPMuxTransport().(*tcpMuxTransport)
	defer tr.Close()
	tr.plane.hubOpts = []tcpnet.HubOption{tcpnet.WithQueuePolicy(16, time.Millisecond)}
	neverHeals := viaProxyOnSlot1(t, netchaos.Schedule{
		{Kind: netchaos.Blackout, At: cutAt}, // Dur 0: never heals
	})
	dials := 0
	tr.plane.dialVia = func(slot int, hubAddr string) (string, func()) {
		if slot == 1 {
			if dials++; dials > 1 {
				return hubAddr, nil // the replacement dials direct
			}
		}
		return neverHeals(slot, hubAddr)
	}
	spec := InstanceSpec{
		ID:        "dead-slot",
		Proposals: props(1, 2, 3),
		Env:       EnvES,
		Interval:  12 * time.Millisecond,
		Timeout:   30 * time.Second,
		Reconnect: ReconnectPolicy{MaxAttempts: 3, BaseDelay: 10 * time.Millisecond, MaxDelay: 50 * time.Millisecond},
	}

	first, err := tr.Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("a permanently cut-off slot must not error the run: %v", err)
	}
	if first.Decisions[1].Decided {
		t.Error("cut-off process 1 claims a decision")
	}
	if _, ok := first.Agreed(); !ok {
		t.Fatalf("survivors of the first run must decide and agree: %+v", first.Decisions)
	}

	second, err := tr.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := second.Agreed(); !ok || len(unscheduledCrashes(second.Decisions, Scenario{})) > 0 {
		t.Fatalf("the dead slot was not replaced: second run %+v", second.Decisions)
	}

	// sessions runs spec once more, with a fault hook on its epoch that
	// drops nothing and records every session the hub forwards to: each
	// live session, since every one of the n processes sends.
	sessions := func() int {
		tr.plane.mu.Lock()
		epoch := tr.plane.epoch + 1
		tr.plane.mu.Unlock()
		var mu sync.Mutex
		seen := map[int]bool{}
		tr.plane.faults.Store(epoch, tcpnet.LinkFault(func(_, _, to int) (bool, bool) {
			mu.Lock()
			defer mu.Unlock()
			seen[to] = true
			return false, false
		}))
		res, err := tr.Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := res.Agreed(); !ok {
			t.Fatalf("an instance after the replacement did not agree: %+v", res.Decisions)
		}
		mu.Lock()
		defer mu.Unlock()
		return len(seen)
	}
	for runs := 1; ; runs++ {
		got := sessions()
		if got == len(spec.Proposals) {
			break
		}
		if runs == 5 {
			t.Fatalf("after %d more instances the hub forwards to %d sessions, want %d: the dead slot's session was never released", runs, got, len(spec.Proposals))
		}
	}
	if dials != 2 {
		t.Errorf("slot 1 dialed %d times, want 2 (first dial, one replacement)", dials)
	}
}
