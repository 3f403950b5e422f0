package anonconsensus_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	ac "anonconsensus"
)

// TestJoinTCPAgreesAcrossProcesses drives the distributed surface the way
// cmd/anonnode -connect does: separate JoinTCP calls that share nothing but
// a hub address. Three start together and must decide one proposed value; a
// fourth joins a beat late and must never decide differently — Agreement is
// a safety property, and the hub-log replay keeps the broadcast reliable for
// the late joiner because its epoch is registered at dial.
func TestJoinTCPAgreesAcrossProcesses(t *testing.T) {
	hub, err := ac.NewTCPHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()

	const interval = 4 * time.Millisecond
	proposals := []ac.Value{ac.NumValue(11), ac.NumValue(47), ac.NumValue(23), ac.NumValue(5)}
	decisions := make([]ac.Decision, len(proposals))
	errs := make([]error, len(proposals))
	var wg sync.WaitGroup
	for i, p := range proposals {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i == len(proposals)-1 {
				time.Sleep(interval) // the late joiner
			}
			decisions[i], errs[i] = ac.JoinTCP(context.Background(), hub.Addr(), p,
				ac.WithInterval(interval), ac.WithTimeout(20*time.Second))
		}()
	}
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("process %d: %v", i, err)
		}
	}
	// The first three must decide; the late joiner may not have yet.
	if vs := ac.ViolationsForTest(decisions[:3], proposals, ac.Scenario{}, true); len(vs) > 0 {
		t.Fatalf("%v: %+v", vs, decisions)
	}
	if vs := ac.ViolationsForTest(decisions, proposals, ac.Scenario{}, false); len(vs) > 0 {
		t.Fatalf("with the late joiner: %v: %+v", vs, decisions)
	}
	for i, d := range decisions {
		// Termination excuses a crash, but none is scheduled here.
		if i < 3 && !d.Decided {
			t.Errorf("process %d undecided: %+v", i, d)
		}
		if d.Proc != 0 {
			t.Errorf("process %d: Proc = %d, want 0 (the process is anonymous)", i, d.Proc)
		}
	}
}

// TestJoinTCPFailsFast pins JoinTCP's error paths: each returns promptly,
// nothing waits out a run timeout.
func TestJoinTCPFailsFast(t *testing.T) {
	hub, err := ac.NewTCPHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()

	t.Run("cancelled mid-run", func(t *testing.T) {
		// A lone node at one-second beats cannot decide before the cancel.
		ctx, cancel := context.WithCancel(context.Background())
		time.AfterFunc(50*time.Millisecond, cancel)
		_, err := ac.JoinTCP(ctx, hub.Addr(), ac.NumValue(1), ac.WithInterval(time.Second))
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want it to wrap context.Canceled", err)
		}
	})
	t.Run("cancelled before dial", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, err := ac.JoinTCP(ctx, hub.Addr(), ac.NumValue(1))
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want it to wrap context.Canceled", err)
		}
	})
	t.Run("invalid proposal", func(t *testing.T) {
		if _, err := ac.JoinTCP(context.Background(), hub.Addr(), ac.Value("")); err == nil {
			t.Error("empty proposal accepted")
		}
	})
	t.Run("invalid option", func(t *testing.T) {
		if _, err := ac.JoinTCP(context.Background(), hub.Addr(), ac.NumValue(1), ac.WithEnv(ac.Environment(9))); err == nil {
			t.Error("unknown environment accepted")
		}
	})
	t.Run("nobody listening", func(t *testing.T) {
		start := time.Now()
		if _, err := ac.JoinTCP(context.Background(), "127.0.0.1:1", ac.NumValue(1)); err == nil {
			t.Error("dial failure not reported")
		}
		if took := time.Since(start); took > 10*time.Second {
			t.Errorf("dial failure took %v", took)
		}
	})
}
