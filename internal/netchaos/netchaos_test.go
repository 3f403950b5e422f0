package netchaos

import (
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"anonconsensus/internal/core"
	"anonconsensus/internal/property"
	"anonconsensus/internal/rounddriver"
	"anonconsensus/internal/tcpnet"
)

// echoTarget is a TCP server that echoes whatever it receives.
func echoTarget(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() { _, _ = io.Copy(conn, conn); _ = conn.Close() }()
		}
	}()
	return ln.Addr().String()
}

func TestProxyTransparent(t *testing.T) {
	// An empty schedule relays byte-for-byte in both directions.
	p, err := NewProxy(echoTarget(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	msg := []byte("through the proxy and back")
	if _, err := conn.Write(msg); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(conn, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(msg) {
		t.Fatalf("echo through proxy: got %q", got)
	}
	if s := p.Stats(); s.Conns != 1 || s.Severed != 0 {
		t.Errorf("stats = %+v, want 1 conn, 0 severed", s)
	}
}

func TestRandomScheduleDeterministic(t *testing.T) {
	a := RandomSchedule(99, 4, 16, time.Second)
	b := RandomSchedule(99, 4, 16, time.Second)
	if len(a) != 16 {
		t.Fatalf("schedule has %d events, want 16", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs across identical seeds: %+v vs %+v", i, a[i], b[i])
		}
		if a[i].At <= 0 || a[i].At >= time.Second {
			t.Errorf("event %d lands at %v, outside the horizon", i, a[i].At)
		}
		if a[i].Conn < 0 || a[i].Conn >= 4 {
			t.Errorf("event %d targets conn %d of 4", i, a[i].Conn)
		}
	}
	c := RandomSchedule(100, 4, 16, time.Second)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("seeds 99 and 100 produced identical 16-event schedules")
	}
}

func TestProxySever(t *testing.T) {
	p, err := NewProxy(echoTarget(t), Schedule{{Conn: 0, At: 30 * time.Millisecond, Kind: Sever}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	// The scheduled sever must surface as EOF/reset on a blocked read.
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("read survived a scheduled sever")
	}
	if s := p.Stats(); s.Severed != 1 {
		t.Errorf("Severed = %d, want 1", s.Severed)
	}
}

func TestProxyStallDelaysButDelivers(t *testing.T) {
	// A stall is "slow", not "dead": bytes written during the stall arrive
	// after it heals.
	p, err := NewProxy(echoTarget(t), Schedule{{Conn: 0, At: 10 * time.Millisecond, Kind: Stall, Dur: 300 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	time.Sleep(100 * time.Millisecond) // well inside the stall
	start := time.Now()
	if _, err := conn.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(conn, make([]byte, 1)); err != nil {
		t.Fatalf("stalled byte never delivered: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 100*time.Millisecond {
		t.Errorf("byte crossed a stalled link in %v", elapsed)
	}
	if s := p.Stats(); s.Stalled != 1 {
		t.Errorf("Stalled = %d, want 1", s.Stalled)
	}
}

func TestProxyBlackout(t *testing.T) {
	p, err := NewProxy(echoTarget(t), Schedule{{At: 20 * time.Millisecond, Kind: Blackout}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("existing conn survived the blackout")
	}
	// New dials are refused (accepted then immediately closed) while down.
	late, err := net.Dial("tcp", p.Addr())
	if err == nil {
		defer late.Close()
		_ = late.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := late.Read(make([]byte, 1)); err == nil {
			t.Fatal("dial during a permanent blackout carried data")
		}
	}
	s := p.Stats()
	if s.Severed < 1 {
		t.Errorf("Severed = %d, want ≥ 1", s.Severed)
	}
	if s.Refused < 1 {
		t.Errorf("Refused = %d, want ≥ 1", s.Refused)
	}
}

// TestChaosConsensusProperty is the seeded property run: a consensus
// cluster dialing its hub through a chaos proxy with a seed-derived
// schedule of severs, stalls and half-closes. Whatever the schedule does,
// Agreement and Validity must hold; and because every injected failure
// here heals (severs are survivable via reconnect, stalls end, half-opens
// are detected by hub heartbeats and recovered via reconnect), Termination
// must hold too: every node decides.
func TestChaosConsensusProperty(t *testing.T) {
	seeds := []int64{1, 7, 42}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			const n = 3
			hub, err := tcpnet.NewHub("127.0.0.1:0",
				// Aggressive probing so half-open links are detected well
				// inside the run, forcing the reconnect path.
				tcpnet.WithHeartbeat(50*time.Millisecond, 3))
			if err != nil {
				t.Fatal(err)
			}
			defer hub.Close()
			sched := RandomSchedule(seed, n, 4, 400*time.Millisecond)
			proxy, err := NewProxy(hub.Addr(), sched)
			if err != nil {
				t.Fatal(err)
			}
			defer proxy.Close()

			props := core.DistinctProposals(n)
			// Every process is a private connection carrying the one epoch,
			// registered at dial so the hub's replay reaches its inbox.
			const epoch = 1
			results := make([]rounddriver.Outcome, n)
			reconnects := make([]int, n)
			errs := make([]error, n)
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				i := i
				wg.Add(1)
				go func() {
					defer wg.Done()
					m, err := tcpnet.DialMux(t.Context(), tcpnet.MuxConfig{
						HubAddr: proxy.Addr(),
						Reconnect: tcpnet.ReconnectPolicy{
							MaxAttempts: 20,
							BaseDelay:   5 * time.Millisecond,
							MaxDelay:    100 * time.Millisecond,
							Seed:        seed ^ int64(i),
						},
					}, epoch)
					if err != nil {
						errs[i] = err
						return
					}
					defer m.Close()
					results[i], errs[i] = m.RunInstance(t.Context(), epoch, tcpnet.InstanceRun{
						Automaton: core.NewES(props[i]),
						Interval:  12 * time.Millisecond,
						Timeout:   30 * time.Second,
					})
					reconnects[i] = m.Stats().Reconnects
				}()
			}
			wg.Wait()

			for i, err := range errs {
				if err != nil {
					t.Fatalf("node %d: %v (schedule %+v)", i, err, sched)
				}
			}
			run := property.Run{Proposals: core.ProposalSet(props), Outcomes: rounddriver.Outcomes(results), Promised: true}
			if vs := property.Check(run); len(vs) > 0 {
				t.Fatalf("chaos seed %d: %v (outcomes %+v, reconnects %v, schedule %+v)", seed, vs, results, reconnects, sched)
			}
		})
	}
}
