package anonnet

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"anonconsensus/internal/core"
	"anonconsensus/internal/env"
	"anonconsensus/internal/giraf"
)

// TestLinkQueueDeadlineOrder: deliveries come out in deadline order, with
// a later-pushed but earlier-due envelope overtaking (per-round latency
// profiles legitimately reorder links), and FIFO among equal deadlines.
func TestLinkQueueDeadlineOrder(t *testing.T) {
	lq := newLinkQueue()
	out := make(chan giraf.Envelope, 8)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go lq.run(ctx, out)

	now := time.Now()
	lq.push(now.Add(60*time.Millisecond), giraf.Envelope{Round: 3})
	lq.push(now.Add(20*time.Millisecond), giraf.Envelope{Round: 1})
	lq.push(now.Add(40*time.Millisecond), giraf.Envelope{Round: 2})

	for want := 1; want <= 3; want++ {
		select {
		case env := <-out:
			if env.Round != want {
				t.Fatalf("delivery %d: got round %d", want, env.Round)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("delivery %d never arrived", want)
		}
	}
}

// TestLinkQueueEarlierDeadlinePreempts: a push with an earlier deadline
// while the runner is asleep on a later one must win.
func TestLinkQueueEarlierDeadlinePreempts(t *testing.T) {
	lq := newLinkQueue()
	out := make(chan giraf.Envelope, 2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go lq.run(ctx, out)

	lq.push(time.Now().Add(300*time.Millisecond), giraf.Envelope{Round: 2})
	time.Sleep(10 * time.Millisecond) // let the runner arm its timer
	lq.push(time.Now().Add(10*time.Millisecond), giraf.Envelope{Round: 1})

	select {
	case env := <-out:
		if env.Round != 1 {
			t.Fatalf("first delivery was round %d, want the preempting 1", env.Round)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("preempting delivery never arrived")
	}
}

// TestLinkQueueFullInboxParksOnlyDelivery: with the receiver not reading
// and its inbox full, pushes still return at once; once it reads, every
// envelope arrives, equal deadlines in push order — two senders' pushes
// interleaved, so each link keeps its own order.
func TestLinkQueueFullInboxParksOnlyDelivery(t *testing.T) {
	lq := newLinkQueue()
	out := make(chan giraf.Envelope, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go lq.run(ctx, out)

	const perLink = 50
	at := time.Now()
	pushed := make(chan struct{})
	go func() {
		for r := 1; r <= perLink; r++ {
			for link := 0; link < 2; link++ {
				lq.push(at, giraf.Envelope{Round: 2*r + link})
			}
		}
		close(pushed)
	}()
	select {
	case <-pushed:
	case <-time.After(2 * time.Second):
		t.Fatal("push blocked behind a full inbox")
	}
	for want := 2; want < 2*perLink+2; want++ {
		select {
		case env := <-out:
			if env.Round != want {
				t.Fatalf("delivery %d: got %d, want push order", want-1, env.Round)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("delivery %d never arrived", want-1)
		}
	}
}

// TestBroadcastGoroutinesBounded pins the delivery goroutines at one per
// receiver, started with the run: not one per envelope per link
// (O(rounds·n²), which held hundreds of timer goroutines in flight here),
// and not one per link (n·(n−1)). With 6 processes ticking every 2ms
// under a high-latency profile, the bound is n delivery goroutines + n
// processes + a little slack.
func TestBroadcastGoroutinesBounded(t *testing.T) {
	const n = 6
	base := runtime.NumGoroutine()
	props := core.DistinctProposals(n)

	var peak atomic.Int64
	res, err := Run(context.Background(), Config{
		N:         n,
		Automaton: func(i int) giraf.Automaton { return core.NewESS(props[i]) },
		Interval:  2 * time.Millisecond,
		Latency:   fixedLatency{d: 250 * time.Millisecond}, // >100 rounds in flight per link
		Timeout:   1500 * time.Millisecond,
		OnRound: func(proc, round int, aut giraf.Automaton) {
			g := int64(runtime.NumGoroutine())
			for {
				cur := peak.Load()
				if g <= cur || peak.CompareAndSwap(cur, g) {
					break
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = res
	// Budget: base + n processes + n receivers' queues + slack.
	budget := int64(base + 2*n + 4)
	if p := peak.Load(); p > budget {
		t.Errorf("peak goroutines %d exceeds the 2n budget %d (base %d)", p, budget, base)
	} else if p == 0 {
		t.Error("no samples taken")
	}
}

// raceEnabled is set by race_test.go: the race detector's instrumentation
// moves locals to the heap, so the allocation pin holds only without it.
var raceEnabled bool

// fixedLatency delays every link by a constant, far beyond the round
// interval, to maximize envelopes in flight.
type fixedLatency struct{ d time.Duration }

func (f fixedLatency) Delay(round, from, to int) time.Duration { return f.d }

// TestRunAllocBudget pins the bytes one n=4 ES run allocates under the
// synchronous profile, averaged over several runs. Inboxes of 4096
// envelopes cost about 1.2 MB a run on their own; inboxes sized from n
// leave the whole run near 36 KB.
func TestRunAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	props := core.DistinctProposals(4)
	cfg := Config{
		N:         4,
		Automaton: esFactory(props),
		Interval:  liveInterval,
		Latency:   env.Sync{Interval: liveInterval},
		Timeout:   10 * time.Second,
	}
	run := func() {
		res, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		requireLiveConsensus(t, res, props)
	}
	run() // warm up
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	const budget = 128 << 10
	if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun > budget {
		t.Errorf("an n=4 run allocates %d bytes, budget %d", perRun, budget)
	}
}
