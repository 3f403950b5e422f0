package anonnet

import (
	"context"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"anonconsensus/internal/core"
	"anonconsensus/internal/env"
	"anonconsensus/internal/giraf"
)

// toChannel is a delivery func that forwards every envelope to out.
func toChannel(out chan<- giraf.Envelope) func(int, giraf.Envelope) {
	return func(_ int, env giraf.Envelope) { out <- env }
}

// TestLinkQueueDeadlineOrder: deliveries come out in deadline order, with
// a later-pushed but earlier-due envelope overtaking (per-round latency
// profiles legitimately reorder links), and FIFO among equal deadlines.
func TestLinkQueueDeadlineOrder(t *testing.T) {
	lq := newLinkQueue()
	out := make(chan giraf.Envelope, 8)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go lq.run(ctx, toChannel(out))

	now := time.Now()
	lq.push(now.Add(60*time.Millisecond), 0, giraf.Envelope{Round: 3})
	lq.push(now.Add(20*time.Millisecond), 0, giraf.Envelope{Round: 1})
	lq.push(now.Add(40*time.Millisecond), 0, giraf.Envelope{Round: 2})

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
	go lq.run(ctx, toChannel(out))

	lq.push(time.Now().Add(300*time.Millisecond), 0, giraf.Envelope{Round: 2})
	time.Sleep(10 * time.Millisecond) // let the runner arm its timer
	lq.push(time.Now().Add(10*time.Millisecond), 0, giraf.Envelope{Round: 1})

	select {
	case env := <-out:
		if env.Round != 1 {
			t.Fatalf("first delivery was round %d, want the preempting 1", env.Round)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("preempting delivery never arrived")
	}
}

// TestLinkQueueKeepsEachReceiversOrder: one queue serves every receiver.
// While its goroutine is stuck inside a delivery, pushes still return at
// once; afterwards each receiver has every entry pushed to it, in deadline
// order and, among equal deadlines, in push order — three senders' pushes
// interleaved, so each link keeps its own order, and the later-due half
// after the earlier-due half.
func TestLinkQueueKeepsEachReceiversOrder(t *testing.T) {
	const receivers, senders, perLink = 3, 3, 40
	lq := newLinkQueue()
	stuck, release := make(chan struct{}), make(chan struct{})
	var (
		mu  sync.Mutex
		got [receivers][]int
	)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go lq.run(ctx, func(to int, env giraf.Envelope) {
		mu.Lock()
		got[to] = append(got[to], env.Round)
		first := len(got[to]) == 1 && to == 0
		mu.Unlock()
		if first {
			close(stuck)
			<-release
		}
	})

	now := time.Now()
	lq.push(now, 0, giraf.Envelope{Round: -1})
	<-stuck
	late := now.Add(5 * time.Millisecond) // pushed first, delivered after
	pushed := make(chan struct{})
	go func() {
		for r := 0; r < perLink; r++ {
			at := now
			if r < perLink/2 {
				at = late
			}
			for from := 0; from < senders; from++ {
				for to := 0; to < receivers; to++ {
					lq.push(at, to, giraf.Envelope{Round: r*senders + from})
				}
			}
		}
		close(pushed)
	}()
	select {
	case <-pushed:
	case <-time.After(2 * time.Second):
		t.Fatal("push blocked behind a delivery in progress")
	}
	close(release)

	var want []int
	for _, half := range [][2]int{{perLink / 2, perLink}, {0, perLink / 2}} {
		for r := half[0]; r < half[1]; r++ {
			for from := 0; from < senders; from++ {
				want = append(want, r*senders+from)
			}
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for to := 0; to < receivers; to++ {
		wantTo := want
		if to == 0 {
			wantTo = append([]int{-1}, want...)
		}
		for {
			mu.Lock()
			done := len(got[to]) >= len(wantTo)
			mu.Unlock()
			if done || time.Now().After(deadline) {
				break
			}
			time.Sleep(time.Millisecond)
		}
		mu.Lock()
		if !slices.Equal(got[to], wantTo) {
			t.Errorf("receiver %d got %v, want %v", to, got[to], wantTo)
		}
		mu.Unlock()
	}
}

// TestBroadcastGoroutinesBounded pins the delivery goroutines at one per
// run, started with it: not one per envelope per link (O(rounds·n²),
// which held hundreds of timer goroutines in flight here), not one per
// link (n·(n−1)), and not one per receiver (n). With 6 processes ticking
// every 2ms under a high-latency profile, the run's goroutines — the ones
// running this package's code: its n processes, its delivery goroutine and
// the test's own — stay within n + 1 and a little slack. The test binary's
// other goroutines do not count: when the total exceeds the budget, a
// goroutine profile tells the two apart, and a failure logs it.
func TestBroadcastGoroutinesBounded(t *testing.T) {
	const n = 6
	const budget = n + 1 + 4
	props := core.DistinctProposals(n)

	var (
		peak    atomic.Int64
		mu      sync.Mutex
		over    string // the profile of the first sample over budget
		outside string // the first profile whose surplus was not the run's
	)
	_, err := Run(context.Background(), Config{
		N:         n,
		Automaton: func(i int) giraf.Automaton { return core.NewESS(props[i]) },
		Interval:  2 * time.Millisecond,
		Latency:   fixedLatency{d: 250 * time.Millisecond}, // >100 rounds in flight per link
		Timeout:   1500 * time.Millisecond,
		OnRound: func(proc, round int, aut giraf.Automaton) {
			g := int64(runtime.NumGoroutine())
			if g > budget { // only then can the run's own exceed it
				own, prof := packageGoroutines()
				mu.Lock()
				if own > budget && over == "" {
					over = prof
				} else if own <= budget && outside == "" {
					outside = prof
				}
				mu.Unlock()
				g = int64(own)
			}
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
	if outside != "" {
		t.Logf("goroutines outside the run took the total over %d:\n%s", budget, outside)
	}
	if p := peak.Load(); p > budget {
		t.Errorf("peak goroutines %d exceeds the n+1 budget %d; goroutine profile:\n%s", p, budget, over)
	} else if p == 0 {
		t.Error("no samples taken")
	}
}

// packageGoroutines returns how many goroutines run this package's code,
// by the binary's goroutine profile, and the profile.
func packageGoroutines() (int, string) {
	var b strings.Builder
	_ = pprof.Lookup("goroutine").WriteTo(&b, 1)
	prof := b.String()
	own, count, counted := 0, 0, false
	for _, line := range strings.Split(prof, "\n") {
		if c, _, ok := strings.Cut(line, " @ "); ok {
			count, _ = strconv.Atoi(c)
			counted = false
		} else if !counted && strings.Contains(line, "anonconsensus/internal/anonnet.") {
			own, counted = own+count, true
		}
	}
	return own, prof
}

// raceEnabled is set by race_test.go: the race detector's instrumentation
// moves locals to the heap, so the allocation pin holds only without it.
var raceEnabled bool

// fixedLatency delays every link by a constant, far beyond the round
// interval, to maximize envelopes in flight.
type fixedLatency struct{ d time.Duration }

func (f fixedLatency) Delay(round, from, to int) time.Duration { return f.d }

// TestRunAllocBudget pins the bytes one n=4 ES run allocates under the
// synchronous profile, averaged over several runs. Each process's inbox is
// an unbounded rounddriver.Mailbox whose buffer grows with the traffic it
// holds and is reused across drains; inboxes preallocated at 4096
// envelopes would cost about 1.2 MB a run on their own.
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
