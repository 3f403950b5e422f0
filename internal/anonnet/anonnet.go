// Package anonnet is the real-time runtime: anonymous processes as
// goroutines, broadcast as a fan-out with per-link latencies, and
// GIRAF rounds driven by local timers instead of a lockstep scheduler.
// Rounds therefore drift apart across processes — the part of the model the
// deterministic simulator (package sim) does not exercise.
//
// A round ends at the first timer beat after the process's add completes
// (package rounddriver's add-then-get): the run's sequencer delivers each
// round-k sender a mark behind the first round-k envelope, so every round
// has a source by construction. A link is timely in round k when its
// envelope arrives before the receiver ends round k; latency profiles
// realize the paper's environments by keeping the source's links fast (a
// fraction of the round interval) and everyone else's slow or jittery.
package anonnet

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"anonconsensus/internal/env"
	"anonconsensus/internal/giraf"
	"anonconsensus/internal/property"
	"anonconsensus/internal/rounddriver"
)

// Config describes a live run.
type Config struct {
	// N is the number of processes.
	N int
	// Automaton builds process i's automaton.
	Automaton func(i int) giraf.Automaton
	// Interval is the local round-timer period. It sets how fast rounds
	// go and which latencies count as timely, not whether rounds are
	// safe: a round ends only when its add completes (rounddriver.Mark),
	// whatever the interval.
	Interval time.Duration
	// Latency is the link latency profile; it must be safe for concurrent
	// use (internal/env's profiles are stateless hashes).
	Latency env.LatencyModel
	// Timeout bounds the whole run.
	Timeout time.Duration
	// Scenario is the run's fault description; nil means fault-free. A
	// process with crash round r stops after it executed r end-of-rounds.
	// Link faults act on the broadcast fan-out: envelopes whose (round,
	// sender, receiver) the scenario drops — loss draw or active partition —
	// are never queued, and duplicated ones are queued twice (the copy half
	// an interval later), exercising inbox deduplication. Fault decisions
	// are deterministic in the scenario seed, the same decisions the
	// lockstep simulator makes.
	Scenario *env.Scenario
	// OnRound, if non-nil, runs in process i's own goroutine immediately
	// before each end-of-round, with the automaton it is about to step.
	// Drivers use it to inject operations (e.g. weak-set adds) or sample
	// state without racing the automaton.
	OnRound func(proc, round int, aut giraf.Automaton)
}

func (c *Config) validate() error {
	switch {
	case c.N <= 0:
		return fmt.Errorf("anonnet: N = %d", c.N)
	case c.Automaton == nil:
		return fmt.Errorf("anonnet: Automaton factory is nil")
	case c.Interval <= 0:
		return fmt.Errorf("anonnet: Interval = %v", c.Interval)
	case c.Latency == nil:
		return fmt.Errorf("anonnet: Latency model is nil")
	case c.Timeout <= 0:
		return fmt.Errorf("anonnet: Timeout = %v", c.Timeout)
	}
	if err := c.Scenario.Validate(c.N); err != nil {
		return fmt.Errorf("anonnet: %w", err)
	}
	return nil
}

// Result is the outcome of a live run.
type Result struct {
	// Procs holds every process's outcome, process i at index i.
	Procs   []rounddriver.Outcome
	Elapsed time.Duration
	// Dropped counts deliveries lost to the scenario's loss rate or an
	// active partition; Duplicated counts the extra deliveries its
	// duplication rate injected. Both are 0 without a scenario.
	Dropped    int
	Duplicated int
}

// AllCorrectDecided reports whether every non-crashed process decided.
func (r *Result) AllCorrectDecided() bool {
	return property.CheckTermination(r.Outcomes(), 0) == nil
}

// Outcomes returns the processes' outcomes in the property checker's form.
func (r *Result) Outcomes() []property.Outcome { return rounddriver.Outcomes(r.Procs) }

// network carries the shared state of one run.
type network struct {
	cfg Config
	// inbox[i] is process i's inbox; only the queue's goroutine puts into
	// it.
	inbox []*rounddriver.Mailbox
	// queue holds every envelope on its way, and every mark, in deadline
	// order; one goroutine delivers them.
	queue *linkQueue
	seq   sequencer
	ctx   context.Context
	wg    sync.WaitGroup // the delivery goroutine
	done  chan int       // process indexes that finished (decided/crashed/cancelled)

	dropped    atomic.Int64
	duplicated atomic.Int64
}

// Run executes the live network until every process decided, crashed, the
// timeout expired, or the caller's context was cancelled. Cancellation of
// the parent context aborts the run and returns an error wrapping
// ctx.Err(); the run's own timeout is not an error — it simply yields
// undecided processes.
func Run(parent context.Context, cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if parent == nil {
		parent = context.Background()
	}
	ctx, cancel := context.WithTimeout(parent, cfg.Timeout)
	defer cancel()

	nw := &network{
		cfg:   cfg,
		inbox: make([]*rounddriver.Mailbox, cfg.N),
		queue: newLinkQueue(),
		ctx:   ctx,
		done:  make(chan int, cfg.N),
	}
	for i := range nw.inbox {
		nw.inbox[i] = rounddriver.NewMailbox()
	}
	nw.wg.Add(1)
	go func() {
		defer nw.wg.Done()
		nw.queue.run(ctx, func(to int, env giraf.Envelope) { nw.inbox[to].Put(env) })
	}()

	start := time.Now()
	results := make([]rounddriver.Outcome, cfg.N)
	var procWG sync.WaitGroup
	for i := 0; i < cfg.N; i++ {
		i := i
		procWG.Add(1)
		go func() {
			defer procWG.Done()
			results[i] = nw.runProcess(i)
			nw.done <- i
		}()
	}

	// Cancel as soon as every process reported (decided or crashed); the
	// context timeout is the fallback for undecided runs.
	finished := 0
	for finished < cfg.N {
		select {
		case <-nw.done:
			finished++
		case <-ctx.Done():
			finished = cfg.N
		}
	}
	cancel()
	procWG.Wait()
	nw.wg.Wait()
	if err := parent.Err(); err != nil {
		return nil, fmt.Errorf("anonnet: run cancelled: %w", err)
	}
	return &Result{
		Procs:      results,
		Elapsed:    time.Since(start),
		Dropped:    int(nw.dropped.Load()),
		Duplicated: int(nw.duplicated.Load()),
	}, nil
}

// runProcess drives one process on the shared round loop (package
// rounddriver): round 0 on its first beat, as on every plane.
func (nw *network) runProcess(id int) rounddriver.Outcome {
	aut := nw.cfg.Automaton(id)
	crashAfter, _ := nw.cfg.Scenario.CrashRound(id) // 0 = never (rounds are ≥ 1)
	ticker := time.NewTicker(nw.cfg.Interval)
	defer ticker.Stop()
	cfg := rounddriver.Config{
		Automaton:  aut,
		CrashAfter: crashAfter,
		Beat:       ticker.C,
		Inbox:      nw.inbox[id],
		Send: func(env giraf.Envelope) error {
			nw.broadcast(id, env)
			return nil
		},
	}
	if nw.cfg.OnRound != nil {
		cfg.OnRound = func(round int) { nw.cfg.OnRound(id, round, aut) }
	}
	return rounddriver.Run(nw.ctx, cfg)
}

// sequencer is the run's broadcast log, reduced to what add-then-get
// needs (§5, Algorithm 5): broadcasts take effect one at a time, and each
// round remembers when its first entry reaches every receiver.
type sequencer struct {
	mu sync.Mutex
	// first[k][i] is the deadline of the first round-k broadcast at
	// process i (its sender's own entry: the broadcast's start); nil until
	// round k has one.
	first [][]time.Time
}

// broadcast fans the envelope out to every peer with per-link delays and
// completes the sender's add: its mark is queued to the sender itself at
// the first round-k entry's deadline there, or now if that has passed.
// The mark is queued behind that entry, so by Theorem 4 the first round-k
// broadcast is a source of round k. Envelopes share one payload snapshot
// (giraf caches the round view), so fan-out costs one queue entry per
// link, not a payload copy. Scenario faults act here, at the fan-out: a
// dropped delivery is never queued and a duplicated one is queued twice;
// neither moves a deadline the sequencer records.
func (nw *network) broadcast(from int, envl giraf.Envelope) {
	sq := &nw.seq
	sq.mu.Lock()
	defer sq.mu.Unlock()
	now := time.Now()
	k := envl.Round
	for len(sq.first) <= k {
		sq.first = append(sq.first, nil)
	}
	first := sq.first[k]
	isFirst := first == nil
	if isFirst {
		first = make([]time.Time, nw.cfg.N)
		sq.first[k] = first
		first[from] = now
	}
	for to := 0; to < nw.cfg.N; to++ {
		if to == from {
			continue
		}
		at := now.Add(nw.cfg.Latency.Delay(k, from, to))
		if isFirst {
			first[to] = at
		}
		drop, dup := nw.cfg.Scenario.LinkFault(k, from, to)
		if drop {
			nw.dropped.Add(1)
			continue
		}
		nw.queue.push(at, to, envl)
		if dup {
			nw.duplicated.Add(1)
			nw.queue.push(at.Add(nw.cfg.Interval/2), to, envl)
		}
	}
	at := first[from]
	if at.Before(now) {
		at = now
	}
	nw.queue.push(at, from, rounddriver.Mark(k))
}
