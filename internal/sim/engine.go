// Package sim is the deterministic round simulator for GIRAF automata.
//
// The engine advances all processes in lockstep: at global step k every
// alive, non-halted process executes its end-of-round, which computes round
// k and broadcasts its round-(k+1) envelope. An environment Policy assigns
// every (sender, receiver) pair of every round a delivery delay measured in
// rounds: delay 0 means the envelope is delivered within the receiver's
// matching round (a *timely* link, the paper's §2.3), delay d > 0 means it
// arrives d rounds late — still reliably, just not on time.
//
// The three environments of the paper (MS, ES, ESS) plus fully synchronous,
// fully asynchronous and adversarial policies live in internal/env, and so
// does the run's fault description: Config.Scenario carries the crash
// schedule and the composable link faults (loss, duplication, round-ranged
// partitions). A recorded Trace can be validated
// against the formal environment definitions by the checkers in trace.go,
// so tests never have to trust a policy's self-description.
package sim

import (
	"context"
	"fmt"
	"slices"

	"anonconsensus/internal/env"
	"anonconsensus/internal/giraf"
	"anonconsensus/internal/property"
	"anonconsensus/internal/values"
)

// Config describes one simulation run.
type Config struct {
	// N is the number of processes.
	N int
	// Automaton builds the automaton for process i. Processes are anonymous:
	// the index is a simulator-level handle only and must not leak into
	// payloads.
	Automaton func(i int) giraf.Automaton
	// Policy is the environment: it schedules delivery delays.
	Policy env.Policy
	// Scenario is the run's fault description; nil means fault-free. A
	// process with crash round r (≥ 1) does not execute its end-of-round at
	// global step r or later. Loss, duplication and partitions are applied
	// at delivery time: lost envelopes never reach the receiver, duplicated
	// ones are delivered again one step later, exercising inbox
	// deduplication.
	Scenario *env.Scenario
	// MaxRounds bounds the run; the engine stops after this many global
	// steps even if processes are still undecided.
	MaxRounds int
	// RecordTrace enables delivery recording for the environment checkers.
	RecordTrace bool
	// OnRound, if non-nil, runs after every global step with the step
	// number; use it to sample custom per-round metrics.
	OnRound func(round int, e *Engine)
}

func (c *Config) validate() error {
	if c.N <= 0 {
		return fmt.Errorf("sim: N = %d, need at least 1 process", c.N)
	}
	if c.Automaton == nil {
		return fmt.Errorf("sim: Automaton factory is nil")
	}
	if c.Policy == nil {
		return fmt.Errorf("sim: Policy is nil")
	}
	if c.MaxRounds <= 0 {
		return fmt.Errorf("sim: MaxRounds = %d, must be positive", c.MaxRounds)
	}
	if err := c.Scenario.Validate(c.N); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	return nil
}

// ProcStatus is the final state of one process.
type ProcStatus struct {
	// Decided is true if the process decided.
	Decided bool
	// Decision is the decided value (zero if !Decided).
	Decision values.Value
	// DecidedAt is the global step (= round computed) at which it decided.
	DecidedAt int
	// Crashed is true if the crash schedule stopped the process.
	Crashed bool
	// CrashedAt is the step at which it crashed (meaningful if Crashed).
	CrashedAt int
	// LastRound is the last round whose end-of-round the process executed.
	LastRound int
}

// Metrics aggregates run-wide counters.
type Metrics struct {
	// Broadcasts is the number of envelopes broadcast.
	Broadcasts int
	// Deliveries is the number of envelope deliveries performed.
	Deliveries int
	// PayloadBytes is the total canonical-encoding size of all broadcast
	// envelopes (each envelope counted once, not per receiver).
	PayloadBytes int
	// MaxEnvelopeBytes is the largest single envelope.
	MaxEnvelopeBytes int
	// Dropped is the number of deliveries lost to the scenario's loss rate
	// or an active partition (0 without a scenario).
	Dropped int
	// Duplicated is the number of extra deliveries injected by the
	// scenario's duplication rate (0 without a scenario).
	Duplicated int
	// MergesSkipped is the number of deliveries a shared round absorbed:
	// made to every receiver at once by giraf.SharedRound instead of one
	// Receive call each (see PERFORMANCE.md). They still count in
	// Deliveries.
	MergesSkipped int
}

// Result is the outcome of Run.
type Result struct {
	Statuses []ProcStatus
	// Rounds is the number of global steps executed.
	Rounds  int
	Metrics Metrics
	// Trace is non-nil when Config.RecordTrace was set.
	Trace *Trace
}

// AllCorrectDecided reports whether every non-crashed process decided.
func (r *Result) AllCorrectDecided() bool {
	return property.CheckTermination(r.Outcomes(), 0) == nil
}

// Decisions returns the set of decided values.
func (r *Result) Decisions() values.Set { return property.Decisions(r.Outcomes()) }

// Outcomes converts the statuses to the property checker's form (the one
// place a property.Outcome is built from a ProcStatus).
func (r *Result) Outcomes() []property.Outcome {
	outs := make([]property.Outcome, len(r.Statuses))
	for i, st := range r.Statuses {
		outs[i] = property.Outcome{Decided: st.Decided, Value: st.Decision, Round: st.DecidedAt, Crashed: st.Crashed}
	}
	return outs
}

// Check judges the run under scenario sc with property.Check, adding the
// trace's MS and irrevocability checks when one was recorded.
func (r *Result) Check(proposals values.Set, sc *env.Scenario, promised bool) []*property.Violation {
	run := property.Run{Proposals: proposals, Outcomes: r.Outcomes(), Scenario: sc, Promised: promised, Rounds: r.Rounds}
	if r.Trace != nil {
		run.MS = func() error { return r.Trace.CheckMSThrough(r.LastDecisionRound()) }
		run.Irrevocable = func() error { return r.Trace.CheckIrrevocability(r.Statuses) }
	}
	return property.Check(run)
}

// FirstDecisionRound returns the earliest deciding step, or 0 if nobody
// decided.
func (r *Result) FirstDecisionRound() int {
	first := 0
	for _, st := range r.Statuses {
		if st.Decided && (first == 0 || st.DecidedAt < first) {
			first = st.DecidedAt
		}
	}
	return first
}

// LastDecisionRound returns the latest deciding step among deciders, or 0.
func (r *Result) LastDecisionRound() int {
	last := 0
	for _, st := range r.Statuses {
		if st.Decided && st.DecidedAt > last {
			last = st.DecidedAt
		}
	}
	return last
}

// pendingDelivery is an envelope scheduled for a future step. env points
// into the array of envelopes its step broadcast (one allocation per step),
// so an entry is three words however many receivers share the envelope. A
// receiver of fanOutAll means "every process except the sender":
// uniform-delay broadcasts in runs without link faults collapse to one ring
// entry instead of n-1, and deliver expands them so that every receiver
// takes the envelope at its queue position — where a per-receiver entry
// would have been queued — so the collapse is invisible to delivery order
// and byte-identity pins.
type pendingDelivery struct {
	receiver int
	sender   int
	env      *giraf.Envelope
}

// dueSlot is one step's ring slot: the deliveries queued for the step and
// the number of late deliveries counted for it instead (see
// Engine.countLate).
type dueSlot struct {
	q    []pendingDelivery
	late int
}

// fanOutAll is the pendingDelivery.receiver sentinel for a collapsed
// uniform-delay broadcast entry: one entry, pointing at the one envelope,
// stands for the sender's n-1 deliveries.
const fanOutAll = -1

// dueRingHint is the initial delivery-ring window. Policy delays are
// small in practice (the MS/Async default bound is 3), so eight slots
// absorb the common case; longer delays grow the ring on demand.
const dueRingHint = 8

// Engine executes one configured run. Create with New, drive with Run.
// Engines are reusable: Reset rearms one for a new configuration while
// keeping its process, status and delivery-ring storage warm, which is
// what makes repeated-trial loops (and the RunBatch workers) cheap.
type Engine struct {
	cfg    Config
	procs  []*giraf.Proc
	auts   []giraf.Automaton
	status []ProcStatus
	// due is a ring of delivery slots indexed by absolute step modulo
	// len(due): slot at%len(due) holds exactly the deliveries scheduled
	// for step `at`. The invariant — every scheduled step lies in
	// (cur, cur+len(due)] where cur is the step currently executing — holds
	// because a policy's maximum delay bounds how far ahead an envelope can
	// be scheduled; schedule grows the ring when a delay exceeds the
	// window. Slot queues are truncated, not freed, on consumption, so
	// steady-state scheduling allocates nothing.
	due []dueSlot
	// stepNum is the global step currently executing (cur above).
	stepNum int
	metrics Metrics
	trace   *Trace
	// crash is the flattened crash schedule: crash[i] is the step at which
	// process i crashes, crashNever if it never does. Built once per Reset
	// so the hot loops test a slice element instead of probing the
	// scenario's map per call.
	crash []int
	// linkFaults is the scenario when it can lose, duplicate or partition a
	// delivery, nil otherwise (no scenario, or crashes only). Computed once
	// per Reset, it selects the delivery path: nil means uniform-delay
	// broadcasts collapse to fanOutAll entries and no delivery consults
	// Drops.
	linkFaults *env.Scenario
	// uniform is the policy's declaration of uniform rounds when it makes
	// one and linkFaults is nil, nil otherwise: a declared round's
	// broadcasts collapse without probing the DelayFn per receiver.
	uniform env.UniformReporter
	// countLate is set when a late delivery (delay ≥ 1) can have no effect
	// but its count: the run has no link faults and no trace, and every
	// automaton is giraf.RoundLocal. A round-local process drops an envelope
	// for a round it has computed, and by the step a late envelope arrives
	// every live receiver has computed its round or halted. Such a delivery
	// is then counted in its arrival step's slot instead of queued, and
	// deliverDue adds the count to Metrics.Deliveries.
	countLate bool
	// outs and senders are step's scratch buffers (the envelopes broadcast
	// and their senders, in process order), reused across steps.
	outs    []giraf.Envelope
	senders []int
	// shared serves deliverShared; sharedEnvs and receivers are its
	// scratch argument lists.
	shared     giraf.SharedRound
	sharedEnvs []*giraf.Envelope
	receivers  []*giraf.Proc
	// sharedAt is the last step whose round deliverShared delivered, 0 if
	// none; the white-box tests read it to see the shared path engage.
	sharedAt int
}

// crashNever marks a process with no scheduled crash.
const crashNever = int(^uint(0) >> 1)

// New builds an engine; it returns an error on invalid configuration.
func New(cfg Config) (*Engine, error) {
	e := &Engine{}
	if err := e.Reset(cfg); err != nil {
		return nil, err
	}
	return e, nil
}

// Reset rearms the engine for a new configuration, reusing process,
// status and delivery-ring storage from the previous run. A Reset engine
// behaves identically to a fresh New(cfg) one; only allocation behavior
// differs. It returns an error on invalid configuration, leaving the
// engine unusable until a successful Reset.
func (e *Engine) Reset(cfg Config) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	e.cfg = cfg
	if cap(e.procs) >= cfg.N {
		e.procs = e.procs[:cfg.N]
		e.auts = e.auts[:cfg.N]
		e.status = e.status[:cfg.N]
	} else {
		procs := make([]*giraf.Proc, cfg.N)
		copy(procs, e.procs)
		e.procs = procs
		e.auts = make([]giraf.Automaton, cfg.N)
		e.status = make([]ProcStatus, cfg.N)
	}
	for i := 0; i < cfg.N; i++ {
		e.auts[i] = cfg.Automaton(i)
		if e.procs[i] != nil {
			e.procs[i].Reset(e.auts[i])
		} else {
			e.procs[i] = giraf.NewProc(e.auts[i])
		}
	}
	clear(e.status)
	if e.due == nil {
		e.due = make([]dueSlot, dueRingHint)
	} else {
		for i := range e.due {
			e.due[i] = dueSlot{q: truncatePending(e.due[i].q)}
		}
	}
	if cap(e.crash) >= cfg.N {
		e.crash = e.crash[:cfg.N]
	} else {
		e.crash = make([]int, cfg.N)
	}
	for i := range e.crash {
		cs, ok := cfg.Scenario.CrashRound(i)
		if !ok {
			cs = crashNever
		}
		e.crash[i] = cs
	}
	e.linkFaults = nil
	if cfg.Scenario.HasLinkFaults() {
		e.linkFaults = cfg.Scenario
	}
	e.uniform = nil
	if u, ok := cfg.Policy.(env.UniformReporter); ok && e.linkFaults == nil {
		e.uniform = u
	}
	e.countLate = e.linkFaults == nil && !cfg.RecordTrace
	for _, a := range e.auts {
		if _, local := a.(giraf.RoundLocal); !local {
			e.countLate = false
		}
	}
	e.stepNum = 0
	e.sharedAt = 0
	e.metrics = Metrics{}
	e.trace = nil
	if cfg.RecordTrace {
		e.trace = newTrace(cfg.N)
	}
	return nil
}

// truncatePending empties a delivery slice for reuse, dropping envelope
// references so recycled slots don't pin payloads from finished runs.
// Clearing only [0:len) suffices: the region beyond len is either
// never-written or was zeroed by an earlier truncation, so a full-capacity
// clear would just rewrite zeros (which profiling showed dominating
// memclr time at n=256).
func truncatePending(s []pendingDelivery) []pendingDelivery {
	clear(s)
	return s[:0]
}

// slot returns the ring slot of absolute step at, growing the ring when
// the delay reaches beyond the current window.
func (e *Engine) slot(at int) *dueSlot {
	if at-e.stepNum > len(e.due) {
		e.growRing(at)
	}
	return &e.due[at%len(e.due)]
}

// schedule queues a delivery for absolute step at.
func (e *Engine) schedule(at int, d pendingDelivery) {
	s := e.slot(at)
	s.q = append(s.q, d)
}

// growRing widens the delivery window to cover step at, re-placing queued
// slots at their new indices. Slot i currently holds the unique step in
// (e.step, e.step+len(due)] congruent to i modulo the old length.
func (e *Engine) growRing(at int) {
	oldLen := len(e.due)
	newLen := oldLen * 2
	for at-e.stepNum > newLen {
		newLen *= 2
	}
	next := make([]dueSlot, newLen)
	for i, s := range e.due {
		step := e.stepNum + 1 + ((i-(e.stepNum+1))%oldLen+oldLen)%oldLen
		next[step%newLen] = s
	}
	e.due = next
}

// Proc returns the framework state of process i (for hooks and tests).
func (e *Engine) Proc(i int) *giraf.Proc { return e.procs[i] }

// Automaton returns the automaton of process i (for hooks and tests).
func (e *Engine) Automaton(i int) giraf.Automaton { return e.auts[i] }

// N returns the number of processes.
func (e *Engine) N() int { return e.cfg.N }

// Run executes the simulation and returns the result. Run must be called
// once per New or Reset.
func (e *Engine) Run() *Result {
	res, _ := e.RunContext(context.Background())
	return res
}

// RunContext is Run with cancellation: the engine checks ctx between
// global steps and, when it fires, abandons the run and returns an error
// wrapping ctx.Err(). A cancelled run returns a nil Result. The simulation
// itself stays deterministic — cancellation only decides whether it
// finishes.
func (e *Engine) RunContext(ctx context.Context) (*Result, error) {
	// Step 0: initialization end-of-round for every non-crashed process.
	e.step(0)
	allDone := false
	step := 1
	for ; step <= e.cfg.MaxRounds && !allDone; step++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("sim: run cancelled at step %d: %w", step, err)
		}
		e.stepNum = step
		e.deliverDue(step)
		e.step(step)
		if e.cfg.OnRound != nil {
			e.cfg.OnRound(step, e)
		}
		allDone = true
		for i := range e.procs {
			if step < e.crash[i] && !e.procs[i].Halted() {
				allDone = false
				break
			}
		}
	}
	rounds := step - 1
	for i, p := range e.procs {
		st := &e.status[i]
		st.LastRound = p.CurrentRound()
		if d := p.Decision(); d.Decided {
			st.Decided = true
			st.Decision = d.Value
		}
		if cs := e.crash[i]; cs <= rounds {
			st.Crashed = true
			st.CrashedAt = cs
		}
	}
	if e.trace != nil {
		e.trace.Rounds = rounds
	}
	// Statuses is a copy: the engine's own status storage is reused by
	// Reset, and a caller's Result must never mutate retroactively.
	statuses := make([]ProcStatus, len(e.status))
	copy(statuses, e.status)
	return &Result{
		Statuses: statuses,
		Rounds:   rounds,
		Metrics:  e.metrics,
		Trace:    e.trace,
	}, nil
}

// deliverDue counts the late deliveries counted for this step, merges all
// envelopes queued for it into receivers, and recycles the ring slot for
// step+len(due).
func (e *Engine) deliverDue(step int) {
	s := &e.due[step%len(e.due)]
	e.metrics.Deliveries += s.late
	s.late = 0
	if len(s.q) == 0 {
		return
	}
	e.deliver(step, s.q)
	s.q = truncatePending(s.q)
}

// deliver performs one step's deliveries. A timely round goes to every
// receiver at once (deliverShared); what remains goes through the engine's
// delivery loop. Per-receiver entries are delivered in queue order. A run
// of consecutive fan-out entries is delivered receiver by receiver, each
// receiver taking the run's envelopes in queue order, so its inbox stays
// hot while it merges them. Either way every receiver takes its envelopes
// in exactly the queue order, and receivers share no state, so their
// order among themselves is invisible to results.
func (e *Engine) deliver(step int, q []pendingDelivery) {
	sc := e.linkFaults
	q, delivered := e.deliverShared(step, q)
	dropped := 0
	for len(q) > 0 {
		if q[0].receiver == fanOutAll {
			// Collapsed uniform-delay broadcasts. Fan-out entries are only
			// scheduled when linkFaults == nil, so no drop check is needed.
			run := 1
			for run < len(q) && q[run].receiver == fanOutAll {
				run++
			}
			for r := 0; r < e.cfg.N; r++ {
				if step >= e.crash[r] {
					continue
				}
				p := e.procs[r]
				for i := range q[:run] {
					d := &q[i]
					if d.sender == r {
						continue
					}
					p.Receive(*d.env)
					delivered++
					if e.trace != nil {
						e.trace.recordDelivery(d.env.Round, d.sender, r, step)
					}
				}
			}
			q = q[run:]
			continue
		}
		d := &q[0]
		q = q[1:]
		r := d.receiver
		if step >= e.crash[r] {
			continue
		}
		// Scenario loss and partitions act at delivery time: the envelope
		// was broadcast and scheduled, it just never arrives.
		if sc != nil && sc.Drops(d.env.Round, d.sender, r) {
			dropped++
			continue
		}
		e.procs[r].Receive(*d.env)
		delivered++
		if e.trace != nil {
			e.trace.recordDelivery(d.env.Round, d.sender, r, step)
		}
	}
	e.metrics.Deliveries += delivered
	e.metrics.Dropped += dropped
}

// deliverShared delivers step's timely round in one piece when the queue
// allows it: every round-step entry is a fan-out entry, and every live,
// non-halted process is one of their senders. Then every receiver takes the
// same envelopes in the same order (its own excepted), and
// giraf.SharedRound applies them to all receivers at once. Entries of
// earlier rounds touch only computed rounds' state, so taking the round's
// entries out of the queue changes nothing they do. It returns the queue
// without the entries it delivered and the number of deliveries made, or
// q and 0 when the round is not shared.
func (e *Engine) deliverShared(step int, q []pendingDelivery) ([]pendingDelivery, int) {
	envs, recv, ok := e.sharedArgs(step, q)
	ok = ok && e.shared.Deliver(step, envs, recv)
	clear(envs) // the envelope arrays must not outlive their queue entries
	e.sharedEnvs, e.receivers = envs[:0], recv[:0]
	if !ok {
		return q, 0
	}
	// Every live receiver takes every envelope but its own, and only the
	// non-halted ones sent one.
	delivered := 0
	for r, p := range e.procs {
		if step >= e.crash[r] {
			continue
		}
		delivered += len(envs)
		if !p.Halted() {
			delivered--
		}
		if e.trace != nil {
			for i := range q {
				if d := &q[i]; d.receiver == fanOutAll && d.env.Round == step && d.sender != r {
					e.trace.recordDelivery(step, d.sender, r, step)
				}
			}
		}
	}
	e.sharedAt = step
	e.metrics.MergesSkipped += delivered
	rest := q[:0]
	for _, d := range q {
		if d.receiver != fanOutAll || d.env.Round != step {
			rest = append(rest, d)
		}
	}
	return rest, delivered
}

// sharedArgs collects deliverShared's arguments: the round-step envelopes
// in queue order and the live receivers. ok is false when some round-step
// entry is per-receiver, there is none, or some live, non-halted process
// sent none of them.
func (e *Engine) sharedArgs(step int, q []pendingDelivery) (envs []*giraf.Envelope, recv []*giraf.Proc, ok bool) {
	envs, recv = e.sharedEnvs[:0], e.receivers[:0]
	senders, active := 0, 0 // live senders, live non-halted processes
	for i := range q {
		d := &q[i]
		if d.env.Round != step {
			continue
		}
		if d.receiver != fanOutAll {
			return envs, recv, false
		}
		envs = append(envs, d.env)
		if step < e.crash[d.sender] {
			senders++
		}
	}
	for r, p := range e.procs {
		if step < e.crash[r] {
			recv = append(recv, p)
			if !p.Halted() {
				active++
			}
		}
	}
	// A round-step sender ran its end-of-round at step-1 without halting,
	// so a live one is still non-halted: the senders include every live,
	// non-halted process exactly when the two counts match.
	return envs, recv, len(envs) > 0 && senders == active
}

// step runs the end-of-round for every live process and schedules the
// resulting broadcasts with policy-chosen delays.
func (e *Engine) step(step int) {
	outs := e.outs[:0]
	senders := e.senders[:0]
	for i, p := range e.procs {
		if step >= e.crash[i] || p.Halted() {
			continue
		}
		env, ok := p.EndOfRound()
		if step >= 1 && e.trace != nil {
			// The process consumed M[step] in this end-of-round (whether it
			// decided or not), so it counts as a round-step receiver for the
			// environment checkers.
			e.trace.recordComputed(i, step)
		}
		if p.Halted() {
			if d := p.Decision(); d.Decided {
				e.status[i].Decided = true
				e.status[i].Decision = d.Value
				e.status[i].DecidedAt = step
				if e.trace != nil {
					e.trace.recordDecision(i, step, d.Value)
				}
			}
			continue
		}
		if !ok {
			continue
		}
		outs = append(outs, env)
		senders = append(senders, i)
	}
	// Keep grown capacity for the next step.
	e.outs, e.senders = outs, senders
	if len(outs) == 0 {
		return
	}
	// The queue entries point into envs, which lives as long as they do;
	// the scratch copies are dropped so they do not pin payloads.
	envs := slices.Clone(outs)
	clear(outs)
	round := envs[0].Round // == step+1 for all senders (lockstep)
	delay := e.cfg.Policy.Schedule(round, senders, e.cfg.N)
	d0, declared := 0, false
	if e.uniform != nil {
		d0, declared = e.uniform.UniformDelay(round)
	}
	for i, sender := range senders {
		env := &envs[i]
		if e.trace != nil {
			e.trace.recordBroadcast(round, sender)
		}
		size := envelopeBytes(env)
		e.metrics.Broadcasts++
		e.metrics.PayloadBytes += size
		if size > e.metrics.MaxEnvelopeBytes {
			e.metrics.MaxEnvelopeBytes = size
		}
		// Fan-out collapse: in runs without link faults, if every receiver of
		// this sender has the same delay, schedule one fanOutAll entry
		// instead of n-1 per-receiver ones. A round the policy declares
		// uniform (Synchronous, ES from GST on) needs no probe; otherwise the
		// DelayFn is probed per receiver — it is pure per round (policies
		// pre-draw their delay matrices), so probing it twice is safe.
		if e.linkFaults == nil && e.cfg.N > 1 {
			d, uniform := d0, declared
			if !uniform {
				d, uniform = uniformDelay(delay, sender, e.cfg.N)
			}
			if uniform {
				if d < 0 {
					panic(fmt.Sprintf("sim: policy returned negative delay %d", d))
				}
				if d > 0 && e.countLate {
					e.slot(round + d).late += e.liveReceivers(round+d, sender)
					continue
				}
				e.schedule(round+d, pendingDelivery{receiver: fanOutAll, sender: sender, env: env})
				continue
			}
		}
		for r := 0; r < e.cfg.N; r++ {
			if r == sender {
				continue // own payload is already in own inbox (Alg. 1 line 10)
			}
			d := delay(sender, r)
			if d < 0 {
				panic(fmt.Sprintf("sim: policy returned negative delay %d", d))
			}
			at := round + d
			if d > 0 && e.countLate {
				if at < e.crash[r] {
					e.slot(at).late++
				}
				continue
			}
			e.schedule(at, pendingDelivery{receiver: r, sender: sender, env: env})
			// Scenario duplication: the same envelope is delivered a second
			// time one step later, so the receiver's inbox dedup is
			// exercised by a genuinely late duplicate. A delivery the
			// scenario drops has no duplicate (no point queueing copies
			// deliverDue would discard again).
			if sc := e.linkFaults; sc != nil {
				if _, dup := sc.LinkFault(round, sender, r); dup {
					e.metrics.Duplicated++
					e.schedule(at+1, pendingDelivery{receiver: r, sender: sender, env: env})
				}
			}
		}
	}
	if e.trace != nil {
		if sp, ok := e.cfg.Policy.(env.SourceReporter); ok {
			if s, ok := sp.Source(round); ok {
				e.trace.recordClaimedSource(round, s)
			}
		}
	}
}

// liveReceivers is the number of processes other than sender that are
// live at step at: the deliveries a fan-out entry arriving then would make.
func (e *Engine) liveReceivers(at, sender int) int {
	live := 0
	for r, cs := range e.crash {
		if r != sender && at < cs {
			live++
		}
	}
	return live
}

// uniformDelay reports whether delay assigns every receiver of sender the
// same delay, returning that delay. With fewer than two receivers there is
// nothing to deliver and the caller's guard keeps this unreached for n<=1.
func uniformDelay(delay env.DelayFn, sender, n int) (int, bool) {
	d0 := -1
	for r := 0; r < n; r++ {
		if r == sender {
			continue
		}
		d := delay(sender, r)
		if d0 < 0 {
			d0 = d
			continue
		}
		if d != d0 {
			return 0, false
		}
	}
	return d0, true
}

// envelopeBytes is the canonical-encoding size of one envelope: 8 bytes of
// round number plus each payload's canonical key length.
func envelopeBytes(env *giraf.Envelope) int {
	total := 8 // round number
	for _, p := range env.Payloads {
		total += p.PayloadEncodedSize()
	}
	return total
}

// Run is a convenience wrapper: build an engine and run it.
func Run(cfg Config) (*Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run with cancellation between global steps.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	e, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return e.RunContext(ctx)
}
