package workload

import (
	"context"
	"fmt"

	"anonconsensus/internal/core"
	"anonconsensus/internal/env"
	"anonconsensus/internal/sim"
)

// Outcome classifies what the service plane did with one proposal.
type Outcome int

// Proposal outcomes.
const (
	// OK: the proposal was admitted, queued, served, and its instance ran
	// to completion.
	OK Outcome = iota + 1
	// ShedAdmission: the admission token bucket was empty — the proposal
	// was fast-rejected before touching the backlog.
	ShedAdmission
	// ShedQueue: the proposal spent a token (when admission is on) but
	// found the backlog full. The open-loop client never blocks, so a full
	// queue is always a shed, mirroring the Node's fast-reject contract.
	ShedQueue
	// Errored: the instance was accepted but its run failed (live drives
	// only — the virtual plane's simulator runs cannot fail).
	Errored
)

// String implements fmt.Stringer (canonical trace token).
func (o Outcome) String() string {
	switch o {
	case OK:
		return "ok"
	case ShedAdmission:
		return "shed-admit"
	case ShedQueue:
		return "shed-queue"
	case Errored:
		return "err"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// ParseOutcome is String's inverse.
func ParseOutcome(s string) (Outcome, error) {
	switch s {
	case "ok":
		return OK, nil
	case "shed-admit":
		return ShedAdmission, nil
	case "shed-queue":
		return ShedQueue, nil
	case "err":
		return Errored, nil
	default:
		return 0, fmt.Errorf("workload: unknown outcome %q", s)
	}
}

// Record is one proposal's fate: its arrival, the service plane's
// admission outcome, and — for served proposals — its latency breakdown
// and consensus result.
type Record struct {
	Arrival
	// Outcome is the admission outcome.
	Outcome Outcome
	// WaitUS is the time spent queued before a server picked the proposal
	// up; SvcUS the service time (rounds × RoundUS on the virtual plane);
	// LatUS the decision latency, WaitUS + SvcUS. All zero for shed
	// proposals.
	WaitUS, SvcUS, LatUS int64
	// Rounds is the instance's simulated round count (0 for bucket-shed
	// proposals, whose instance never ran).
	Rounds int
	// DecidedProcs counts the instance's processes that decided; Agreed
	// reports whether all deciders agreed.
	DecidedProcs int
	Agreed       bool
}

// Mode says how a Result's records were obtained.
type Mode int

// Result modes.
const (
	// Virtual: the deterministic virtual-time service model over the
	// simulator — replayable end to end.
	Virtual Mode = iota + 1
	// Live: wall-clock measurements of a real Node (recorded by the root
	// package's RunWorkload). Replay recomputes the report from the
	// recorded measurements; it does not re-execute the queueing model.
	Live
)

// String implements fmt.Stringer (canonical trace token).
func (m Mode) String() string {
	switch m {
	case Virtual:
		return "virtual"
	case Live:
		return "live"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// ParseMode is String's inverse.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "virtual":
		return Virtual, nil
	case "live":
		return Live, nil
	default:
		return 0, fmt.Errorf("workload: unknown mode %q", s)
	}
}

// Result is one executed (or replayed) workload: the normalized spec and
// every proposal's record, in arrival order.
type Result struct {
	Mode    Mode
	Spec    Spec
	Records []Record
}

// LiveResult packages records measured against a real Node (the root
// package's RunWorkload) into a Result, so the live and virtual planes
// share one report and trace form.
func LiveResult(spec Spec, records []Record) *Result {
	return &Result{Mode: Live, Spec: spec.normalize(), Records: records}
}

// Run executes the workload on the deterministic virtual plane: it
// generates the arrival schedule, runs every admitted proposal's
// consensus instance on the simulator (fanned over sim.RunBatch —
// Spec.Parallelism trades wall-clock for cores, never output), and pushes
// the arrivals through the virtual service model. The Result is a pure
// function of the spec.
func Run(ctx context.Context, spec Spec) (*Result, error) {
	arrivals, err := Generate(spec)
	if err != nil {
		return nil, err
	}
	spec = spec.normalize()

	records := make([]Record, len(arrivals))
	for i, a := range arrivals {
		records[i] = Record{Arrival: a}
	}
	// Admission is decided first: the token bucket is a pure function of
	// the arrival times (every arrival that reaches it spends a token,
	// even one the full queue then sheds — mirroring the Node, where the
	// token is spent before the enqueue attempt).
	admitted := applyAdmission(spec, records)

	// Simulate every bucket-admitted proposal's instance. Queue sheds are
	// not known yet — they depend on earlier service times — so a
	// queue-shed proposal's run is computed and then discarded, which
	// keeps the sim fan-out a pure function of the arrival schedule.
	cfgs := make([]sim.Config, len(admitted))
	for j, i := range admitted {
		cfgs[j] = instanceConfig(&spec.Classes[records[i].Class], records[i].Seed)
	}
	simResults, err := sim.RunBatch(ctx, cfgs, sim.BatchOpts{Parallelism: spec.Parallelism})
	if err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	for j, i := range admitted {
		res := simResults[j]
		rec := &records[i]
		rec.Rounds = res.Rounds
		rec.SvcUS = int64(res.Rounds) * spec.RoundUS
		for _, st := range res.Statuses {
			if st.Decided {
				rec.DecidedProcs++
			}
		}
		rec.Agreed = res.CheckAgreement() == nil
	}

	applyQueueing(spec, records)
	return &Result{Mode: Virtual, Spec: spec, Records: records}, nil
}

// instanceConfig builds one proposal's simulator configuration.
func instanceConfig(c *Class, seed int64) sim.Config {
	var policy env.Policy
	if c.Alg == ESS {
		policy = &env.ESS{GST: c.GST, StableSource: c.StableSource, Pre: env.MS{Seed: seed}}
	} else {
		policy = &env.ES{GST: c.GST, Pre: env.MS{Seed: seed}}
	}
	opts := core.RunOpts{Policy: policy, MaxRounds: c.MaxRounds}
	if c.Scenario != nil {
		sc := c.Scenario.Clone()
		sc.Seed = seed
		opts.Scenario = sc
	}
	if c.Alg == ESS {
		return core.ConfigESS(core.DistinctProposals(c.N), opts)
	}
	return core.ConfigES(core.DistinctProposals(c.N), opts)
}

// applyAdmission runs the virtual token bucket over the arrivals, marking
// bucket sheds, and returns the indexes that passed (in arrival order).
func applyAdmission(spec Spec, records []Record) []int {
	admitted := make([]int, 0, len(records))
	if spec.AdmitRate <= 0 {
		for i := range records {
			admitted = append(admitted, i)
		}
		return admitted
	}
	tokens := float64(spec.AdmitBurst)
	lastUS := int64(0)
	for i := range records {
		t := records[i].TimeUS
		tokens += float64(t-lastUS) / 1e6 * spec.AdmitRate
		if tokens > float64(spec.AdmitBurst) {
			tokens = float64(spec.AdmitBurst)
		}
		lastUS = t
		if tokens >= 1 {
			tokens--
			admitted = append(admitted, i)
		} else {
			records[i].Outcome = ShedAdmission
		}
	}
	return admitted
}

// applyQueueing pushes the bucket-admitted proposals through the virtual
// service plane — Servers concurrent servers draining a FIFO backlog of
// capacity QueueDepth — filling in each record's outcome and latency
// breakdown. An arrival that finds QueueDepth proposals already waiting
// is shed (the open-loop client never blocks on a full queue).
func applyQueueing(spec Spec, records []Record) {
	free := newServerHeap(spec.Servers)
	// starts holds the computed start times of admitted-but-not-yet-
	// started proposals; its live window is the virtual backlog.
	type pending struct{ startUS int64 }
	var backlog []pending
	head := 0
	for i := range records {
		rec := &records[i]
		if rec.Outcome == ShedAdmission {
			continue
		}
		t := rec.TimeUS
		// Drain proposals whose service has begun by now.
		for head < len(backlog) && backlog[head].startUS <= t {
			head++
		}
		if len(backlog)-head >= spec.QueueDepth {
			// A shed proposal's instance never ran on the service plane:
			// every run-derived field is zeroed, including the simulated
			// rounds computed speculatively before the queue decision.
			rec.Outcome = ShedQueue
			rec.WaitUS, rec.SvcUS, rec.LatUS = 0, 0, 0
			rec.Rounds, rec.DecidedProcs, rec.Agreed = 0, 0, false
			continue
		}
		start := free.min()
		if start < t {
			start = t
		}
		free.replaceMin(start + rec.SvcUS)
		backlog = append(backlog, pending{startUS: start})
		rec.Outcome = OK
		rec.WaitUS = start - t
		rec.LatUS = rec.WaitUS + rec.SvcUS
	}
}

// serverHeap is a tiny min-heap over the servers' next-free instants.
type serverHeap struct{ at []int64 }

func newServerHeap(k int) *serverHeap {
	if k < 1 {
		k = 1
	}
	return &serverHeap{at: make([]int64, k)}
}

func (h *serverHeap) min() int64 { return h.at[0] }

// replaceMin replaces the root and sifts down.
func (h *serverHeap) replaceMin(v int64) {
	h.at[0] = v
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h.at) && h.at[l] < h.at[smallest] {
			smallest = l
		}
		if r < len(h.at) && h.at[r] < h.at[smallest] {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.at[i], h.at[smallest] = h.at[smallest], h.at[i]
		i = smallest
	}
}
