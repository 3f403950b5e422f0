package property

import (
	"fmt"
	"slices"
	"sync"

	"anonconsensus/internal/giraf"
	"anonconsensus/internal/ordered"
	"anonconsensus/internal/values"
)

// Record is what the moving-source property is judged on, round by round:
// the ids of the round-k messages that were sent and, for each process that
// computed round k, the ids it held when it did. An id names a message the
// way its plane can: the sender's index on the simulator, the payload's
// fingerprint where processes are anonymous (footnote 2's payload
// containment: a source's own payload is in every computing inbox). The
// zero Record is empty and ready; it is not safe for concurrent use.
type Record[ID comparable] struct {
	rounds []msRound[ID] // rounds[k] is round k; rounds[0] stays empty
}

type msRound[ID comparable] struct {
	sent     []ID
	computed map[int]bool
	held     map[int]map[ID]bool
}

func (r *Record[ID]) at(k int) *msRound[ID] {
	for len(r.rounds) <= k {
		r.rounds = append(r.rounds, msRound[ID]{computed: map[int]bool{}, held: map[int]map[ID]bool{}})
	}
	return &r.rounds[k]
}

// round returns round k, empty if nothing was recorded for it.
func (r *Record[ID]) round(k int) msRound[ID] {
	if k < 0 || k >= len(r.rounds) {
		return msRound[ID]{}
	}
	return r.rounds[k]
}

// Send records that a round-k message named id was sent.
func (r *Record[ID]) Send(k int, id ID) {
	rd := r.at(k)
	rd.sent = append(rd.sent, id)
}

// Compute records that proc computed round k.
func (r *Record[ID]) Compute(k, proc int) { r.at(k).computed[proc] = true }

// Hold records that proc holds the round-k message id. It counts only if
// proc computes round k.
func (r *Record[ID]) Hold(k, proc int, id ID) {
	held := r.at(k).held
	if held[proc] == nil {
		held[proc] = make(map[ID]bool)
	}
	held[proc][id] = true
}

// Sent returns the ids of the round-k messages, in the order they were sent.
func (r *Record[ID]) Sent(k int) []ID { return r.round(k).sent }

// Computed returns the processes that computed round k, sorted.
func (r *Record[ID]) Computed(k int) []int { return ordered.Keys(r.round(k).computed) }

// Held returns the ids proc held for round k; the map must not be changed.
func (r *Record[ID]) Held(k, proc int) map[ID]bool { return r.round(k).held[proc] }

// Sources returns the sent round-k ids that every one of procs holds.
func (r *Record[ID]) Sources(k int, procs []int) []ID {
	var out []ID
	for _, id := range r.Sent(k) {
		if !slices.ContainsFunc(procs, func(p int) bool { return !r.rounds[k].held[p][id] }) {
			out = append(out, id)
		}
	}
	return out
}

// Rounds returns the last round anything was recorded for, or 0.
func (r *Record[ID]) Rounds() int { return max(len(r.rounds)-1, 0) }

// CheckMS is the moving-source property (§2.3), the one statement of it:
// in every round k ≤ through that some process computed, some sent
// round-k message is held by every process that computed k. A sender
// that crashed after sending still counts; a round nobody computed, such
// as a final one whose messages were sent, carries no obligation. The
// error names the smallest round without such a source.
func CheckMS[ID comparable](r *Record[ID], through int) error {
	for k := 1; k <= min(through, r.Rounds()); k++ {
		if procs := r.Computed(k); len(procs) > 0 && len(r.Sources(k, procs)) == 0 {
			return fmt.Errorf("MS violated in round %d: no round-%d message reached all of %v", k, k, procs)
		}
	}
	return nil
}

// Recorder fills a Record from the automata of one run, on any plane: it
// wraps an automaton factory, and each wrapped automaton logs its
// Initialize and Compute outputs as the messages it sent and, at
// Compute(k), inbox.Round(k) as the messages it held. Ids are payload
// fingerprints. It is safe for concurrent use by the run's processes; read
// Record once the run is over.
type Recorder struct {
	Record Record[values.Fingerprint]
	aut    func(i int) giraf.Automaton
	mu     sync.Mutex
}

// NewRecorder wraps the automaton factory aut.
func NewRecorder(aut func(i int) giraf.Automaton) *Recorder {
	return &Recorder{aut: aut}
}

// Automaton builds process i's automaton, wrapped. The wrapper keeps the
// automaton's giraf.RoundLocal marker, or its lack of one.
func (r *Recorder) Automaton(i int) giraf.Automaton {
	a := r.aut(i)
	w := recorded{a, i, r}
	if _, ok := a.(giraf.RoundLocal); ok {
		return localRecorded{w}
	}
	return w
}

type recorded struct {
	giraf.Automaton
	proc int
	r    *Recorder
}

func (w recorded) Initialize() giraf.Payload {
	pay := w.Automaton.Initialize()
	w.r.mu.Lock()
	defer w.r.mu.Unlock()
	w.r.Record.Send(1, pay.PayloadFingerprint())
	return pay
}

func (w recorded) Compute(k int, in giraf.Inbox) (giraf.Payload, giraf.Decision) {
	pay, dec := w.Automaton.Compute(k, in)
	w.r.mu.Lock()
	defer w.r.mu.Unlock()
	w.r.Record.Compute(k, w.proc)
	for _, p := range in.Round(k) {
		w.r.Record.Hold(k, w.proc, p.PayloadFingerprint())
	}
	if !dec.Decided { // a deciding process halts: pay is never sent
		w.r.Record.Send(k+1, pay.PayloadFingerprint())
	}
	return pay, dec
}

// localRecorded is a recorded round-local automaton: the process still
// recycles a round once computed and still takes shared rounds.
type localRecorded struct{ recorded }

func (localRecorded) ReadsOnlyRound() {}
