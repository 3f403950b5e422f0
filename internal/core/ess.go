package core

import (
	"fmt"

	"anonconsensus/internal/giraf"
	"anonconsensus/internal/values"
)

// ESSPayload is the wire payload of Algorithm 3: ⟨PROPOSED, HISTORY, C⟩.
// Its key is the three parts' keys joined by '|'; its fingerprint and size
// are computed from the parts without building it.
//
// Build instances with MakeESSPayload where possible: it computes the
// fingerprint once, at construction. A zero/literal ESSPayload still
// works — it just hashes its parts on every call.
type ESSPayload struct {
	Proposed values.Set
	History  values.History
	Counters values.Counters

	fp values.Fingerprint // the key's; zero in a literal
}

var _ giraf.Payload = ESSPayload{}

// MakeESSPayload builds a payload with its fingerprint computed.
func MakeESSPayload(proposed values.Set, history values.History, counters values.Counters) ESSPayload {
	p := ESSPayload{Proposed: proposed, History: history, Counters: counters}
	p.fp = p.fingerprint()
	return p
}

// fingerprint hashes the key's bytes, streamed from the three parts.
func (p ESSPayload) fingerprint() values.Fingerprint {
	var h values.Hasher
	p.Proposed.WriteKey(&h)
	_ = h.WriteByte('|')
	p.History.WriteKey(&h)
	_ = h.WriteByte('|')
	p.Counters.WriteKey(&h)
	return h.Sum()
}

// PayloadKey implements giraf.Payload: the canonical encoding of all three
// components. Two anonymous processes in identical states broadcast
// identical payloads and collapse to one inbox element.
func (p ESSPayload) PayloadKey() string {
	return p.Proposed.Key() + "|" + p.History.Key() + "|" + p.Counters.Key()
}

// PayloadFingerprint implements giraf.Payload.
func (p ESSPayload) PayloadFingerprint() values.Fingerprint {
	if p.fp.IsZero() {
		return p.fingerprint()
	}
	return p.fp
}

// PayloadEncodedSize implements giraf.Payload: the parts' sizes and the
// two separators.
func (p ESSPayload) PayloadEncodedSize() int {
	return p.Proposed.EncodedSize() + 1 + p.History.EncodedSize() + 1 + p.Counters.EncodedSize()
}

// String implements fmt.Stringer.
func (p ESSPayload) String() string {
	return fmt.Sprintf("⟨%s, %s, %s⟩", p.Proposed, p.History, p.Counters)
}

// ESS is Algorithm 3: consensus in the eventually-stable-source
// environment, built on the pseudo leader election over proposal histories.
// One instance per process; not safe for concurrent use.
type ESS struct {
	val        values.Value
	counters   values.Counters
	history    values.History
	written    values.Set
	writtenOld values.Set
	proposed   values.Set

	// sets, ctrs and hists are the round-k messages' components and ctrb
	// the table lines 8–9 are built in: Compute's scratch, reused across
	// rounds.
	sets  []values.Set
	ctrs  []values.Counters
	hists []values.History
	ctrb  values.CountersBuilder

	// wasLeader records the outcome of the last leader check (line 15),
	// for the convergence experiments (T4, F2).
	wasLeader bool

	// literalNesting reproduces the broken literal reading of the HAL
	// preprint's flat indentation (lines 15–20 nested inside the even-round
	// else-if). See NewESSLiteral.
	literalNesting bool
}

var (
	_ giraf.Automaton  = (*ESS)(nil)
	_ giraf.RoundLocal = (*ESS)(nil)
)

// NewESS returns a process automaton proposing v. It panics if v is not a
// valid proposal.
func NewESS(v values.Value) *ESS {
	if !v.Valid() {
		panic(fmt.Sprintf("core.NewESS: invalid initial value %q", string(v)))
	}
	return &ESS{
		val:        v,
		counters:   values.NewCounters(),
		history:    values.NewHistory(v),
		written:    values.NewSet(),
		writtenOld: values.NewSet(),
		proposed:   values.NewSet(),
		wasLeader:  true, // everybody starts considering itself a leader
	}
}

// NewESSLiteral builds the *broken* variant in which lines 15–20 are all
// nested inside the even-round else-if, as a flat reading of the preprint's
// pseudo-code indentation suggests. That reading makes WRITTENOLD^k =
// WRITTEN^(k−2) (Lemma 2's proof requires WRITTEN^(k−1)), and stops leaders
// from proposing when nothing non-⊥ was written (Lemma 7's proof requires
// "leaders propose their values always"). It violates Agreement on some MS
// schedules and deadlocks in an all-⊥ state on some ESS schedules. It
// exists only as an ablation documenting that the proof-derived nesting is
// load-bearing (DESIGN.md §3 note 3).
func NewESSLiteral(v values.Value) *ESS {
	a := NewESS(v)
	a.literalNesting = true
	return a
}

// stepLeaderProposal runs lines 15–18: leaders (or processes whose PROPOSED
// already collapsed to {VAL, ⊥}) propose their value; everybody else
// proposes ⊥ so the current source's value still reaches everyone.
func (a *ESS) stepLeaderProposal() {
	a.wasLeader = a.counters.IsMaximal(a.history)
	if a.wasLeader || a.proposedOnlyValOrBot() {
		a.proposed = values.NewSet(a.val) // line 16
	} else {
		a.proposed = values.NewSet(values.Bot) // line 18
	}
}

// ReadsOnlyRound implements giraf.RoundLocal: Compute(k) reads Round(k)
// alone.
func (*ESS) ReadsOnlyRound() {}

// proposedOnlyValOrBot reports PROPOSED ⊆ {VAL, ⊥} (lines 11 and 15)
// without building the two-element set.
func (a *ESS) proposedOnlyValOrBot() bool {
	in := 0
	if a.proposed.Contains(a.val) {
		in++
	}
	if a.proposed.Contains(values.Bot) {
		in++
	}
	return in == a.proposed.Len()
}

// Initialize implements giraf.Automaton (Algorithm 3 lines 1–4). As in
// Algorithm 2 the initial payload carries {VAL} (DESIGN.md §3 note 1).
//
// Payloads share the automaton's history and counter table: both are only
// ever reassigned, never mutated in place once returned, as are the state
// sets.
func (a *ESS) Initialize() giraf.Payload {
	return MakeESSPayload(values.NewSet(a.val), a.history, a.counters)
}

// essAgg is what a round's payload set alone determines for Algorithm 3:
// WRITTEN (line 6), the union of line 7 and the counter table after lines
// 8–9.
type essAgg struct {
	written  values.Set
	union    values.Set
	counters values.Counters
}

// aggregate computes lines 6–9's pure functions of the round's payload
// set: WRITTEN, the union of the PROPOSED sets, and the counter table after
// the merge and the bumps. The round's histories all have length k, so
// the bumps commute and the inbox order does not matter (DESIGN.md §3
// note 8).
func (a *ESS) aggregate(msgs []giraf.Payload) essAgg {
	a.sets, a.ctrs, a.hists = a.sets[:0], a.ctrs[:0], a.hists[:0]
	for _, m := range msgs {
		// Foreign-family payloads (a shared hub replaying another run) are
		// ignored, not fatal: crash-fault model.
		if p, ok := m.(ESSPayload); ok {
			a.sets = append(a.sets, p.Proposed)
			a.ctrs = append(a.ctrs, p.Counters)
			a.hists = append(a.hists, p.History)
		}
	}
	return essAgg{
		written: values.IntersectAll(a.sets), // line 6
		union:   values.UnionAll(a.sets),     // line 7's ∪ m.PROPOSED
		// Lines 8–9: C := min-merge of the m.C, then ∀m,
		// C[m.HISTORY] := 1 + max{C[H] | H prefix of m.HISTORY}.
		counters: a.ctrb.MinMergeBump(a.ctrs, a.hists),
	}
}

// Compute implements giraf.Automaton (Algorithm 3 lines 5–22).
func (a *ESS) Compute(k int, inbox giraf.Inbox) (giraf.Payload, giraf.Decision) {
	// Lines 6–9 depend on the round's payload set alone, so they are
	// computed once per shared round (see roundAggregate).
	agg := roundAggregate(k, inbox, a.aggregate)
	// Line 6: WRITTEN := ∩ m.PROPOSED.
	a.written = agg.written
	// Line 7: PROPOSED := (∪ m.PROPOSED) ∪ PROPOSED, the union itself when
	// PROPOSED adds nothing to it.
	a.proposed = agg.union.Union(a.proposed)
	// Lines 8–9.
	a.counters = agg.counters

	if k%2 == 0 {
		// Line 11: if WRITTENOLD = {VAL} ∧ PROPOSED ⊆ {VAL, ⊥} then decide.
		if a.writtenOld.IsExactly(a.val) && a.proposedOnlyValOrBot() {
			return nil, giraf.Decision{Decided: true, Value: a.val}
		}
		// Lines 13–14: adopt the maximum written value, if any.
		if nonBot := a.written.Without(values.Bot); !nonBot.IsEmpty() {
			max, _ := nonBot.Max()
			a.val = max
			if a.literalNesting {
				// Broken flat reading: lines 15–19 nested under the else-if.
				a.stepLeaderProposal()
				a.writtenOld = a.written
			}
		}
		if !a.literalNesting {
			// Lines 15–18 execute every even round, NOT only when something
			// non-⊥ was written: Lemma 7's proof needs "leaders propose
			// their values always". Gating them under line 13 deadlocks the
			// system in an all-⊥ state once every process proposed ⊥ in the
			// same even round (DESIGN.md §3 note 3).
			a.stepLeaderProposal()
		}
	}
	// Lines 19–20 execute every round: WRITTENOLD must always hold the
	// previous round's WRITTEN — Lemma 2's proof ("it has had v in WRITTEN
	// in the same odd round k−1") depends on it, and the even-round-only
	// placement demonstrably violates Agreement (DESIGN.md §3 note 3).
	if !a.literalNesting {
		a.writtenOld = a.written // line 19
		a.written = a.proposed   // line 20 (no observable effect; kept faithful)
	}
	// Line 21: append VAL to HISTORY (every round).
	a.history = a.history.Append(a.val)
	// Line 22.
	return MakeESSPayload(a.proposed, a.history, a.counters), giraf.Decision{}
}

// Val returns the current estimate.
func (a *ESS) Val() values.Value { return a.val }

// History returns the process's proposal history (an immutable chain).
func (a *ESS) History() values.History { return a.history }

// IsLeader reports whether the process considered itself a leader at its
// last even-round check (line 15); true initially.
func (a *ESS) IsLeader() bool { return a.wasLeader }

// LeaderNow evaluates the leader predicate of Definition leader(k) against
// the current counter table: C[HISTORY] ≥ C[H] for all H. Experiments use
// it to sample the leader set per round (T4, F2).
func (a *ESS) LeaderNow() bool { return a.counters.IsMaximal(a.history) }

// Counters returns the counter table (for tests and metrics). Tables are
// immutable, so the caller's copy is its own.
func (a *ESS) Counters() values.Counters { return a.counters }

// Proposed returns the current PROPOSED set (for tests).
func (a *ESS) Proposed() values.Set { return a.proposed }

// Written returns the last line-6 WRITTEN set (for tests).
func (a *ESS) Written() values.Set { return a.written }

// WrittenOld returns WRITTENOLD (for tests).
func (a *ESS) WrittenOld() values.Set { return a.writtenOld }
