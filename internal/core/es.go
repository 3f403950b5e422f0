package core

import (
	"fmt"

	"anonconsensus/internal/giraf"
	"anonconsensus/internal/values"
)

// SetPayload is the wire payload of Algorithm 2 (and Algorithm 4): the
// broadcast PROPOSED set. Its canonical key and fingerprint are cached
// inside the set itself, so framework-side identity checks are O(1).
type SetPayload struct {
	Proposed values.Set
}

var (
	_ giraf.Payload       = SetPayload{}
	_ giraf.Fingerprinted = SetPayload{}
	_ giraf.PayloadSizer  = SetPayload{}
)

// PayloadKey implements giraf.Payload.
func (p SetPayload) PayloadKey() string { return p.Proposed.Key() }

// PayloadFingerprint implements giraf.Fingerprinted.
func (p SetPayload) PayloadFingerprint() values.Fingerprint { return p.Proposed.Fingerprint() }

// PayloadEncodedSize implements giraf.PayloadSizer via the set's cached
// encoded size — the key string is never built just to be measured.
func (p SetPayload) PayloadEncodedSize() int { return p.Proposed.EncodedSize() }

// String implements fmt.Stringer.
func (p SetPayload) String() string { return p.Proposed.String() }

// ES is Algorithm 2: consensus in the eventually synchronous environment.
// One instance per process; not safe for concurrent use (the framework
// serializes calls).
type ES struct {
	val        values.Value
	written    values.Set
	writtenOld values.Set
	proposed   values.Set

	// sets is Compute's scratch buffer of round-k message sets, reused
	// across rounds.
	sets []values.Set

	// literalNesting reproduces the broken literal reading of the
	// preprint's flat indentation (line 14 nested in the even-round
	// else-if); see NewESLiteral.
	literalNesting bool
}

var (
	_ giraf.Automaton  = (*ES)(nil)
	_ giraf.RoundLocal = (*ES)(nil)
)

// NewES returns a process automaton proposing v. It panics if v is not a
// valid proposal (empty or the reserved ⊥).
func NewES(v values.Value) *ES {
	if !v.Valid() {
		panic(fmt.Sprintf("core.NewES: invalid initial value %q", string(v)))
	}
	return &ES{
		val:        v,
		written:    values.NewSet(),
		writtenOld: values.NewSet(),
		proposed:   values.NewSet(),
	}
}

// NewESLiteral builds the *broken* variant that updates WRITTENOLD only in
// even rounds (the literal flat reading of Algorithm 2's line 14). It
// violates Agreement on some moving-source schedules and exists only as an
// ablation; see NewESSLiteral for the full story.
func NewESLiteral(v values.Value) *ES {
	a := NewES(v)
	a.literalNesting = true
	return a
}

// ReadsOnlyRound implements giraf.RoundLocal: Compute(k) reads Round(k)
// alone.
func (*ES) ReadsOnlyRound() {}

// Initialize implements giraf.Automaton (Algorithm 2 lines 1–4). The
// returned payload carries {VAL}: the paper's text returns the empty
// PROPOSED, under which no initial value could ever enter the system — see
// DESIGN.md §3 note 1.
func (a *ES) Initialize() giraf.Payload {
	return SetPayload{Proposed: values.NewSet(a.val)}
}

// Compute implements giraf.Automaton (Algorithm 2 lines 5–15).
//
// Sets are immutable values, so the state sets (WRITTEN, WRITTENOLD,
// PROPOSED) share storage with the inbox payloads and the aggregates a
// shared round carries, and the payload returned shares PROPOSED's.
func (a *ES) Compute(k int, inbox giraf.Inbox) (giraf.Payload, giraf.Decision) {
	// Lines 6–7: WRITTEN := ∩_{m ∈ M_i[k]} m and the inbox union for
	// PROPOSED, pure functions of the round's payload set, computed once
	// per shared round (see roundAggregate).
	agg := roundAggregate(k, inbox, a.aggregate)
	a.written = agg.written
	// When PROPOSED adds nothing to the union — always the case in round
	// 1, where our own inbox payload carries VAL, and in the converged
	// case — PROPOSED becomes the union itself.
	a.proposed = agg.union.Union(a.proposed)

	if k%2 == 0 {
		// Line 9: if PROPOSED = WRITTENOLD = {VAL} then decide.
		if a.proposed.IsExactly(a.val) && a.writtenOld.IsExactly(a.val) {
			return nil, giraf.Decision{Decided: true, Value: a.val}
		}
		// Lines 11–13.
		if !a.written.IsEmpty() {
			max, _ := a.written.Max()
			a.val = max
			a.proposed = values.NewSet(a.val)
			if a.literalNesting {
				a.writtenOld = a.written // broken literal reading (ablation)
			}
		}
	}
	// Line 14 executes every round: WRITTENOLD^k must equal WRITTEN^(k−1),
	// which is exactly what Lemma 2's proof uses; the even-round-only
	// placement (a flat reading of the preprint's lost indentation) yields
	// WRITTEN^(k−2) and violates Agreement on some MS schedules
	// (DESIGN.md §3 note 3).
	if !a.literalNesting {
		a.writtenOld = a.written
	}
	// Line 15: return PROPOSED.
	return SetPayload{Proposed: a.proposed}, giraf.Decision{}
}

// esAgg is what a round's payload set alone determines for Algorithm 2:
// WRITTEN (line 6) and the union of line 7.
type esAgg struct{ written, union values.Set }

// aggregate computes lines 6–7's pure functions of the round's payloads.
func (a *ES) aggregate(msgs []giraf.Payload) esAgg {
	sets := a.sets[:0]
	for _, m := range msgs {
		// Payloads of a foreign algorithm family (possible when a shared
		// hub replays another run's frames) are ignored, not fatal:
		// crash-fault model, a peer speaking another protocol is garbage.
		if p, ok := m.(SetPayload); ok {
			sets = append(sets, p.Proposed)
		}
	}
	a.sets = sets
	// Payloads are pairwise distinct, so in a converged round — one set
	// S — both are S itself, and neither allocates.
	return esAgg{written: values.IntersectAll(sets), union: values.UnionAll(sets)}
}

// roundAggregate returns what round k's payload set alone determines, as
// compute derives it from Round(k). When the process adopted round k from
// a shared round, the first adopter to compute stores the result in the
// round's cell and every later adopter takes it without reading the round
// (see giraf.Proc.SharedAggregate); each algorithm family stores its own
// type, so a cell filled by another family is recomputed. Aggregates are
// immutable: state sets and counter tables are reassigned, never mutated.
func roundAggregate[A any](k int, inbox giraf.Inbox, compute func([]giraf.Payload) A) A {
	var cell *any
	if p, ok := inbox.(*giraf.Proc); ok {
		cell = p.SharedAggregate(k)
	}
	if cell != nil {
		if agg, ok := (*cell).(A); ok {
			return agg
		}
	}
	agg := compute(inbox.Round(k))
	if cell != nil {
		*cell = agg
	}
	return agg
}

// Val returns the current estimate (for metrics and tests).
func (a *ES) Val() values.Value { return a.val }

// Proposed returns the current PROPOSED set (for tests).
func (a *ES) Proposed() values.Set { return a.proposed }

// Written returns the last computed WRITTEN set (for tests).
func (a *ES) Written() values.Set { return a.written }
