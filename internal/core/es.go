package core

import (
	"fmt"
	"math/bits"

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

	// memo, when non-nil, is shared by every automaton of one run (see
	// ConfigES) and caches the round-aggregate sets by inbox fingerprint.
	memo *roundMemo

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
// PROPOSED) share storage with the inbox payloads and the memoized
// aggregates, and the payload returned shares PROPOSED's.
func (a *ES) Compute(k int, inbox giraf.Inbox) (giraf.Payload, giraf.Decision) {
	// Lines 6–7: WRITTEN := ∩_{m ∈ M_i[k]} m and the inbox union for
	// PROPOSED. Both are pure functions of the round's payload set, so
	// across the processes of one run — which see identical inboxes
	// whenever delivery is uniform, e.g. every synchronous round — the
	// first process computes them and its peers alias the memoized result
	// without reading the round (sound: fingerprint equality ⇔ structural
	// equality, and state sets are only ever reassigned, never mutated).
	agg, ok := a.memo.lookup(k, inbox)
	w, u := agg.written, agg.union
	if !ok {
		msgs := inbox.Round(k)
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
		if len(sets) > 0 && allSetsEqual(sets) {
			// Steady-state fast path: every round-k message carries the same
			// set S (one fingerprint comparison each), so WRITTEN = ∩ = S and
			// ∪ = S.
			w, u = sets[0], sets[0]
		} else {
			w = values.IntersectAll(sets)
			u = values.UnionAll(sets)
			a.memo.store(k, inbox, roundAgg{written: w, union: u})
		}
	}
	a.written = w
	// When PROPOSED adds nothing to the union — always the case in round
	// 1, where our own inbox payload carries VAL, and in the converged
	// case — PROPOSED becomes the union itself.
	a.proposed = u.Union(a.proposed)

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

// roundMemo caches one round inbox's aggregates together with the
// fingerprints of the round's payloads, shared by every automaton of a
// single run: ES and ESS alike (ConfigES, ConfigESS). A single slot
// suffices: the engine invokes end-of-round compute sequentially across
// processes, so when inboxes coincide the hits arrive back to back. The
// cached aggregates are immutable by convention — state sets and counter
// tables are reassigned, never mutated in place.
type roundMemo struct {
	// n sizes the storage at the first store: a round holds at most one
	// payload per process, so later stores of the run never allocate.
	n int
	// fps are the cached round's payload fingerprints, pairwise distinct;
	// idx is an open-addressed table of 1-based positions into fps
	// (power-of-two size, load ≤ ½, linear probing), the inbox index's
	// layout (see giraf's roundInbox).
	fps []values.Fingerprint
	idx []uint32
	agg roundAgg
}

// roundAgg is what a round's payload set alone determines, the same for
// every process that receives exactly that set: WRITTEN (the intersection)
// and the union of Algorithm 2's lines 6–7 and Algorithm 3's lines 6–7, and
// for Algorithm 3 the counter table after lines 8–9.
type roundAgg struct {
	written  values.Set
	union    values.Set
	counters values.Counters
}

// roundFingerprinter is the optional Inbox capability the memo keys on
// (implemented by giraf.Proc).
type roundFingerprinter interface {
	RoundFingerprints(k int) []values.Fingerprint
}

// memoSlot is where fp's probe sequence starts, before masking: the
// fingerprint already is a hash, so its folded halves through one
// Fibonacci multiply spread it over any power-of-two table.
func memoSlot(fp values.Fingerprint) int {
	return int(((fp.Hi ^ fp.Lo) * 0x9E3779B97F4A7C15) >> 32)
}

// contains reports whether fp is one of the cached round's fingerprints.
func (m *roundMemo) contains(fp values.Fingerprint) bool {
	mask := len(m.idx) - 1
	for i := memoSlot(fp) & mask; ; i = (i + 1) & mask {
		pos := m.idx[i]
		if pos == 0 {
			return false
		}
		if m.fps[pos-1] == fp {
			return true
		}
	}
}

// lookup returns the cached aggregates when the run-shared memo holds this
// round's exact payload set: the same number of payloads, each of them a
// member. Fingerprints within a round are pairwise distinct, so that is
// set equality, confirmed without sorting or hashing the round. A nil memo
// never hits.
func (m *roundMemo) lookup(k int, inbox giraf.Inbox) (roundAgg, bool) {
	if m == nil || len(m.fps) == 0 {
		return roundAgg{}, false
	}
	rf, can := inbox.(roundFingerprinter)
	if !can {
		return roundAgg{}, false
	}
	fps := rf.RoundFingerprints(k)
	if len(fps) != len(m.fps) {
		return roundAgg{}, false
	}
	for _, fp := range fps {
		if !m.contains(fp) {
			return roundAgg{}, false
		}
	}
	return m.agg, true
}

// store records this round's fingerprints and aggregates for the peers
// that will see the same inbox, reusing the memo's storage. A nil memo
// stores nothing.
func (m *roundMemo) store(k int, inbox giraf.Inbox, agg roundAgg) {
	if m == nil {
		return
	}
	rf, can := inbox.(roundFingerprinter)
	if !can {
		return
	}
	fps := rf.RoundFingerprints(k)
	if len(fps) == 0 {
		return
	}
	if size := 2 * max(len(fps), m.n); len(m.idx) < size {
		m.fps = make([]values.Fingerprint, 0, size/2)
		m.idx = make([]uint32, 1<<bits.Len(uint(size-1)))
	} else {
		clear(m.idx)
	}
	m.fps = append(m.fps[:0], fps...)
	mask := len(m.idx) - 1
	for pos, fp := range m.fps {
		i := memoSlot(fp) & mask
		for m.idx[i] != 0 {
			i = (i + 1) & mask
		}
		m.idx[i] = uint32(pos + 1)
	}
	m.agg = agg
}

// allSetsEqual reports whether every set equals the first — a fingerprint
// comparison per element for settled (payload) sets.
func allSetsEqual(sets []values.Set) bool {
	for _, t := range sets[1:] {
		if !sets[0].Equal(t) {
			return false
		}
	}
	return true
}

// Val returns the current estimate (for metrics and tests).
func (a *ES) Val() values.Value { return a.val }

// Proposed returns the current PROPOSED set (for tests).
func (a *ES) Proposed() values.Set { return a.proposed }

// Written returns the last computed WRITTEN set (for tests).
func (a *ES) Written() values.Set { return a.written }
