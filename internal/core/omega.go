package core

import (
	"fmt"

	"anonconsensus/internal/giraf"
	"anonconsensus/internal/values"
)

// LeaderOracle is an Ω failure-detector query: it reports whether this
// process currently considers itself the leader. An eventually-accurate
// oracle converges to exactly one correct leader forever (refs [3], [4]).
// The oracle may be queried once per round and must be non-blocking.
type LeaderOracle func(round int) bool

// OmegaConsensus is the classical leader-based baseline: Algorithm 3 with
// the pseudo leader election (HISTORY + C) replaced by an Ω oracle. Its
// payloads carry only the PROPOSED set, so comparing its message sizes with
// ESS isolates the cost of anonymity (experiment T6). Its liveness needs
// the oracle's leader to be an eventual source (run it under an ESS policy
// whose stable source is the oracle's leader).
type OmegaConsensus struct {
	oracle     LeaderOracle
	val        values.Value
	written    values.Set
	writtenOld values.Set
	proposed   values.Set
}

var (
	_ giraf.Automaton  = (*OmegaConsensus)(nil)
	_ giraf.RoundLocal = (*OmegaConsensus)(nil)
)

// NewOmegaConsensus returns a process automaton proposing v with the given
// Ω oracle. It panics on an invalid initial value or nil oracle.
func NewOmegaConsensus(v values.Value, oracle LeaderOracle) *OmegaConsensus {
	if !v.Valid() {
		panic(fmt.Sprintf("core.NewOmegaConsensus: invalid initial value %q", string(v)))
	}
	if oracle == nil {
		panic("core.NewOmegaConsensus: nil oracle")
	}
	return &OmegaConsensus{
		oracle:     oracle,
		val:        v,
		written:    values.NewSet(),
		writtenOld: values.NewSet(),
		proposed:   values.NewSet(),
	}
}

// ReadsOnlyRound implements giraf.RoundLocal: Compute(k) reads Round(k)
// alone.
func (*OmegaConsensus) ReadsOnlyRound() {}

// Initialize implements giraf.Automaton.
func (a *OmegaConsensus) Initialize() giraf.Payload {
	return SetPayload{Proposed: values.NewSet(a.val)}
}

// Compute implements giraf.Automaton: Algorithm 3's control flow with the
// line-15 leader check answered by the oracle.
func (a *OmegaConsensus) Compute(k int, inbox giraf.Inbox) (giraf.Payload, giraf.Decision) {
	msgs := inbox.Round(k)
	sets := make([]values.Set, 0, len(msgs))
	for _, m := range msgs {
		if p, ok := m.(SetPayload); ok { // foreign payloads ignored, as in ES
			sets = append(sets, p.Proposed)
		}
	}
	a.written = values.IntersectAll(sets)
	a.proposed = values.UnionAll(sets).Union(a.proposed)

	if k%2 == 0 {
		if a.writtenOld.IsExactly(a.val) && a.proposed.SubsetOf(values.NewSet(a.val, values.Bot)) {
			return nil, giraf.Decision{Decided: true, Value: a.val}
		}
		if nonBot := a.written.Without(values.Bot); !nonBot.IsEmpty() {
			max, _ := nonBot.Max()
			a.val = max
		}
		// As in ESS, the leader proposes in every even round — an Ω leader
		// that only spoke when something non-⊥ was written would deadlock
		// the all-⊥ state exactly like the ESS literal variant.
		if a.oracle(k) || a.proposed.SubsetOf(values.NewSet(a.val, values.Bot)) {
			a.proposed = values.NewSet(a.val)
		} else {
			a.proposed = values.NewSet(values.Bot)
		}
	}
	// Every round, as in ES/ESS: WRITTENOLD^k = WRITTEN^(k−1).
	a.writtenOld = a.written
	return SetPayload{Proposed: a.proposed}, giraf.Decision{}
}

// Val returns the current estimate.
func (a *OmegaConsensus) Val() values.Value { return a.val }
