// Package property states the paper's consensus properties once, for every
// backend: Agreement, Validity and irrevocability in every run, Termination
// where the environment promises it, and MS, the premise they rest on
// (CheckMS). The simulator, the wall-clock planes, the exploration plane
// and the tests all judge a run here.
package property

import (
	"fmt"
	"slices"
	"strings"

	"anonconsensus/internal/env"
	"anonconsensus/internal/values"
)

// Outcome is how one process's run ended: its decision, if any, the round
// it computed when deciding, and whether it stopped early (a crash, or a
// session lost for good).
type Outcome struct {
	Decided bool
	Value   values.Value
	Round   int
	Crashed bool
}

// Kind names a property; a violation's message starts with its kind.
type Kind string

// The properties.
const (
	Agreement      Kind = "agreement"
	Validity       Kind = "validity"
	Termination    Kind = "termination"
	Irrevocability Kind = "irrevocability"
)

// Violation is one broken property.
type Violation struct {
	Kind Kind
	Msg  string
}

func (v *Violation) Error() string { return v.Msg }

// KindOf reads the kind back from a message ("agreement violated: …").
func KindOf(msg string) Kind {
	kind, _, _ := strings.Cut(msg, " violated")
	return Kind(kind)
}

// Run is one finished run, as the checker sees it.
type Run struct {
	Proposals values.Set
	Outcomes  []Outcome
	Scenario  *env.Scenario // nil: fault-free
	// Promised reports whether the environment promised Termination.
	Promised bool
	// Rounds, when positive, words a Termination violation.
	Rounds int
	// MS (the moving-source property held through the last decision) and
	// Irrevocable are the simulator's trace checks, nil without a trace.
	MS, Irrevocable func() error
}

// Check judges r. Validity and irrevocability are unconditional: faults
// only remove or repeat messages, never forge proposals or un-halt a
// process. Agreement is checked only while the run stayed inside the
// model: the scenario keeps reliable broadcast (LinkFaultFree: loss and
// partitions genuinely admit split-brain) and, given a trace, MS held
// through the last decision (a sourceless round is outside every
// environment of §2.3). Termination is checked only where promised.
func Check(r Run) []*Violation {
	vs := []*Violation{nil, CheckValidity(r.Outcomes, r.Proposals), nil, nil}
	if r.Scenario.LinkFaultFree() && (r.MS == nil || r.MS() == nil) {
		vs[0] = CheckAgreement(r.Outcomes)
	}
	if r.Irrevocable != nil {
		if err := r.Irrevocable(); err != nil {
			vs[2] = &Violation{Irrevocability, err.Error()}
		}
	}
	if r.Promised {
		vs[3] = CheckTermination(r.Outcomes, r.Rounds)
	}
	return slices.DeleteFunc(vs, func(v *Violation) bool { return v == nil })
}

// Decisions returns the set of decided values, crashed deciders included.
func Decisions(outs []Outcome) values.Set {
	out := values.NewSet()
	for _, o := range outs {
		if o.Decided {
			out.Add(o.Value)
		}
	}
	return out
}

// CheckAgreement reports processes that decided differently; a process
// that decided and then crashed still counts.
func CheckAgreement(outs []Outcome) *Violation {
	first := slices.IndexFunc(outs, func(o Outcome) bool { return o.Decided })
	for _, o := range outs {
		if o.Decided && o.Value != outs[first].Value {
			return &Violation{Agreement, fmt.Sprintf("agreement violated: decisions %v", Decisions(outs))}
		}
	}
	return nil
}

// CheckValidity reports the first process whose decision was not proposed.
func CheckValidity(outs []Outcome, proposals values.Set) *Violation {
	for i, o := range outs {
		if o.Decided && !proposals.Contains(o.Value) {
			return &Violation{Validity, fmt.Sprintf("validity violated: process %d decided %v, proposals %v", i, o.Value, proposals)}
		}
	}
	return nil
}

// CheckTermination reports correct (non-crashed) processes left undecided.
func CheckTermination(outs []Outcome, rounds int) *Violation {
	undecided, correct := 0, 0
	for _, o := range outs {
		if !o.Crashed {
			correct++
			if !o.Decided {
				undecided++
			}
		}
	}
	if undecided == 0 {
		return nil
	}
	msg := fmt.Sprintf("termination violated: %d of %d correct processes undecided", undecided, correct)
	if rounds > 0 {
		msg += fmt.Sprintf(" after %d rounds under a synchronous steady state", rounds)
	}
	return &Violation{Termination, msg}
}
