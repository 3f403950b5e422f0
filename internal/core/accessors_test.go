package core

import (
	"strings"
	"testing"

	"anonconsensus/internal/env"
	"anonconsensus/internal/giraf"
	"anonconsensus/internal/sim"
	"anonconsensus/internal/values"
)

func TestESAccessors(t *testing.T) {
	a := NewES(values.Num(4))
	if a.Val() != values.Num(4) {
		t.Errorf("Val = %v", a.Val())
	}
	if !a.Proposed().IsEmpty() || !a.Written().IsEmpty() {
		t.Error("fresh automaton must have empty sets")
	}
	p := a.Initialize().(SetPayload)
	if got := p.String(); !strings.Contains(got, "000000000004") {
		t.Errorf("payload String = %q", got)
	}
}

func TestESSAccessors(t *testing.T) {
	a := NewESS(values.Num(2))
	if a.Val() != values.Num(2) {
		t.Errorf("Val = %v", a.Val())
	}
	if !a.IsLeader() {
		t.Error("fresh automaton must consider itself leader")
	}
	if a.Counters().Len() != 0 {
		t.Error("fresh counters must be empty")
	}
	if !a.Proposed().IsEmpty() || !a.Written().IsEmpty() || !a.WrittenOld().IsEmpty() {
		t.Error("fresh automaton must have empty sets")
	}
	if a.History().Len() != 1 {
		t.Errorf("initial history len = %d", a.History().Len())
	}
	p := a.Initialize().(ESSPayload)
	if got := p.String(); !strings.Contains(got, "⟨") {
		t.Errorf("payload String = %q", got)
	}
}

func TestESSStableSourceCrashesAfterGST(t *testing.T) {
	// The designated stable source decides-or-crashes after GST: the ESS
	// policy falls back to another sender (re-stabilizing on it). The
	// algorithm must still terminate and agree — robustness beyond the
	// letter of the environment definition.
	props := DistinctProposals(5)
	res, err := RunESS(props, RunOpts{
		Policy:    &env.ESS{GST: 6, StableSource: 2, Pre: env.MS{Seed: 31, Alternate: true}},
		Scenario:  &env.Scenario{Crashes: map[int]int{2: 9}}, // source dies three rounds after GST
		MaxRounds: 600,
	})
	if err != nil {
		t.Fatal(err)
	}
	requireConsensus(t, res, props)
}

func TestESDecisionsRecordedInTrace(t *testing.T) {
	props := DistinctProposals(3)
	res, err := RunES(props, RunOpts{
		Policy:      env.Synchronous{},
		RecordTrace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	requireConsensus(t, res, props)
	if err := res.Trace.CheckMS(); err != nil {
		t.Errorf("synchronous deciding run must satisfy MS: %v", err)
	}
}

func TestESLateMessagesAfterDecisionHarmless(t *testing.T) {
	// A decided (halted) process keeps receiving late envelopes from the
	// engine queue; Receive must ignore them without disturbing anything.
	props := DistinctProposals(3)
	var decidedProc *giraf.Proc
	res, err := RunES(props, RunOpts{
		Policy:    &env.ES{GST: 4, Pre: env.MS{Seed: 1, MaxDelay: 6}},
		MaxRounds: 100,
		OnRound: func(r int, e *sim.Engine) {
			if decidedProc == nil {
				for i := 0; i < e.N(); i++ {
					if e.Proc(i).Halted() {
						decidedProc = e.Proc(i)
					}
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	requireConsensus(t, res, props)
	if decidedProc == nil {
		t.Fatal("nobody decided mid-run")
	}
	if d := decidedProc.Decision(); !d.Decided {
		t.Error("halted process lost its decision")
	}
}
