package sim

import (
	"fmt"
	"math"
	"slices"

	"anonconsensus/internal/property"
	"anonconsensus/internal/values"
)

// Trace records who computed which round and which deliveries were timely,
// in exactly the vocabulary of the paper's environment definitions (§2.3),
// so that a finished run can be checked against MS/ES/ESS independently of
// whatever the policy claimed to do.
type Trace struct {
	// N is the number of processes.
	N int
	// Rounds is the number of global steps executed.
	Rounds int

	// ms is the run's MS record, keyed by sender index: a round-r message
	// is held by every receiver that got it within round r (delay 0), and
	// always by its sender.
	ms property.Record[int]
	// decisions[pid] is the step and value at which pid decided.
	decisions map[int]DecisionRecord
	// claimedSources[r] is the policy's self-reported source, if any.
	claimedSources map[int]int
}

// DecisionRecord is one traced decision event.
type DecisionRecord struct {
	// Step is the global step at which the process decided.
	Step int
	// Value is the decided value.
	Value values.Value
}

func newTrace(n int) *Trace {
	return &Trace{
		N:              n,
		decisions:      make(map[int]DecisionRecord),
		claimedSources: make(map[int]int),
	}
}

func (t *Trace) recordComputed(pid, round int) { t.ms.Compute(round, pid) }

func (t *Trace) recordBroadcast(round, sender int) {
	t.ms.Send(round, sender)
	t.ms.Hold(round, sender, sender)
}

func (t *Trace) recordDelivery(round, sender, receiver, step int) {
	if step <= round { // timely; a later delivery is reliable but not timely
		t.ms.Hold(round, receiver, sender)
	}
}

func (t *Trace) recordDecision(pid, step int, v values.Value) {
	t.decisions[pid] = DecisionRecord{Step: step, Value: v}
}

// Decision returns the traced decision event of pid, if it decided.
func (t *Trace) Decision(pid int) (DecisionRecord, bool) {
	rec, ok := t.decisions[pid]
	return rec, ok
}

func (t *Trace) recordClaimedSource(round, pid int) { t.claimedSources[round] = pid }

// Computed returns the processes that executed compute(round), sorted.
func (t *Trace) Computed(round int) []int { return t.ms.Computed(round) }

// ClaimedSource returns the policy-claimed source for a round.
func (t *Trace) ClaimedSource(round int) (int, bool) {
	pid, ok := t.claimedSources[round]
	return pid, ok
}

// TimelySources returns the senders with a timely link in round `round`:
// their envelope reached all of receivers timely (a sender reaches itself).
func (t *Trace) TimelySources(round int, receivers []int) []int {
	return t.ms.Sources(round, receivers)
}

// CheckMS verifies the moving-source property on the recorded run.
func (t *Trace) CheckMS() error { return t.CheckMSThrough(math.MaxInt) }

// CheckMSThrough is property.CheckMS on rounds 1..last. The exploration
// plane uses it to decide whether a run's decisions were cast inside the
// model: Agreement is only promised while MS holds, and rounds after the
// final decision cannot influence it.
func (t *Trace) CheckMSThrough(last int) error { return property.CheckMS(&t.ms, last) }

// CheckES verifies the eventual-synchrony property: MS everywhere, plus
// from round gst on, every sender that is still broadcasting has a timely
// link to every process that computed the round.
func (t *Trace) CheckES(gst int) error {
	if err := t.CheckMS(); err != nil {
		return err
	}
	for r := max(gst, 1); r <= t.ms.Rounds(); r++ {
		receivers := t.Computed(r)
		if len(receivers) == 0 {
			continue
		}
		timely := t.TimelySources(r, receivers)
		// Senders are recorded in index order, so a violation report names
		// the smallest offending sender.
		for _, sender := range t.ms.Sent(r) {
			if !slices.Contains(timely, sender) {
				return fmt.Errorf("ES violated in round %d (≥ GST %d): sender %d not timely to all of %v", r, gst, sender, receivers)
			}
		}
	}
	return nil
}

// CheckESS verifies the eventual-stable-source property: MS everywhere,
// plus from round gst on the same process source has a timely link in every
// round in which it still broadcasts. Rounds after the source stopped
// broadcasting (it decided or the run ended) carry no obligation for it but
// must still satisfy plain MS, which CheckMS covers.
func (t *Trace) CheckESS(gst, source int) error {
	if err := t.CheckMS(); err != nil {
		return err
	}
	for r := max(gst, 1); r <= t.ms.Rounds(); r++ {
		if !slices.Contains(t.ms.Sent(r), source) {
			continue
		}
		receivers := t.Computed(r)
		if len(receivers) == 0 {
			continue
		}
		if !slices.Contains(t.TimelySources(r, receivers), source) {
			return fmt.Errorf("ESS violated in round %d (≥ GST %d): stable source %d not timely to all of %v", r, gst, source, receivers)
		}
	}
	return nil
}

// CheckIrrevocability verifies that decisions are final, against the final
// statuses of the same run: every traced decision must match the process's
// final status (same value, same step, still decided), every finally-decided
// process must have a traced decision event, and no process may broadcast a
// later-round envelope after deciding (Algorithm 1: "decide v; halt" stops
// all further output). The framework enforces this structurally — a Proc
// halts on its first decision — so a failure here means the engine or an
// automaton wrapper broke the halt contract, which is exactly what the
// exploration plane wants to detect rather than assume.
func (t *Trace) CheckIrrevocability(statuses []ProcStatus) error {
	for pid, st := range statuses {
		rec, traced := t.decisions[pid]
		if !traced {
			if st.Decided {
				return fmt.Errorf("irrevocability violated: process %d finished decided on %v with no traced decision event", pid, st.Decision)
			}
			continue
		}
		switch {
		case !st.Decided:
			return fmt.Errorf("irrevocability violated: process %d decided %v at step %d but finished undecided", pid, rec.Value, rec.Step)
		case st.Decision != rec.Value:
			return fmt.Errorf("irrevocability violated: process %d decided %v at step %d but finished on %v", pid, rec.Value, rec.Step, st.Decision)
		case st.DecidedAt != rec.Step:
			return fmt.Errorf("irrevocability violated: process %d has decision steps %d (trace) vs %d (status)", pid, rec.Step, st.DecidedAt)
		}
		// Deciding at step s means the round-(s+1) envelope is never sent;
		// the report names the earliest offending round.
		for r := rec.Step + 1; r <= t.ms.Rounds(); r++ {
			if slices.Contains(t.ms.Sent(r), pid) {
				return fmt.Errorf("irrevocability violated: process %d broadcast a round-%d envelope after deciding at step %d", pid, r, rec.Step)
			}
		}
	}
	return nil
}
