package sim

import (
	"fmt"
	"slices"

	"anonconsensus/internal/ordered"
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

	// computed[r] is the set of processes that executed compute(r).
	computed map[int]map[int]bool
	// timely[r][sender] is the set of receivers that got sender's round-r
	// envelope within round r (delay 0). The sender itself is implicit: its
	// own payload is always in its own inbox.
	timely map[int]map[int]map[int]bool
	// senders[r] is the set of processes that broadcast a round-r envelope.
	senders map[int]map[int]bool
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
		computed:       make(map[int]map[int]bool),
		timely:         make(map[int]map[int]map[int]bool),
		senders:        make(map[int]map[int]bool),
		decisions:      make(map[int]DecisionRecord),
		claimedSources: make(map[int]int),
	}
}

func (t *Trace) recordComputed(pid, round int) {
	set := t.computed[round]
	if set == nil {
		set = make(map[int]bool)
		t.computed[round] = set
	}
	set[pid] = true
}

func (t *Trace) recordBroadcast(round, sender int) {
	snd := t.senders[round]
	if snd == nil {
		snd = make(map[int]bool)
		t.senders[round] = snd
	}
	snd[sender] = true
}

func (t *Trace) recordDelivery(round, sender, receiver, step int) {
	if step > round {
		return // late delivery: reliable but not timely
	}
	perRound := t.timely[round]
	if perRound == nil {
		perRound = make(map[int]map[int]bool)
		t.timely[round] = perRound
	}
	set := perRound[sender]
	if set == nil {
		set = make(map[int]bool)
		perRound[sender] = set
	}
	set[receiver] = true
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
func (t *Trace) Computed(round int) []int {
	return ordered.Keys(t.computed[round])
}

// ClaimedSource returns the policy-claimed source for a round.
func (t *Trace) ClaimedSource(round int) (int, bool) {
	pid, ok := t.claimedSources[round]
	return pid, ok
}

// TimelySources returns every sender whose round-`round` envelope reached
// all of the given receivers timely (the sender itself always counts as
// reached). This is the set of processes with a timely link in that round.
func (t *Trace) TimelySources(round int, receivers []int) []int {
	var out []int
	for _, sender := range ordered.Keys(t.senders[round]) {
		got := t.timely[round][sender]
		ok := true
		for _, r := range receivers {
			if r == sender {
				continue
			}
			if !got[r] {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, sender)
		}
	}
	return out
}

// lastCheckableRound returns the last round r such that some process
// computed r: the final partially-executed round (payloads sent, nobody
// computed) carries no environment obligations.
func (t *Trace) lastCheckableRound() int {
	last := 0
	//detlint:ordered max over keys — the result is independent of visit order
	for r := range t.computed {
		if r > last {
			last = r
		}
	}
	return last
}

// CheckMS verifies the moving-source property on the recorded run: every
// round that anyone computed has at least one sender with a timely link to
// every process that computed the round.
func (t *Trace) CheckMS() error {
	return t.CheckMSThrough(t.lastCheckableRound())
}

// CheckMSThrough is CheckMS restricted to rounds 1..last: it verifies the
// moving-source property held for a prefix of the run. The exploration
// plane uses it to decide whether a run's decisions were cast inside the
// model — Agreement is only promised while MS holds, and rounds after the
// final decision cannot influence it, so a run whose source crashes or
// halts later stays checkable.
func (t *Trace) CheckMSThrough(last int) error {
	if max := t.lastCheckableRound(); last > max {
		last = max
	}
	for r := 1; r <= last; r++ {
		receivers := t.Computed(r)
		if len(receivers) == 0 {
			continue
		}
		if len(t.TimelySources(r, receivers)) == 0 {
			return fmt.Errorf("MS violated in round %d: no sender reached all of %v timely", r, receivers)
		}
	}
	return nil
}

// CheckES verifies the eventual-synchrony property: MS everywhere, plus
// from round gst on, every sender that is still broadcasting has a timely
// link to every process that computed the round.
func (t *Trace) CheckES(gst int) error {
	if err := t.CheckMS(); err != nil {
		return err
	}
	last := t.lastCheckableRound()
	for r := maxInt(gst, 1); r <= last; r++ {
		receivers := t.Computed(r)
		if len(receivers) == 0 {
			continue
		}
		timely := t.TimelySources(r, receivers)
		// Sorted view so a violation report names the smallest offending
		// sender, not a map-order-dependent one.
		for _, sender := range ordered.Keys(t.senders[r]) {
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
	last := t.lastCheckableRound()
	for r := maxInt(gst, 1); r <= last; r++ {
		if !t.senders[r][source] {
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
		// Deciding at step s means the round-(s+1) envelope is never sent.
		// Report the earliest offending round so the message is a pure
		// function of the run (map order must not leak into reports).
		offending := 0
		//detlint:ordered min over keys — the earliest offending round is order-independent
		for r, snd := range t.senders {
			if r > rec.Step && snd[pid] && (offending == 0 || r < offending) {
				offending = r
			}
		}
		if offending > 0 {
			return fmt.Errorf("irrevocability violated: process %d broadcast a round-%d envelope after deciding at step %d", pid, offending, rec.Step)
		}
	}
	return nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
