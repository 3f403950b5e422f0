package rounddriver

import (
	"context"
	"errors"
	"testing"
	"time"

	"anonconsensus/internal/giraf"
	"anonconsensus/internal/values"
)

// pay is a minimal payload.
type pay string

func (p pay) PayloadKey() string { return string(p) }

// scripted is an automaton that decides value 7 when computing round
// decideAt (never, when zero).
type scripted struct{ decideAt int }

func (s *scripted) Initialize() giraf.Payload { return pay("own") }

func (s *scripted) Compute(k int, _ giraf.Inbox) (giraf.Payload, giraf.Decision) {
	if s.decideAt > 0 && k >= s.decideAt {
		return nil, giraf.Decision{Decided: true, Value: values.Num(7)}
	}
	return pay("own"), giraf.Decision{}
}

// harness is a driver on a scripted schedule: every event is a direct
// method call, so a test reads as the schedule it pins.
type harness struct {
	t       *testing.T
	d       *driver
	sent    int
	sendErr error
	// attachment is what Config.Attachment reports (0: detached).
	attachment uint64
	onRound    []int
	// echo, when set, delivers each successful add's mark during its Send,
	// as a plane with no other process on it would.
	echo bool
}

func newHarness(t *testing.T, cfg Config) *harness {
	h := &harness{t: t, attachment: 1}
	if cfg.Automaton == nil {
		cfg.Automaton = &scripted{}
	}
	cfg.Attachment = func() uint64 { return h.attachment }
	cfg.Send = func(env giraf.Envelope) error {
		h.sent++
		if h.echo && h.sendErr == nil {
			h.d.receive(Mark(env.Round))
		}
		return h.sendErr
	}
	cfg.OnRound = func(round int) { h.onRound = append(h.onRound, round) }
	h.d = newDriver(cfg)
	return h
}

// beats applies n beats, none of which may end the run.
func (h *harness) beats(n int) {
	h.t.Helper()
	for i := 0; i < n; i++ {
		if h.d.beat() {
			h.t.Fatalf("beat %d of %d ended the run: %+v", i+1, n, h.d.outcome())
		}
	}
}

// receive delivers n peer envelopes.
func (h *harness) receive(n int) {
	for i := 0; i < n; i++ {
		h.d.receive(giraf.Envelope{Round: 1, Payloads: []giraf.Payload{pay("peer")}})
	}
}

// mark delivers the mark of the add the driver sent last.
func (h *harness) mark() { h.d.receive(Mark(h.d.proc.CurrentRound())) }

func (h *harness) wantRounds(want int) {
	h.t.Helper()
	if got := h.d.outcome().Rounds; got != want {
		h.t.Fatalf("executed %d rounds, want %d", got, want)
	}
}

// TestNoRoundEndsBeforeItsMark: once round 0 has run, no beat ends a round
// before the mark of the round's add arrives — whatever else was
// received, however many beats pass, and whatever stale mark comes in.
// The mark then releases exactly one round.
func TestNoRoundEndsBeforeItsMark(t *testing.T) {
	h := newHarness(t, Config{})
	h.beats(1)
	h.wantRounds(1) // round 0 has no add to wait for
	for _, perBeat := range []int{0, 1, 20} {
		round := h.d.proc.CurrentRound()
		for beat := 0; beat < 64; beat++ {
			h.receive(perBeat)
			h.d.receive(Mark(round - 1)) // the echo of an earlier add
			h.beats(1)
		}
		h.wantRounds(round)
		h.mark()
		h.beats(1)
		h.wantRounds(round + 1)
	}
	if h.sent != 4 {
		t.Fatalf("broadcast %d envelopes, want one per executed round (4)", h.sent)
	}
}

// TestRoundOneWaitsForGrace: no beat executes anything during the join
// grace, however many envelopes arrive; the first beat after it runs
// round 1.
func TestRoundOneWaitsForGrace(t *testing.T) {
	h := newHarness(t, Config{GraceBeats: 16})
	h.receive(5)
	h.beats(16)
	h.wantRounds(0)
	h.beats(1)
	h.wantRounds(1)
}

// TestGraceBeatsThenRoundZero: with GraceBeats 3, beats 1–3 execute
// nothing and the 4th runs round 0 (Initialize), whatever arrives before
// it — silence, one envelope per beat, or a replay burst.
func TestGraceBeatsThenRoundZero(t *testing.T) {
	for _, perBeat := range []int{0, 1, 20} {
		h := newHarness(t, Config{GraceBeats: 3})
		for beat := 1; beat <= 3; beat++ {
			h.receive(perBeat)
			h.beats(1)
			h.wantRounds(0)
		}
		h.receive(perBeat)
		h.beats(1)
		h.wantRounds(1)
		if h.sent != 1 || len(h.onRound) != 1 || h.onRound[0] != 0 {
			t.Fatalf("%d envelopes per beat: sent %d, OnRound %v; want round 0 alone on beat 4", perBeat, h.sent, h.onRound)
		}
	}
}

// TestMarkAfterEnvelopesReleasesNextBeat: a mark that arrives behind its
// round's envelopes releases the very next beat, and the round after it
// waits for a mark of its own.
func TestMarkAfterEnvelopesReleasesNextBeat(t *testing.T) {
	h := newHarness(t, Config{})
	h.beats(1) // round 1
	h.receive(2)
	h.beats(1)
	h.wantRounds(1) // envelopes alone: held
	h.mark()
	h.beats(1)
	h.wantRounds(2) // released
	h.receive(2)
	h.beats(1)
	h.wantRounds(2) // round 2's add has no mark yet
	h.mark()
	h.beats(1)
	h.wantRounds(3)
}

// TestSoloRunsOneRoundPerBeat: a process alone on its plane has its add
// completed at once, so it runs one round per beat — no count of silent
// peers holds it.
func TestSoloRunsOneRoundPerBeat(t *testing.T) {
	h := newHarness(t, Config{})
	h.echo = true
	for round := 1; round <= 5; round++ {
		h.beats(1)
		h.wantRounds(round)
	}
}

// TestDetachedBeatsExecuteNothing: while the broadcast primitive is
// unreachable no round runs and nothing is sent; an add outstanding across
// a re-attachment is sent again on the new attachment, and its mark
// releases the next round.
func TestDetachedBeatsExecuteNothing(t *testing.T) {
	h := newHarness(t, Config{})
	h.beats(1) // round 1, sent on attachment 1
	h.attachment = 0
	h.mark() // completes round 1's add before the loss
	h.beats(8)
	h.wantRounds(1)
	if h.sent != 1 {
		t.Fatalf("sent %d envelopes while detached, want none beyond round 1's", h.sent)
	}
	h.attachment = 2
	h.beats(1)
	h.wantRounds(2) // round 2's add goes out on attachment 2
	h.attachment = 3
	h.beats(1)
	h.wantRounds(2)
	if h.sent != 3 {
		t.Fatalf("sent %d envelopes, want round 2's add re-sent after re-attaching (3)", h.sent)
	}
	h.beats(1)
	if h.sent != 3 {
		t.Fatalf("sent %d envelopes, want no further re-send on the same attachment", h.sent)
	}
	h.mark()
	h.beats(1)
	h.wantRounds(3)
}

// TestCrashOutcome: a crash after two rounds stops the process at the
// next executed beat, before it computes or broadcasts round 3.
func TestCrashOutcome(t *testing.T) {
	h := newHarness(t, Config{CrashAfter: 2})
	h.beats(1)
	h.mark()
	h.beats(1)
	h.mark()
	if !h.d.beat() {
		t.Fatal("crash schedule did not end the run")
	}
	want := Outcome{Crashed: true, Rounds: 2}
	if got := h.d.outcome(); got != want {
		t.Fatalf("outcome %+v, want %+v", got, want)
	}
	if h.sent != 2 || len(h.onRound) != 2 {
		t.Fatalf("sent %d, OnRound %v: the crashing beat must do neither", h.sent, h.onRound)
	}
}

// TestDecideOutcome: DecidedRound is the round being computed, Rounds the
// end-of-rounds completed before it, and the deciding step broadcasts
// nothing (Algorithm 2 line 10: decide; halt).
func TestDecideOutcome(t *testing.T) {
	h := newHarness(t, Config{Automaton: &scripted{decideAt: 2}})
	h.beats(1) // initialize: round 0 → 1
	h.receive(1)
	h.mark()
	h.beats(1) // compute round 1 → 2
	h.mark()
	if !h.d.beat() { // compute round 2: decides
		t.Fatal("decision did not end the run")
	}
	want := Outcome{Decided: true, Decision: values.Num(7), DecidedRound: 2, Rounds: 2}
	if got := h.d.outcome(); got != want {
		t.Fatalf("outcome %+v, want %+v", got, want)
	}
	if h.sent != 2 {
		t.Fatalf("sent %d envelopes, want 2", h.sent)
	}
	if len(h.onRound) != 3 || h.onRound[2] != 2 {
		t.Fatalf("OnRound saw %v, want [0 1 2]", h.onRound)
	}
}

// TestFailedSendDoesNotStopTheLoop: an add whose broadcast did not leave
// the machine is sent again on each next beat until a send succeeds; its
// mark then releases the round.
func TestFailedSendDoesNotStopTheLoop(t *testing.T) {
	h := newHarness(t, Config{})
	h.sendErr = errors.New("connection churning")
	h.beats(3)
	h.wantRounds(1)
	if h.sent != 3 {
		t.Fatalf("send attempted %d times, want round 1's add on each of 3 beats", h.sent)
	}
	h.sendErr = nil
	h.beats(1)
	h.beats(1)
	if h.sent != 4 {
		t.Fatalf("send attempted %d times, want no re-send once one succeeded (4)", h.sent)
	}
	h.mark()
	h.beats(1)
	h.wantRounds(2)
}

// TestRunMapsEventsToSteps drives Run itself over unbuffered channels:
// the feeder's sends complete only as Run takes them, so the schedule is
// exact without a clock.
func TestRunMapsEventsToSteps(t *testing.T) {
	beat := make(chan time.Time)
	inbox := make(chan giraf.Envelope)
	peer := giraf.Envelope{Round: 1, Payloads: []giraf.Payload{pay("peer")}}
	go func() {
		beat <- time.Time{} // the one grace beat: nothing
		beat <- time.Time{} // round 1
		inbox <- peer
		beat <- time.Time{} // held: round 1's add has no mark
		inbox <- Mark(1)
		beat <- time.Time{} // round 2
		inbox <- Mark(2)
		beat <- time.Time{} // decides
	}()
	sent := 0
	out := Run(context.Background(), Config{
		Automaton:  &scripted{decideAt: 2},
		Beat:       beat,
		Inbox:      inbox,
		GraceBeats: 1,
		Send:       func(giraf.Envelope) error { sent++; return nil },
	})
	want := Outcome{Decided: true, Decision: values.Num(7), DecidedRound: 2, Rounds: 2}
	if out != want || sent != 2 {
		t.Fatalf("outcome %+v after %d sends, want %+v after 2", out, sent, want)
	}
}

// TestRunEndsOnLostAndOnContext: a lost session is reported as such; an
// ended context is a plain undecided outcome.
func TestRunEndsOnLostAndOnContext(t *testing.T) {
	lost := make(chan struct{})
	close(lost)
	cfg := Config{Automaton: &scripted{}, Send: func(giraf.Envelope) error { return nil }}
	cfg.Lost = lost
	if out := Run(context.Background(), cfg); out != (Outcome{Lost: true}) {
		t.Fatalf("lost session: outcome %+v", out)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg.Lost = nil
	if out := Run(ctx, cfg); out != (Outcome{}) {
		t.Fatalf("cancelled context: outcome %+v", out)
	}
}
