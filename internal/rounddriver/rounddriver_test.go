package rounddriver

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"anonconsensus/internal/giraf"
	"anonconsensus/internal/values"
)

// pay is a minimal payload.
type pay string

func (p pay) PayloadKey() string                     { return string(p) }
func (p pay) PayloadFingerprint() values.Fingerprint { return values.FingerprintString(p.PayloadKey()) }
func (p pay) PayloadEncodedSize() int                { return len(p.PayloadKey()) }

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
	// received counts the peer envelopes delivered by receive.
	received int
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

// receive delivers n peer envelopes, each with a payload of its own.
func (h *harness) receive(n int) {
	for i := 0; i < n; i++ {
		h.received++
		h.d.receive(giraf.Envelope{Round: 1, Payloads: []giraf.Payload{pay(fmt.Sprintf("peer-%d", h.received))}})
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

// TestFirstBeatRunsRoundZero: the first beat runs round 0 (Initialize)
// alone, whatever arrived before it — silence, one envelope per beat, or a
// replay burst — and round 1, once its add's mark is in, computes over
// everything that arrived.
func TestFirstBeatRunsRoundZero(t *testing.T) {
	for _, in := range []struct {
		name            string
		before, perBeat int
	}{{"silence", 0, 0}, {"one per beat", 1, 1}, {"burst", 20, 0}} {
		aut := &roundSets{}
		h := newHarness(t, Config{Automaton: aut})
		h.receive(in.before)
		h.beats(1)
		h.wantRounds(1)
		if h.sent != 1 || !slices.Equal(h.onRound, []int{0}) || len(aut.sizes) != 0 {
			t.Fatalf("%s: sent %d, OnRound %v, %d computes; want round 0 alone on beat 1", in.name, h.sent, h.onRound, len(aut.sizes))
		}
		for beat := 2; beat <= 4; beat++ {
			h.receive(in.perBeat)
			h.beats(1)
		}
		h.mark()
		h.beats(1)
		h.wantRounds(2)
		if got, want := aut.sizes[0], 1+h.received; got != want {
			t.Fatalf("%s: round 1 computed over %d payloads, want its own and the %d received", in.name, got, h.received)
		}
	}
}

// roundSets is an automaton that records, at each Compute of round k, the
// size of the round-k set it computes over.
type roundSets struct{ sizes []int }

func (a *roundSets) Initialize() giraf.Payload { return pay("own") }

func (a *roundSets) Compute(k int, inbox giraf.Inbox) (giraf.Payload, giraf.Decision) {
	a.sizes = append(a.sizes, len(inbox.Round(k)))
	return pay("own"), giraf.Decision{}
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

// TestRunMapsEventsToSteps drives Run itself, beats over an unbuffered
// channel and envelopes through the mailbox: each beat send completes only
// as Run takes it, and Run drains the mailbox before every beat, so the
// schedule is exact without a clock.
func TestRunMapsEventsToSteps(t *testing.T) {
	beat := make(chan time.Time)
	inbox := NewMailbox()
	peer := giraf.Envelope{Round: 1, Payloads: []giraf.Payload{pay("peer")}}
	go func() {
		beat <- time.Time{} // round 1
		inbox.Put(peer)
		beat <- time.Time{} // held: round 1's add has no mark
		inbox.Put(Mark(1))
		beat <- time.Time{} // round 2
		inbox.Put(Mark(2))
		beat <- time.Time{} // decides
	}()
	sent := 0
	out := Run(context.Background(), Config{
		Automaton: &scripted{decideAt: 2},
		Beat:      beat,
		Inbox:     inbox,
		Send:      func(giraf.Envelope) error { sent++; return nil },
	})
	want := Outcome{Decided: true, Decision: values.Num(7), DecidedRound: 2, Rounds: 2}
	if out != want || sent != 2 {
		t.Fatalf("outcome %+v after %d sends, want %+v after 2", out, sent, want)
	}
}

// arrivals is an automaton that records, at each Compute, the payloads
// delivered since its previous end-of-round, in arrival order.
type arrivals struct{ seen [][]string }

func (a *arrivals) Initialize() giraf.Payload { return pay("own") }

func (a *arrivals) Compute(_ int, inbox giraf.Inbox) (giraf.Payload, giraf.Decision) {
	var keys []string
	for _, p := range inbox.Fresh() {
		keys = append(keys, p.PayloadKey())
	}
	a.seen = append(a.seen, keys)
	return pay("own"), giraf.Decision{}
}

// TestPutInsideSendNeitherBlocksNorReorders: a plane may fill the mailbox
// while the driver is inside Send, the one moment nothing drains it. Far
// more Puts than any old inbox held, the add's mark among them, all return,
// and the next beat sees every envelope in Put order and ends the round.
func TestPutInsideSendNeitherBlocksNorReorders(t *testing.T) {
	const burst = 4096
	beat := make(chan time.Time)
	inbox := NewMailbox()
	want := []string{"own"} // merged at the end of round 0
	aut := &arrivals{}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	go func() {
		for i := 0; i < 2; i++ { // round 0, then round 1
			select {
			case beat <- time.Time{}:
			case <-ctx.Done():
				return
			}
		}
		cancel()
	}()
	out := Run(ctx, Config{
		Automaton: aut,
		Beat:      beat,
		Inbox:     inbox,
		Send: func(env giraf.Envelope) error {
			if env.Round != 1 {
				return nil
			}
			for i := 0; i < burst; i++ {
				key := fmt.Sprintf("peer-%d", i)
				want = append(want, key)
				inbox.Put(giraf.Envelope{Round: env.Round, Payloads: []giraf.Payload{pay(key)}})
				if i == burst/2 {
					inbox.Put(Mark(env.Round))
				}
			}
			return nil
		},
	})
	if out.Rounds != 2 || len(aut.seen) != 1 {
		t.Fatalf("outcome %+v after %d computes: want round 1 ended by the mark put inside Send", out, len(aut.seen))
	}
	if got := aut.seen[0]; !slices.Equal(got, want) {
		t.Fatalf("round 1 received %d payloads, want its own and the %d put inside Send, in Put order", len(got), burst)
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
