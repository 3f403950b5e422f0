package giraf

import (
	"fmt"
	"slices"
	"testing"

	"anonconsensus/internal/values"
)

// setPayload is a minimal payload for framework tests: a plain value set,
// identified by the set's own canonical form as core.SetPayload is.
type setPayload struct{ s values.Set }

func (p setPayload) PayloadKey() string                     { return p.s.Key() }
func (p setPayload) PayloadFingerprint() values.Fingerprint { return p.s.Fingerprint() }
func (p setPayload) PayloadEncodedSize() int                { return p.s.EncodedSize() }

// echoAutomaton broadcasts its value every round and decides at a fixed
// round, recording what it saw.
type echoAutomaton struct {
	v        values.Value
	decideAt int
	seen     []int // distinct payload count per computed round
}

func (a *echoAutomaton) Initialize() Payload {
	return setPayload{values.NewSet(a.v)}
}

func (a *echoAutomaton) Compute(k int, in Inbox) (Payload, Decision) {
	a.seen = append(a.seen, len(in.Round(k)))
	if a.decideAt > 0 && k >= a.decideAt {
		return nil, Decision{Decided: true, Value: a.v}
	}
	return setPayload{values.NewSet(a.v)}, Decision{}
}

func TestProcFirstEndOfRoundInitializes(t *testing.T) {
	p := NewProc(&echoAutomaton{v: values.Num(1)})
	env, ok := p.EndOfRound()
	if !ok {
		t.Fatal("first EndOfRound must broadcast")
	}
	if env.Round != 1 {
		t.Errorf("round = %d, want 1", env.Round)
	}
	if len(env.Payloads) != 1 {
		t.Fatalf("payloads = %d, want 1 (own initialize payload)", len(env.Payloads))
	}
	if p.CurrentRound() != 1 {
		t.Errorf("CurrentRound = %d, want 1", p.CurrentRound())
	}
}

func TestOwnPayloadInOwnInbox(t *testing.T) {
	// Algorithm 1 line 10: the process's own payload lands in its own inbox.
	p := NewProc(&echoAutomaton{v: values.Num(1)})
	p.EndOfRound()
	if p.InboxSize(1) != 1 {
		t.Errorf("own round-1 inbox size = %d, want 1", p.InboxSize(1))
	}
}

func TestAnonymityDedup(t *testing.T) {
	// Identical payloads from different senders collapse to one element.
	p := NewProc(&echoAutomaton{v: values.Num(1)})
	p.EndOfRound()
	same := setPayload{values.NewSet(values.Num(1))} // equals own payload
	other := setPayload{values.NewSet(values.Num(2))}
	p.Receive(Envelope{Round: 1, Payloads: []Payload{same}})
	p.Receive(Envelope{Round: 1, Payloads: []Payload{same, other}})
	if got := p.InboxSize(1); got != 2 {
		t.Errorf("inbox size = %d, want 2 (dedup by payload key)", got)
	}
}

func TestEnvelopeCarriesWholeInbox(t *testing.T) {
	// Relaying: payloads received for round k+1 before the k-th end-of-round
	// ride along in the process's own round-(k+1) broadcast.
	p := NewProc(&echoAutomaton{v: values.Num(1)})
	p.EndOfRound() // now in round 1
	early := setPayload{values.NewSet(values.Num(9))}
	p.Receive(Envelope{Round: 2, Payloads: []Payload{early}}) // future round
	env, ok := p.EndOfRound()                                 // enter round 2
	if !ok {
		t.Fatal("EndOfRound must broadcast")
	}
	if env.Round != 2 || len(env.Payloads) != 2 {
		t.Errorf("round-2 envelope = (%d, %d payloads), want (2, 2): own + relayed", env.Round, len(env.Payloads))
	}
}

func TestHaltStopsBroadcasting(t *testing.T) {
	p := NewProc(&echoAutomaton{v: values.Num(3), decideAt: 1})
	p.EndOfRound() // init
	if _, ok := p.EndOfRound(); ok {
		t.Error("deciding step must not broadcast")
	}
	if !p.Halted() {
		t.Fatal("process must be halted after decide")
	}
	d := p.Decision()
	if !d.Decided || d.Value != values.Num(3) {
		t.Errorf("decision = %+v", d)
	}
	if _, ok := p.EndOfRound(); ok {
		t.Error("halted process must not broadcast")
	}
	// Receives after halt are ignored.
	p.Receive(Envelope{Round: 1, Payloads: []Payload{setPayload{values.NewSet(values.Num(8))}}})
	if p.InboxSize(1) != 1 { // still just its own round-1 payload
		t.Error("halted process must ignore receives")
	}
}

func TestFreshResetPerRound(t *testing.T) {
	a := &echoAutomaton{v: values.Num(1)}
	p := NewProc(a)
	p.EndOfRound() // init; own payload merged → fresh contains it
	if len(p.Fresh()) != 1 {
		t.Fatalf("fresh after init = %d, want 1 (own payload)", len(p.Fresh()))
	}
	x := setPayload{values.NewSet(values.Num(7))}
	p.Receive(Envelope{Round: 1, Payloads: []Payload{x}})
	if len(p.Fresh()) != 2 {
		t.Fatalf("fresh = %d, want 2", len(p.Fresh()))
	}
	p.EndOfRound() // consumes fresh, merges own round-2 payload
	if len(p.Fresh()) != 1 {
		t.Errorf("fresh after end-of-round = %d, want 1 (only new own payload)", len(p.Fresh()))
	}
}

func TestRoundPayloadsDeterministicOrder(t *testing.T) {
	p := NewProc(&echoAutomaton{v: values.Num(5)})
	p.EndOfRound()
	// Arriving in descending fingerprint order.
	in := byFP(setPayload{values.NewSet(values.Num(1))}, setPayload{values.NewSet(values.Num(2))})
	slices.Reverse(in)
	p.Receive(Envelope{Round: 1, Payloads: in})
	got := p.Round(1)
	if len(got) != 3 {
		t.Fatalf("len = %d", len(got))
	}
	checkFPOrder(t, "Round(1)", got)
}

func TestNilPayloadPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil payload from automaton must panic")
		}
	}()
	p := NewProc(nilAutomaton{})
	p.EndOfRound()
}

type nilAutomaton struct{}

func (nilAutomaton) Initialize() Payload                    { return nil }
func (nilAutomaton) Compute(int, Inbox) (Payload, Decision) { return nil, Decision{} }

// TestDeliveredCountsOwnPayload: a process's own payload is in its own
// round inbox, and counts as delivered.
func TestDeliveredCountsOwnPayload(t *testing.T) {
	p := NewProc(&echoAutomaton{v: values.Num(1)})
	p.EndOfRound()
	if p.Delivered() != 1 {
		t.Errorf("Delivered = %d, want 1 (own payload)", p.Delivered())
	}
	if own := p.Round(1); len(own) != 1 || own[0].PayloadKey() != (setPayload{values.NewSet(values.Num(1))}).PayloadKey() {
		t.Errorf("round-1 inbox = %v, want the own payload", own)
	}
	p.Receive(Envelope{Round: 1, Payloads: []Payload{setPayload{values.NewSet(values.Num(7))}}})
	if p.Delivered() != 2 {
		t.Errorf("Delivered = %d, want 2", p.Delivered())
	}
}

// driveProc runs a proc for a few rounds with a peer payload mixed in and
// returns a behavior transcript (round, inbox sizes, envelope payloads).
func driveProc(t *testing.T, p *Proc) string {
	t.Helper()
	out := ""
	for r := 0; r < 4; r++ {
		env, ok := p.EndOfRound()
		out += fmt.Sprintf("r=%d ok=%v n=%d size=%d;", p.CurrentRound(), ok, len(env.Payloads), p.InboxSize(p.CurrentRound()))
		peer := setPayload{values.NewSet(values.Num(int64(90 + r)))}
		p.Receive(Envelope{Round: p.CurrentRound(), Payloads: []Payload{peer}})
		out += fmt.Sprintf("fresh=%d;", len(p.Fresh()))
	}
	return out
}

func TestProcResetMatchesFresh(t *testing.T) {
	// A Reset proc must behave byte-identically to a newly built one, with
	// inbox storage recycled rather than reallocated.
	fresh := NewProc(&echoAutomaton{v: values.Num(1)})
	want := driveProc(t, fresh)

	reused := NewProc(&echoAutomaton{v: values.Num(7)})
	driveProc(t, reused) // dirty it with a different automaton's run
	reused.Reset(&echoAutomaton{v: values.Num(1)})
	if reused.CurrentRound() != 0 || reused.Halted() || reused.Decision().Decided ||
		reused.Delivered() != 0 || reused.InboxRounds() != 0 {
		t.Fatal("Reset left framework state behind")
	}
	if got := driveProc(t, reused); got != want {
		t.Errorf("reused proc diverged:\n got %s\nwant %s", got, want)
	}
}

func TestProcResetRecyclesInboxStorage(t *testing.T) {
	p := NewProc(&echoAutomaton{v: values.Num(1)})
	driveProc(t, p)
	rounds := p.InboxRounds()
	if rounds == 0 {
		t.Fatal("run left no inbox rounds to recycle")
	}
	p.Reset(&echoAutomaton{v: values.Num(2)})
	if len(p.spare) != rounds {
		t.Errorf("spare inboxes = %d, want %d (all rounds recycled)", len(p.spare), rounds)
	}
	p.EndOfRound()
	if len(p.spare) != rounds-1 {
		t.Errorf("spare inboxes after a merge = %d, want %d (storage reused)", len(p.spare), rounds-1)
	}
}

// localEcho is echoAutomaton declared round-local: its Compute reads
// Round(k) alone.
type localEcho struct{ echoAutomaton }

func (*localEcho) ReadsOnlyRound() {}

func TestRetireRecyclesComputedRounds(t *testing.T) {
	p := NewProc(&localEcho{echoAutomaton{v: values.Num(1)}})
	p.EndOfRound() // round 1 holds the own payload
	for r := 2; r <= 3; r++ {
		p.Receive(Envelope{Round: r, Payloads: []Payload{sp(values.Num(int64(10 + r)))}})
	}
	p.EndOfRound()
	p.EndOfRound() // rounds 1..3 populated, 1 and 2 computed
	if p.InboxRounds() != 1 {
		t.Fatalf("rounds after computing 1 and 2 = %d, want 1", p.InboxRounds())
	}
	if len(p.spare) != 2 {
		t.Errorf("spare inboxes = %d, want 2", len(p.spare))
	}
}

// TestStaleEnvelopeDroppedOnlyByRoundLocal: an envelope for a computed
// round changes nothing in a round-local process — not the round's size,
// not Fresh, not Delivered — while a process without the marker still
// merges it and reports it in Fresh, as Algorithm 4 needs. In both, the
// envelope's second delivery changes nothing.
func TestStaleEnvelopeDroppedOnlyByRoundLocal(t *testing.T) {
	late := Envelope{
		Round:          1,
		Payloads:       []Payload{sp(values.Num(7))},
		SetFingerprint: values.FingerprintString("late"),
	}
	type state struct{ size1, size2, fresh, delivered int }
	snap := func(p *Proc) state {
		return state{p.InboxSize(1), p.InboxSize(2), len(p.Fresh()), p.Delivered()}
	}
	for _, tc := range []struct {
		name  string
		aut   Automaton
		local bool
	}{
		{"round-local", &localEcho{echoAutomaton{v: values.Num(1)}}, true},
		{"unmarked", &echoAutomaton{v: values.Num(1)}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := NewProc(tc.aut)
			p.EndOfRound()
			p.EndOfRound() // round 1 computed, now in round 2
			before := snap(p)
			p.Receive(late)
			after := snap(p)
			want := before
			if !tc.local {
				want.size1++
				want.fresh++
				want.delivered++
				if got := p.Fresh()[len(p.Fresh())-1]; got.PayloadKey() != late.Payloads[0].PayloadKey() {
					t.Errorf("Fresh ends with %v, want the late payload", got)
				}
			}
			if after != want {
				t.Errorf("after a stale envelope: %+v, want %+v", after, want)
			}
			p.Receive(late)
			if got := snap(p); got != want {
				t.Errorf("after its duplicate: %+v, want %+v", got, want)
			}
		})
	}
}
