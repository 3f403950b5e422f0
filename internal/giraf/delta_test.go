package giraf

import (
	"slices"
	"testing"

	"anonconsensus/internal/values"
)

func sp(vs ...values.Value) Payload {
	return setPayload{values.NewSet(vs...)}
}

func keysOf(pays []Payload) []string {
	out := make([]string, len(pays))
	for i, p := range pays {
		out[i] = p.PayloadKey()
	}
	return out
}

// byFP returns pays sorted by fingerprint, the order of a round.
func byFP(pays ...Payload) []Payload {
	out := slices.Clone(pays)
	slices.SortFunc(out, byFingerprint)
	return out
}

// checkFPOrder fails unless pays are strictly ascending by fingerprint: the
// order every process reads a round in, whatever the arrival order.
func checkFPOrder(t *testing.T, what string, pays []Payload) {
	t.Helper()
	for i := 1; i < len(pays); i++ {
		if pays[i-1].PayloadFingerprint().Compare(pays[i].PayloadFingerprint()) >= 0 {
			t.Fatalf("%s not in fingerprint order: %q", what, keysOf(pays))
		}
	}
}

func TestDeltaShrinkAndResolve(t *testing.T) {
	// a, b, c ascend by fingerprint, so c, the one payload the second
	// envelope carries in full, arrives before the refs but sorts after them.
	ps := byFP(sp(values.Num(1)), sp(values.Num(2)), sp(values.Num(1), values.Num(2)))
	a, b, c := ps[0], ps[1], ps[2]
	tracker := NewDeltaTracker()
	table := NewResolveTable()

	// First envelope: full-set fallback — nothing elided.
	env1 := Envelope{Round: 1, Payloads: []Payload{a, b}}
	d1 := tracker.Shrink(env1)
	if len(d1.Refs) != 0 || len(d1.Payloads) != 2 {
		t.Fatalf("first shrink must be full: %d refs, %d payloads", len(d1.Refs), len(d1.Payloads))
	}
	r1, err := table.Resolve(d1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Payloads) != 2 {
		t.Fatalf("resolved first envelope has %d payloads", len(r1.Payloads))
	}

	// Second envelope repeats a and b and adds c: only c travels in full.
	env2 := Envelope{Round: 2, Payloads: []Payload{a, b, c}}
	d2 := tracker.Shrink(env2)
	if len(d2.Refs) != 2 || len(d2.Payloads) != 1 {
		t.Fatalf("second shrink: %d refs, %d payloads (want 2, 1)", len(d2.Refs), len(d2.Payloads))
	}
	r2, err := table.Resolve(d2)
	if err != nil {
		t.Fatal(err)
	}
	if len(r2.Payloads) != 3 {
		t.Fatalf("resolved second envelope has %d payloads, want 3", len(r2.Payloads))
	}
	// Resolution restores fingerprint order — identical to the full form.
	if got, want := keysOf(r2.Payloads), keysOf(env2.Payloads); !slices.Equal(got, want) {
		t.Fatalf("resolved payloads %q, want the full envelope's %q", got, want)
	}
}

func TestResolveUnresolvableRef(t *testing.T) {
	table := NewResolveTable()
	_, err := table.Resolve(Envelope{Round: 1, Refs: []values.Fingerprint{{Hi: 1, Lo: 2}}})
	if err == nil {
		t.Fatal("resolving an unknown reference must fail")
	}
}

// TestDeltaWindowResendsAfterAbsence: references only reach back one
// envelope — a payload that skips an envelope travels in full again, the
// property that keeps sender state bounded to one envelope's fingerprints.
func TestDeltaWindowResendsAfterAbsence(t *testing.T) {
	a, b := sp(values.Num(1)), sp(values.Num(2))
	tr := NewDeltaTracker()
	_ = tr.Shrink(Envelope{Round: 1, Payloads: []Payload{a}})
	_ = tr.Shrink(Envelope{Round: 2, Payloads: []Payload{b}}) // a absent
	d := tr.Shrink(Envelope{Round: 3, Payloads: []Payload{a}})
	if len(d.Refs) != 0 || len(d.Payloads) != 1 {
		t.Fatalf("reappearing payload must travel full: %d refs, %d payloads", len(d.Refs), len(d.Payloads))
	}
}

// TestResolveTableEvictsOutsideWindow: retention is bounded — a payload
// not observed for resolveWindow frames ages out, while continuously
// referenced payloads stay resolvable indefinitely.
func TestResolveTableEvictsOutsideWindow(t *testing.T) {
	hot, cold := sp(values.Num(1)), sp(values.Num(2))
	hotFP, coldFP := hot.PayloadFingerprint(), cold.PayloadFingerprint()
	rt := NewResolveTable()
	if _, err := rt.Resolve(Envelope{Round: 1, Payloads: []Payload{hot, cold}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < resolveWindow+8; i++ {
		// hot is referenced every frame; cold never again.
		if _, err := rt.Resolve(Envelope{Round: 2 + i, Refs: []values.Fingerprint{hotFP}}); err != nil {
			t.Fatalf("continuously referenced payload aged out at frame %d: %v", i, err)
		}
	}
	if _, err := rt.Resolve(Envelope{Round: 9999, Refs: []values.Fingerprint{coldFP}}); err == nil {
		t.Fatal("payload unobserved for a full window must be evicted")
	}
	if rt.Len() > 4 {
		t.Errorf("table retains %d entries after eviction, want a handful", rt.Len())
	}
}

func TestDeltaTrackerPerStreamIndependence(t *testing.T) {
	a := sp(values.Num(1))
	t1, t2 := NewDeltaTracker(), NewDeltaTracker()
	_ = t1.Shrink(Envelope{Round: 1, Payloads: []Payload{a}})
	d := t2.Shrink(Envelope{Round: 1, Payloads: []Payload{a}})
	if len(d.Payloads) != 1 || len(d.Refs) != 0 {
		t.Fatal("trackers must not share sent state across streams")
	}
}

// TestDuplicateEnvelopeIdempotent: re-merging a structurally identical
// envelope changes nothing — fingerprint-level dedup makes delivery
// idempotent, which is what reliable-but-duplicating transports rely on.
func TestDuplicateEnvelopeIdempotent(t *testing.T) {
	p := NewProc(&staticAut{pay: sp(values.Num(9))})
	env := Envelope{
		Round:          1,
		Payloads:       []Payload{sp(values.Num(1)), sp(values.Num(2))},
		SetFingerprint: values.FingerprintString("test-env"),
	}
	p.Receive(env)
	if p.Delivered() != 2 || p.InboxSize(1) != 2 {
		t.Fatalf("first merge: delivered=%d size=%d", p.Delivered(), p.InboxSize(1))
	}
	p.Receive(env) // identical envelope: every payload dedups in O(1)
	if p.Delivered() != 2 || p.InboxSize(1) != 2 {
		t.Fatalf("duplicate merge changed state: delivered=%d size=%d", p.Delivered(), p.InboxSize(1))
	}
	// A different envelope for the same round still merges.
	p.Receive(Envelope{
		Round:          1,
		Payloads:       []Payload{sp(values.Num(3))},
		SetFingerprint: values.FingerprintString("test-env-2"),
	})
	if p.Delivered() != 3 || p.InboxSize(1) != 3 {
		t.Fatalf("distinct envelope not merged: delivered=%d size=%d", p.Delivered(), p.InboxSize(1))
	}
}

// TestRoundViewIncrementalOrder: insertions in arbitrary order always read
// back in fingerprint order, and the cached view is refreshed on growth.
func TestRoundViewIncrementalOrder(t *testing.T) {
	p := NewProc(&staticAut{pay: sp(values.Num(0))})
	// Descending by fingerprint: each arrival sorts before the ones held.
	in := byFP(sp(values.Num(5)), sp(values.Num(1)), sp(values.Num(3)))
	slices.Reverse(in)
	p.Receive(Envelope{Round: 1, Payloads: in[:1]})
	p.Receive(Envelope{Round: 1, Payloads: in[1:2]})
	first := p.Round(1)
	if len(first) != 2 {
		t.Fatalf("round view has %d payloads", len(first))
	}
	p.Receive(Envelope{Round: 1, Payloads: in[2:]})
	second := p.Round(1)
	if len(second) != 3 {
		t.Fatalf("round view did not grow: %d", len(second))
	}
	if len(first) != 2 {
		t.Fatal("previously returned snapshot mutated by later insertion")
	}
	checkFPOrder(t, "round view", second)
}

// staticAut is a trivial automaton for inbox-level tests.
type staticAut struct{ pay Payload }

func (a *staticAut) Initialize() Payload { return a.pay }
func (a *staticAut) Compute(k int, inbox Inbox) (Payload, Decision) {
	return a.pay, Decision{}
}
