package giraf

import (
	"fmt"
	"testing"

	"anonconsensus/internal/values"
)

// TestInboxRoundAllocsWarm pins the refactor's core property: reading a
// round view re-sorts nothing and, once the snapshot is built, allocates
// nothing.
func TestInboxRoundAllocsWarm(t *testing.T) {
	p := NewProc(&staticAut{pay: sp(values.Num(0))})
	for i := 1; i <= 8; i++ {
		p.Receive(Envelope{Round: 1, Payloads: []Payload{sp(values.Num(int64(i)))}})
	}
	_ = p.Round(1) // build the snapshot
	if n := testing.AllocsPerRun(100, func() { _ = p.Round(1) }); n != 0 {
		t.Errorf("Inbox.Round on settled round: %v allocs/op, want 0", n)
	}
}

// TestMergeDedupAllocsWarm: merging an already-known payload set must not
// allocate (fingerprint lookups only) and adds nothing to Delivered.
func TestMergeDedupAllocsWarm(t *testing.T) {
	p := NewProc(&staticAut{pay: sp(values.Num(0))})
	env := Envelope{
		Round:          1,
		Payloads:       []Payload{sp(values.Num(1)), sp(values.Num(2))},
		SetFingerprint: values.FingerprintString("warm-env"),
	}
	p.Receive(env)
	before := p.Delivered()
	if n := testing.AllocsPerRun(100, func() { p.Receive(env) }); n != 0 {
		t.Errorf("duplicate envelope merge: %v allocs/op, want 0", n)
	}
	if p.Delivered() != before {
		t.Errorf("duplicate deliveries moved Delivered from %d to %d", before, p.Delivered())
	}
}

// TestMergeDedupNoFingerprintAllocsWarm: without a set fingerprint, a
// duplicate envelope's element-wise merge must not allocate either.
func TestMergeDedupNoFingerprintAllocsWarm(t *testing.T) {
	p := NewProc(&staticAut{pay: sp(values.Num(0))})
	env := Envelope{
		Round:    1,
		Payloads: []Payload{sp(values.Num(1)), sp(values.Num(2))},
	}
	p.Receive(env)
	if n := testing.AllocsPerRun(100, func() { p.Receive(env) }); n != 0 {
		t.Errorf("duplicate envelope merge: %v allocs/op, want 0", n)
	}
}

// TestDominanceSkipViaBroadcastCache pins the steady-state delivery: once a
// process has broadcast a round, an inbound envelope carrying the same set
// adds nothing — no allocation, no Delivered, no Fresh.
func TestDominanceSkipViaBroadcastCache(t *testing.T) {
	p := NewProc(&staticAut{pay: sp(values.Num(0))})
	env, ok := p.EndOfRound() // broadcast round 1, caching its set fingerprint
	if !ok || env.SetFingerprint.IsZero() {
		t.Fatalf("broadcast envelope missing set fingerprint: %+v, ok=%v", env, ok)
	}
	delivered, fresh := p.Delivered(), len(p.Fresh())
	if n := testing.AllocsPerRun(100, func() { p.Receive(env) }); n != 0 {
		t.Errorf("echo of own broadcast: %v allocs/op, want 0", n)
	}
	if p.Delivered() != delivered || len(p.Fresh()) != fresh {
		t.Errorf("echoes of own broadcast moved Delivered %d → %d, Fresh %d → %d",
			delivered, p.Delivered(), fresh, len(p.Fresh()))
	}
}

// TestReceiveNewAllocsWarm pins the warmed merge path of a big round: a
// recycled Proc receiving 64 single-payload envelopes, every payload new,
// into one round — past the scan threshold, so the index table is built
// and doubled on the way — allocates nothing. The round's slices, its index
// table and the Fresh buffer all grew in the previous run and are reused;
// what Reset + the initialization end-of-round allocate by themselves is
// measured separately and subtracted.
func TestReceiveNewAllocsWarm(t *testing.T) {
	aut := &staticAut{pay: benchPayloads(1<<30, 1)[0]}
	var envs []Envelope
	for i, pay := range benchPayloads(0, 64) {
		envs = append(envs, Envelope{
			Round:          1,
			Payloads:       []Payload{pay},
			SetFingerprint: values.FingerprintString(fmt.Sprint("single-", i)),
		})
	}
	p := NewProc(aut)
	rearm := func() {
		p.Reset(aut)
		p.EndOfRound()
	}
	run := func() {
		rearm()
		for _, env := range envs {
			p.Receive(env)
		}
	}
	run() // pays the growth once
	if got := p.InboxSize(1); got != 65 {
		t.Fatalf("round 1 holds %d payloads, want 65", got)
	}
	if len(p.Fresh()) != 65 {
		t.Fatalf("Fresh has %d payloads, want 65 (own + 64 delivered)", len(p.Fresh()))
	}
	base := testing.AllocsPerRun(50, rearm)
	if n := testing.AllocsPerRun(50, run); n != base {
		t.Errorf("64 new single-payload deliveries into a warmed round: %v allocs/run, want %v (what rearming alone costs)", n, base)
	}
}
