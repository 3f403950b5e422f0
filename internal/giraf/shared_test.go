package giraf

import (
	"fmt"
	"slices"
	"testing"

	"anonconsensus/internal/values"
)

// localStatic is staticAut declared round-local, as SharedRound requires.
type localStatic struct{ staticAut }

func (*localStatic) ReadsOnlyRound() {}

// sharedSpec describes one process of a shared-round test: its own payload
// and the payloads it already received for round 1 when it broadcasts.
type sharedSpec struct {
	own    int64
	extras []int64
}

func fpSet(vs ...int64) Payload {
	elems := make([]values.Value, len(vs))
	for i, v := range vs {
		elems[i] = values.Num(v)
	}
	return setPayload{values.NewSet(elems...)}
}

// broadcastRound1 builds one process per spec, in round 1 with its round-1
// envelope broadcast, and returns them with the envelopes.
func broadcastRound1(specs []sharedSpec) ([]*Proc, []Envelope) {
	procs := make([]*Proc, len(specs))
	envs := make([]Envelope, len(specs))
	for i, sp := range specs {
		p := NewProc(&localStatic{staticAut{pay: fpSet(sp.own)}})
		for _, x := range sp.extras {
			p.Receive(Envelope{Round: 1, Payloads: []Payload{fpSet(x)}})
		}
		env, ok := p.EndOfRound()
		if !ok {
			panic("no broadcast")
		}
		procs[i], envs[i] = p, env
	}
	return procs, envs
}

func envPtrs(envs []Envelope) []*Envelope {
	out := make([]*Envelope, len(envs))
	for i := range envs {
		out[i] = &envs[i]
	}
	return out
}

// procView is everything a delivery can change in a process, as the
// shared-round tests compare it.
func procView(p *Proc, k int) string {
	var keys []string
	for _, pay := range p.Round(k) {
		keys = append(keys, pay.PayloadKey())
	}
	var fps []values.Fingerprint
	if ri := p.roundAt(k); ri != nil {
		fps = slices.Clone(ri.fps)
	}
	slices.SortFunc(fps, values.Fingerprint.Compare)
	return fmt.Sprintf("delivered=%d round=%d keys=%v fps=%v",
		p.Delivered(), p.CurrentRound(), keys, fps)
}

// TestSharedRoundMatchesReceive is SharedRound's differential test: a
// delivered round leaves every process exactly as Receive-ing every other
// process's envelope in order would — Delivered and the round's payloads —
// and so do the envelopes that follow: one more into the adopted round
// (copy on write), then, once the round is computed, late duplicates of the
// process's own set, of a merged set, of the last envelope and of a new one.
func TestSharedRoundMatchesReceive(t *testing.T) {
	singles := func(n int) []sharedSpec {
		specs := make([]sharedSpec, n)
		for i := range specs {
			specs[i] = sharedSpec{own: int64(i + 1)}
		}
		return specs
	}
	cases := []struct {
		name    string
		specs   []sharedSpec
		prepare func(procs []*Proc) // applied to both runs before delivery
	}{
		{"distinct singletons", singles(5), nil},
		{"twelve distinct singletons", singles(12), nil},
		{"overlapping sets", []sharedSpec{{1, []int64{10}}, {2, []int64{10, 11}}, {3, nil}, {4, []int64{11}}}, nil},
		{"own set is the union", []sharedSpec{{1, []int64{2, 3}}, {2, nil}, {3, nil}}, nil},
		{"uniform", []sharedSpec{{7, nil}, {7, nil}, {7, nil}, {7, nil}}, nil},
		{"uniform sets", []sharedSpec{{7, []int64{8}}, {8, []int64{7}}, {7, []int64{8}}}, nil},
		// A merge that adds nothing leaves the round holding exactly the
		// set the process broadcast, so the round is still taken.
		{"receiver already merged a set it holds", []sharedSpec{{1, nil}, {2, nil}},
			func(procs []*Proc) {
				procs[0].Receive(Envelope{Round: 1, Payloads: []Payload{fpSet(1)}, SetFingerprint: values.FingerprintString("x")})
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			shared, envs := broadcastRound1(tc.specs)
			ref, _ := broadcastRound1(tc.specs)
			if tc.prepare != nil {
				tc.prepare(shared)
				tc.prepare(ref)
			}
			var s SharedRound
			if !s.Deliver(1, envPtrs(envs), shared) {
				t.Fatal("Deliver declined the round")
			}
			for i, p := range ref {
				for j, env := range envs {
					if j != i {
						p.Receive(env)
					}
				}
			}
			compare := func(stage string, k int) {
				t.Helper()
				for i := range ref {
					if got, want := procView(shared[i], k), procView(ref[i], k); got != want {
						t.Fatalf("%s, process %d:\n shared    %s\n reference %s", stage, i, got, want)
					}
				}
			}
			compare("after the round", 1)
			more := Envelope{Round: 1, Payloads: []Payload{fpSet(99)}, SetFingerprint: values.FingerprintString("more")}
			shared[0].Receive(more)
			ref[0].Receive(more)
			compare("after one more envelope", 1)
			for i := range ref {
				shared[i].EndOfRound()
				ref[i].EndOfRound()
			}
			compare("after computing the round", 1)
			late := []Envelope{envs[0], envs[len(envs)-1], more,
				{Round: 1, Payloads: []Payload{fpSet(98)}, SetFingerprint: values.FingerprintString("late")}}
			for _, env := range late {
				for i := range ref {
					shared[i].Receive(env)
					ref[i].Receive(env)
				}
				compare("after a late envelope", 1)
			}
		})
	}
}

// TestSharedRoundDeclines: a round with neither shape — some sets equal,
// some not — or a receiver not in a timely round's starting state is left
// to per-envelope delivery, and Deliver changes nothing.
func TestSharedRoundDeclines(t *testing.T) {
	cases := []struct {
		name    string
		specs   []sharedSpec
		silent  int // the last silent processes receive but send nothing
		prepare func(procs []*Proc, envs []Envelope)
	}{
		{"mixed sets", []sharedSpec{{1, nil}, {1, nil}, {2, nil}}, 0, nil},
		{"receiver already merged an envelope", []sharedSpec{{1, nil}, {2, nil}, {3, nil}}, 0,
			func(procs []*Proc, envs []Envelope) { procs[0].Receive(envs[1]) }},
		{"receiver's set not sent, uniform", []sharedSpec{{1, nil}, {1, nil}, {2, nil}}, 1, nil},
		{"receiver's set not sent, distinct", []sharedSpec{{1, nil}, {2, nil}, {3, nil}}, 1, nil},
		{"receiver not round-local", []sharedSpec{{1, nil}, {2, nil}}, 0,
			func(procs []*Proc, envs []Envelope) { procs[1].roundLocal = false }},
		{"envelope without set fingerprint", []sharedSpec{{1, nil}, {2, nil}}, 0,
			func(procs []*Proc, envs []Envelope) { envs[0].SetFingerprint = values.Fingerprint{} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			procs, envs := broadcastRound1(tc.specs)
			if tc.prepare != nil {
				tc.prepare(procs, envs)
			}
			envs = envs[:len(envs)-tc.silent]
			before := make([]string, len(procs))
			for i, p := range procs {
				before[i] = procView(p, 1)
			}
			var s SharedRound
			if s.Deliver(1, envPtrs(envs), procs) {
				t.Fatal("Deliver took the round")
			}
			for i, p := range procs {
				if got := procView(p, 1); got != before[i] {
					t.Errorf("process %d changed:\n %s\n was %s", i, got, before[i])
				}
			}
		})
	}
}

// TestAdoptedRoundCopyOnWrite: a Receive into an adopted round copies it
// first, so the shared set and the other adopters keep what they held.
func TestAdoptedRoundCopyOnWrite(t *testing.T) {
	procs, envs := broadcastRound1([]sharedSpec{{1, nil}, {2, nil}, {3, nil}})
	var s SharedRound
	if !s.Deliver(1, envPtrs(envs), procs) {
		t.Fatal("Deliver declined the round")
	}
	union := s.ri
	want := []string{procView(procs[1], 1), procView(procs[2], 1)}
	procs[0].Receive(Envelope{Round: 1, Payloads: []Payload{fpSet(9)}, SetFingerprint: values.FingerprintString("9")})
	if got := procs[0].InboxSize(1); got != 4 {
		t.Errorf("writer's round holds %d payloads, want 4", got)
	}
	if procs[0].inbox[1] == union || procs[0].shared != nil {
		t.Error("writer still holds the shared storage")
	}
	if len(union.pays) != 3 || union.adopters != 2 {
		t.Errorf("shared set holds %d payloads with %d adopters, want 3 and 2", len(union.pays), union.adopters)
	}
	for i, p := range procs[1:] {
		if got := procView(p, 1); got != want[i] || p.inbox[1] != union {
			t.Errorf("another adopter changed: %s, want %s", got, want[i])
		}
	}
}

// TestSharedStorageNeverRecycled: retire and Reset drop an adopted round
// without putting its storage on a spare list, and a SharedRound does not
// rewrite storage a process still holds.
func TestSharedStorageNeverRecycled(t *testing.T) {
	specs := []sharedSpec{{1, nil}, {2, nil}, {3, nil}}
	procs, envs := broadcastRound1(specs)
	var s SharedRound
	if !s.Deliver(1, envPtrs(envs), procs) {
		t.Fatal("Deliver declined the round")
	}
	union := s.ri
	held := procView(procs[2], 1)
	procs[0].EndOfRound() // retire
	procs[1].Reset(procs[1].aut)
	for i, p := range procs[:2] {
		if slices.Contains(p.spare, union) || p.shared != nil {
			t.Errorf("process %d: shared storage on the spare list or still held", i)
		}
	}
	if union.adopters != 1 {
		t.Fatalf("adopters = %d, want 1", union.adopters)
	}
	again, envs2 := broadcastRound1([]sharedSpec{{4, nil}, {5, nil}})
	if !s.Deliver(1, envPtrs(envs2), again) {
		t.Fatal("Deliver declined the second round")
	}
	if s.ri == union {
		t.Error("SharedRound rewrote storage a process still holds")
	}
	if got := procView(procs[2], 1); got != held {
		t.Errorf("holder's round changed:\n %s\n was %s", got, held)
	}
	procs[2].Reset(procs[2].aut)
	if union.adopters != 0 || slices.Contains(procs[2].spare, union) {
		t.Errorf("after the last holder's Reset: adopters %d, on a spare list %v", union.adopters, slices.Contains(procs[2].spare, union))
	}
}

// TestSharedAggregateCell: every adopter of one round gets the same cell;
// a process gets none for a round it did not adopt, for another round
// number, or once it copied the round into its own storage; and a
// SharedRound that rebuilds its storage for a later round starts the cell
// empty.
func TestSharedAggregateCell(t *testing.T) {
	procs, envs := broadcastRound1([]sharedSpec{{1, nil}, {2, nil}, {3, nil}})
	if cell := procs[0].SharedAggregate(1); cell != nil {
		t.Fatal("a cell before any round was adopted")
	}
	var s SharedRound
	if !s.Deliver(1, envPtrs(envs), procs) {
		t.Fatal("Deliver declined the round")
	}
	cell := procs[0].SharedAggregate(1)
	if cell == nil || *cell != nil {
		t.Fatalf("first adopter's cell %v, want an empty one", cell)
	}
	*cell = "aggregate"
	for i, p := range procs {
		if got := p.SharedAggregate(1); got != cell {
			t.Errorf("process %d's cell %p, want the first adopter's %p", i, got, cell)
		}
		for _, k := range []int{0, 2} {
			if p.SharedAggregate(k) != nil {
				t.Errorf("process %d adopted round 1 but has a cell for round %d", i, k)
			}
		}
	}
	procs[0].Receive(Envelope{Round: 1, Payloads: []Payload{fpSet(9)}, SetFingerprint: values.FingerprintString("9")})
	if procs[0].SharedAggregate(1) != nil {
		t.Error("a cell after the round was copied into the process's own storage")
	}
	if got := procs[1].SharedAggregate(1); got != cell || *got != "aggregate" {
		t.Error("another adopter lost the cell or its value")
	}

	uniform, envsU := broadcastRound1([]sharedSpec{{7, nil}, {7, nil}})
	if !s.Deliver(1, envPtrs(envsU), uniform) {
		t.Fatal("Deliver declined the uniform round")
	}
	if uniform[0].SharedAggregate(1) != nil {
		t.Error("a cell for a uniform round, which nobody adopts")
	}

	for _, p := range procs[1:] {
		p.EndOfRound()
	}
	union := s.ri
	again, envs2 := broadcastRound1([]sharedSpec{{4, nil}, {5, nil}})
	if !s.Deliver(1, envPtrs(envs2), again) {
		t.Fatal("Deliver declined the second round")
	}
	if s.ri != union {
		t.Fatal("the second round did not reuse the released storage")
	}
	if got := again[0].SharedAggregate(1); got == nil {
		t.Error("no cell for the rebuilt round")
	} else if *got != nil {
		t.Errorf("the rebuilt round's cell holds %v, want it empty", *got)
	}
}
