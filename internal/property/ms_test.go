package property

import (
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"anonconsensus/internal/giraf"
	"anonconsensus/internal/values"
)

// round is one round of a hand-built record: the ids sent, what each
// computing process held, and what processes that never computed held.
type round struct {
	sent       []string
	held, idle map[int][]string
}

func record(rounds map[int]round) *Record[string] {
	var r Record[string]
	for k, rd := range rounds {
		for _, id := range rd.sent {
			r.Send(k, id)
		}
		for p, ids := range rd.held {
			r.Compute(k, p)
			for _, id := range ids {
				r.Hold(k, p, id)
			}
		}
		for p, ids := range rd.idle {
			for _, id := range ids {
				r.Hold(k, p, id)
			}
		}
	}
	return &r
}

func TestCheckMSDetectsViolation(t *testing.T) {
	// No message reached every inbox.
	r := record(map[int]round{1: {sent: []string{"a", "b"}, held: map[int][]string{0: {"a"}, 1: {"b"}}}})
	if err := CheckMS(r, math.MaxInt); err == nil {
		t.Error("violation not detected")
	}
}

func TestCheckMSNamesSmallestViolatingRound(t *testing.T) {
	// Rounds 2 and 5 both lack a source; the report must name round 2
	// every time, whatever the map iteration order.
	rounds := map[int]round{}
	for _, k := range []int{5, 1, 2} {
		a := []string{"a"}
		if k == 1 {
			a = []string{"a", "b"}
		}
		rounds[k] = round{sent: []string{"a", "b"}, held: map[int][]string{0: a, 1: {"b"}}}
	}
	for i := 0; i < 50; i++ {
		err := CheckMS(record(rounds), math.MaxInt)
		if err == nil || !strings.Contains(err.Error(), "round 2:") {
			t.Fatalf("check %d: %v, want round 2 named", i, err)
		}
	}
}

func TestCheckMS(t *testing.T) {
	sourceless := round{sent: []string{"a", "b"}, held: map[int][]string{0: {"a"}, 1: {"b"}}}
	for _, tc := range []struct {
		name    string
		rounds  map[int]round
		through int
		want    string // "" when MS holds
	}{
		{"every round has a source", map[int]round{
			1: {sent: []string{"a", "b"}, held: map[int][]string{0: {"a", "b"}, 1: {"b"}}},
			2: {sent: []string{"a", "b"}, held: map[int][]string{0: {"a"}, 1: {"a", "b"}}},
		}, math.MaxInt, ""},
		{"a lone process is its own source", map[int]round{
			1: {sent: []string{"a"}, held: map[int][]string{0: {"a"}}},
		}, math.MaxInt, ""},
		{"a cycle of late links leaves no source", map[int]round{
			1: {sent: []string{"0", "1", "2"}, held: map[int][]string{0: {"0", "1", "2"}, 1: {"0", "1", "2"}, 2: {"0", "1", "2"}}},
			2: {sent: []string{"0", "1", "2"}, held: map[int][]string{0: {"0", "1"}, 1: {"1", "2"}, 2: {"0", "2"}}},
		}, math.MaxInt, "MS violated in round 2: no round-2 message reached all of [0 1 2]"},
		{"a sender that crashed after sending still counts as a source", map[int]round{
			1: {sent: []string{"a", "b", "c"}, held: map[int][]string{1: {"a", "b"}, 2: {"a", "c"}}},
		}, math.MaxInt, ""},
		{"a message nobody sent is no source", map[int]round{
			1: {sent: []string{"a", "b"}, held: map[int][]string{0: {"a", "x"}, 1: {"b", "x"}}},
		}, math.MaxInt, "MS violated in round 1: no round-1 message reached all of [0 1]"},
		{"a holder that did not compute does not count", map[int]round{
			1: {sent: []string{"a", "b"}, held: map[int][]string{0: {"b"}}, idle: map[int][]string{1: {"a"}}},
		}, math.MaxInt, ""},
		{"a round nobody computed is skipped", map[int]round{
			1: {sent: []string{"a"}, held: map[int][]string{0: {"a"}, 1: {"a"}}},
			2: {sent: []string{"a", "b"}},
			3: {sent: []string{"a"}, held: map[int][]string{0: {"a"}}},
		}, math.MaxInt, ""},
		{"through stops before a later sourceless round", map[int]round{
			1: {sent: []string{"a"}, held: map[int][]string{0: {"a"}, 1: {"a"}}},
			2: sourceless,
		}, 1, ""},
		{"through clamps to the last computed round", map[int]round{
			1: sourceless,
			2: {sent: []string{"a"}},
		}, 7, "MS violated in round 1: no round-1 message reached all of [0 1]"},
	} {
		got := ""
		if err := CheckMS(record(tc.rounds), tc.through); err != nil {
			got = err.Error()
		}
		if got != tc.want {
			t.Errorf("%s: got %q, want %q", tc.name, got, tc.want)
		}
		if KindOf(got) != "MS" && got != "" {
			t.Errorf("%s: kind %q", tc.name, KindOf(got))
		}
	}
}

// counter sends its id and then, in each round, its id and the number of
// payloads it held; it decides in round 2.
type counter struct{ id int }

type count int

func (c count) PayloadKey() string { return strconv.Itoa(int(c)) }

func (c counter) Initialize() giraf.Payload { return count(c.id) }

func (c counter) Compute(k int, in giraf.Inbox) (giraf.Payload, giraf.Decision) {
	return count(100*c.id + 10*k + len(in.Round(k))), giraf.Decision{Decided: k == 2, Value: "v"}
}

type localCounter struct{ counter }

func (localCounter) ReadsOnlyRound() {}

// TestRecorder drives two wrapped processes by hand: what each sent and
// held is recorded under its payload's fingerprint, a deciding Compute
// sends nothing, and the round-local marker survives the wrapper.
func TestRecorder(t *testing.T) {
	rec := NewRecorder(func(i int) giraf.Automaton {
		if i == 1 {
			return localCounter{counter{i}}
		}
		return counter{i}
	})
	if _, ok := rec.Automaton(0).(giraf.RoundLocal); ok {
		t.Error("wrapper of a plain automaton is round-local")
	}
	if _, ok := rec.Automaton(1).(giraf.RoundLocal); !ok {
		t.Error("wrapper dropped the RoundLocal marker")
	}
	procs := []*giraf.Proc{giraf.NewProc(rec.Automaton(0)), giraf.NewProc(rec.Automaton(1))}
	for step := 0; step < 3; step++ {
		var envs []giraf.Envelope
		for _, p := range procs {
			if env, ok := p.EndOfRound(); ok {
				envs = append(envs, env)
			}
		}
		for _, env := range envs {
			for _, p := range procs {
				p.Receive(env)
			}
		}
	}
	id := func(c count) values.Fingerprint { return values.FingerprintString(c.PayloadKey()) }
	r := &rec.Record
	if got := r.Sent(1); len(got) != 2 || !slices.Contains(got, id(0)) || !slices.Contains(got, id(1)) {
		t.Errorf("round 1 sent %v", got)
	}
	if got := r.Sent(3); len(got) != 0 {
		t.Errorf("a deciding Compute sent %v", got)
	}
	for k := 1; k <= 2; k++ {
		if got := r.Computed(k); len(got) != 2 {
			t.Errorf("round %d computed by %v", k, got)
		}
		for p := 0; p < 2; p++ {
			if held := r.Held(k, p); len(held) != 2 {
				t.Errorf("process %d held %v in round %d, want both round-%d payloads", p, held, k, k)
			}
		}
	}
	if err := CheckMS(&rec.Record, math.MaxInt); err != nil {
		t.Error(err)
	}
}
