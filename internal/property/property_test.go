package property

import (
	"errors"
	"slices"
	"testing"

	"anonconsensus/internal/env"
	"anonconsensus/internal/values"
)

func TestCheck(t *testing.T) {
	a, b := values.Value("a"), values.Value("b")
	dec := func(v values.Value, round int) Outcome { return Outcome{Decided: true, Value: v, Round: round} }
	split := []Outcome{dec(a, 3), dec(b, 4)}
	msFails := func() error { return errors.New("MS violated in round 2") }
	msHolds := func() error { return nil }
	for _, tc := range []struct {
		name string
		run  Run
		want []string
	}{
		{"clean", Run{Outcomes: []Outcome{dec(a, 1), dec(a, 2)}, Promised: true}, nil},
		{"agreement", Run{Outcomes: split}, []string{"agreement violated: decisions {a, b}"}},
		{"validity", Run{Proposals: values.NewSet(a), Outcomes: []Outcome{{}, dec(b, 1)}},
			[]string{"validity violated: process 1 decided b, proposals {a}"}},
		{"termination", Run{Outcomes: []Outcome{dec(a, 1), {}, {}}, Promised: true, Rounds: 9},
			[]string{"termination violated: 2 of 3 correct processes undecided after 9 rounds under a synchronous steady state"}},
		{"termination without a round count", Run{Outcomes: []Outcome{dec(a, 1), {}}, Promised: true},
			[]string{"termination violated: 1 of 2 correct processes undecided"}},
		{"irrevocability", Run{Outcomes: []Outcome{dec(a, 1)}, Irrevocable: func() error { return errors.New("irrevocability violated: process 0") }},
			[]string{"irrevocability violated: process 0"}},
		{"loss suppresses agreement", Run{Outcomes: split, Scenario: &env.Scenario{LossPct: 10}}, nil},
		{"a partition suppresses agreement", Run{Outcomes: split, Scenario: &env.Scenario{Partitions: []env.Partition{{From: 1, Until: 3, Cut: 1}}}}, nil},
		{"an MS failure suppresses agreement", Run{Outcomes: split, MS: msFails}, nil},
		{"MS held through the last decision", Run{Outcomes: split, MS: msHolds}, []string{"agreement violated: decisions {a, b}"}},
		{"crashes and duplication keep agreement", Run{Outcomes: split, Scenario: &env.Scenario{Crashes: map[int]int{0: 5}, DupPct: 50}},
			[]string{"agreement violated: decisions {a, b}"}},
		{"a crashed decider counts for agreement", Run{Outcomes: []Outcome{{Decided: true, Value: a, Crashed: true}, dec(b, 2)}},
			[]string{"agreement violated: decisions {a, b}"}},
		{"a crashed undecided process does not break termination", Run{Outcomes: []Outcome{{Crashed: true}, dec(a, 2)}, Promised: true}, nil},
		{"unpromised termination is never reported", Run{Outcomes: []Outcome{{}, {}}}, nil},
		{"every kind at once", Run{Proposals: values.NewSet(a), Outcomes: []Outcome{dec(a, 1), dec(b, 1), {}}, Promised: true,
			Irrevocable: func() error { return errors.New("irrevocability violated: x") }},
			[]string{"agreement violated: decisions {a, b}", "validity violated: process 1 decided b, proposals {a}",
				"irrevocability violated: x", "termination violated: 1 of 3 correct processes undecided"}},
	} {
		if tc.run.Proposals.Len() == 0 {
			tc.run.Proposals = values.NewSet(a, b)
		}
		var got []string
		for _, v := range Check(tc.run) {
			if v.Kind != KindOf(v.Msg) {
				t.Errorf("%s: kind %q, message %q", tc.name, v.Kind, v.Msg)
			}
			got = append(got, v.Error())
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s: got %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestViolationKind(t *testing.T) {
	for msg, want := range map[string]Kind{
		"agreement violated: decisions {a b}":   Agreement,
		"validity violated: process 1 decided":  Validity,
		"termination violated: 2 of 3":          Termination,
		"irrevocability violated: process 0":    Irrevocability,
		"something else entirely":               "something else entirely",
		"MS violated in round 3: no sender ...": "MS",
	} {
		if got := KindOf(msg); got != want {
			t.Errorf("KindOf(%q) = %q, want %q", msg, got, want)
		}
	}
}
