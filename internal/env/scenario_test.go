package env

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

func TestScenarioValidate(t *testing.T) {
	cases := []struct {
		name string
		s    *Scenario
		n    int
		want string // substring of the error, "" = valid
	}{
		{"nil", nil, 4, ""},
		{"zero", &Scenario{}, 4, ""},
		{"loss+dup ok", &Scenario{LossPct: 100, DupPct: 1}, 4, ""},
		{"loss negative", &Scenario{LossPct: -1}, 4, "loss percentage"},
		{"loss over 100", &Scenario{LossPct: 101}, 4, "loss percentage"},
		{"dup over 100", &Scenario{DupPct: 200}, 4, "duplication percentage"},
		{"partition ok", &Scenario{Partitions: []Partition{{From: 1, Until: 0, Cut: 2}}}, 4, ""},
		{"partition from 0", &Scenario{Partitions: []Partition{{From: 0, Until: 5, Cut: 1}}}, 4, "starts at round 0"},
		{"partition heals before start", &Scenario{Partitions: []Partition{{From: 5, Until: 5, Cut: 1}}}, 4, "heals at round 5"},
		{"partition cut 0", &Scenario{Partitions: []Partition{{From: 1, Until: 0, Cut: 0}}}, 4, "separates nobody"},
		{"partition cut = n", &Scenario{Partitions: []Partition{{From: 1, Until: 0, Cut: 4}}}, 4, "outside [1,4)"},
		{"partition cut unchecked without n", &Scenario{Partitions: []Partition{{From: 1, Until: 0, Cut: 4}}}, 0, ""},
		{"crash pid negative", &Scenario{Crashes: map[int]int{-1: 3}}, 4, "negative process"},
		{"crash pid out of range", &Scenario{Crashes: map[int]int{4: 3}}, 4, "outside [0,4)"},
		{"crash round 0", &Scenario{Crashes: map[int]int{1: 0}}, 4, "must be ≥ 1"},
		{"some crashes fine", &Scenario{Crashes: map[int]int{0: 1, 1: 2, 2: 3}}, 4, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.s.Validate(tc.n)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want substring %q", err, tc.want)
			}
		})
	}
}

func TestScenarioValidateAllCrashed(t *testing.T) {
	s := &Scenario{Crashes: map[int]int{0: 1, 1: 5, 2: 3}}
	if err := s.Validate(3); !errors.Is(err, ErrAllCrashed) {
		t.Fatalf("err = %v, want ErrAllCrashed", err)
	}
	// One survivor makes the schedule legal (f = n−1 is tolerated).
	if err := s.Validate(4); err != nil {
		t.Fatalf("n=4 with 3 crashes must be valid, got %v", err)
	}
}

func TestScenarioDropsDeterministicAndSeedSensitive(t *testing.T) {
	a := &Scenario{Seed: 7, LossPct: 30}
	b := &Scenario{Seed: 7, LossPct: 30}
	c := &Scenario{Seed: 8, LossPct: 30}
	same, diff := 0, 0
	for round := 1; round <= 50; round++ {
		for from := 0; from < 4; from++ {
			for to := 0; to < 4; to++ {
				if a.Drops(round, from, to) != b.Drops(round, from, to) {
					t.Fatalf("same seed diverged at (%d,%d,%d)", round, from, to)
				}
				if a.Drops(round, from, to) == c.Drops(round, from, to) {
					same++
				} else {
					diff++
				}
			}
		}
	}
	if diff == 0 {
		t.Error("different seeds produced identical loss schedules")
	}
	_ = same
}

func TestScenarioLossRateRoughlyHonored(t *testing.T) {
	s := &Scenario{Seed: 3, LossPct: 25}
	hits, total := 0, 0
	for round := 1; round <= 200; round++ {
		for from := 0; from < 5; from++ {
			for to := 0; to < 5; to++ {
				total++
				if s.Drops(round, from, to) {
					hits++
				}
			}
		}
	}
	got := 100 * hits / total
	if got < 20 || got > 30 {
		t.Errorf("empirical loss rate %d%%, want ≈25%%", got)
	}
}

func TestScenarioLossAndDupStreamsDisjoint(t *testing.T) {
	s := &Scenario{Seed: 11, LossPct: 50, DupPct: 50}
	agree := 0
	const trials = 400
	for i := 0; i < trials; i++ {
		if s.Drops(i, 0, 1) == s.Duplicates(i, 0, 1) {
			agree++
		}
	}
	// Identical streams would agree always; independent ones about half
	// the time.
	if agree > trials*3/4 {
		t.Errorf("loss and dup draws agree %d/%d times — streams look shared", agree, trials)
	}
}

func TestPartitionSemantics(t *testing.T) {
	s := &Scenario{Partitions: []Partition{{From: 3, Until: 6, Cut: 2}}}
	type q struct {
		round, from, to int
		want            bool
	}
	for _, tc := range []q{
		{2, 0, 3, false}, // before From
		{3, 0, 3, true},  // active, across the cut
		{5, 3, 0, true},  // active, other direction
		{5, 0, 1, false}, // same block
		{5, 2, 3, false}, // same block (right side)
		{6, 0, 3, false}, // healed
	} {
		if got := s.Partitioned(tc.round, tc.from, tc.to); got != tc.want {
			t.Errorf("Partitioned(%d,%d,%d) = %v, want %v", tc.round, tc.from, tc.to, got, tc.want)
		}
		if tc.want && !s.Drops(tc.round, tc.from, tc.to) {
			t.Errorf("Drops(%d,%d,%d) must be true while partitioned", tc.round, tc.from, tc.to)
		}
	}
	never := &Scenario{Partitions: []Partition{{From: 1, Until: 0, Cut: 1}}}
	if !never.Partitioned(1_000_000, 0, 1) {
		t.Error("Until=0 must never heal")
	}
}

func TestScenarioEmpty(t *testing.T) {
	var nilSc *Scenario
	if !nilSc.Empty() || !(&Scenario{Seed: 5}).Empty() {
		t.Error("nil and seed-only scenarios must be Empty")
	}
	for _, s := range []*Scenario{
		{LossPct: 1}, {DupPct: 1},
		{Partitions: []Partition{{From: 1, Cut: 1}}},
		{Crashes: map[int]int{0: 1}},
	} {
		if s.Empty() {
			t.Errorf("%+v must not be Empty", s)
		}
	}
}

func TestScenarioEncodeParseRoundTrip(t *testing.T) {
	cases := []*Scenario{
		nil,
		{},
		{Seed: 42},
		{Seed: -3, LossPct: 10, DupPct: 5},
		{LossPct: 100},
		{Partitions: []Partition{{From: 1, Until: 0, Cut: 2}, {From: 4, Until: 9, Cut: 1}}},
		{Seed: 9, Crashes: map[int]int{3: 7, 0: 1}, LossPct: 15, DupPct: 20,
			Partitions: []Partition{{From: 2, Until: 10, Cut: 3}}},
	}
	for _, s := range cases {
		enc := s.Encode()
		back, err := ParseScenario(enc)
		if err != nil {
			t.Fatalf("ParseScenario(%q): %v", enc, err)
		}
		if got := back.Encode(); got != enc {
			t.Errorf("round trip %q → %q", enc, got)
		}
		if s != nil && !reflect.DeepEqual(normalize(s), normalize(back)) {
			t.Errorf("round trip of %+v yielded %+v", s, back)
		}
	}
}

// normalize maps nil and empty containers to a comparable form.
func normalize(s *Scenario) Scenario {
	out := *s
	if len(out.Crashes) == 0 {
		out.Crashes = nil
	}
	if len(out.Partitions) == 0 {
		out.Partitions = nil
	}
	return out
}

func TestParseScenarioRejectsGarbage(t *testing.T) {
	for _, text := range []string{
		"nonsense",
		"loss=abc",
		"loss=-1",
		"dup=101",
		"part=1:2",            // missing cut
		"part=0:5:1",          // from < 1
		"part=5:5:1",          // heals before start
		"crash=1",             // missing round
		"crash=1@0",           // round < 1
		"crash=-1@4",          // negative pid
		"crash=1@2,crash=1@3", // duplicate pid
		"wat=1",
	} {
		if _, err := ParseScenario(text); err == nil {
			t.Errorf("ParseScenario(%q) accepted garbage", text)
		}
	}
}

func TestScenarioClone(t *testing.T) {
	orig := &Scenario{Seed: 1, Crashes: map[int]int{2: 5}, LossPct: 10,
		Partitions: []Partition{{From: 1, Until: 4, Cut: 1}}}
	cp := orig.Clone()
	cp.Crashes[3] = 9
	cp.Partitions[0].Cut = 2
	cp.LossPct = 99
	if len(orig.Crashes) != 1 || orig.Partitions[0].Cut != 1 || orig.LossPct != 10 {
		t.Errorf("Clone shares storage with the original: %+v", orig)
	}
	var nilSc *Scenario
	if nilSc.Clone() != nil {
		t.Error("Clone(nil) must be nil")
	}
}

func TestRandomAdversaryReproducibleAndValid(t *testing.T) {
	for _, n := range []int{1, 2, 4, 9, 32} {
		for seed := int64(0); seed < 20; seed++ {
			a := RandomAdversary(seed, n)
			b := RandomAdversary(seed, n)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("seed %d n=%d not reproducible", seed, n)
			}
			if err := a.Validate(n); err != nil {
				t.Fatalf("seed %d n=%d invalid: %v", seed, n, err)
			}
			if _, crashed := a.Crashes[0]; crashed {
				t.Fatalf("seed %d n=%d crashes process 0 (reserved for the stable source)", seed, n)
			}
		}
	}
	if reflect.DeepEqual(RandomAdversary(1, 8), RandomAdversary(2, 8)) {
		t.Error("different seeds produced identical adversaries")
	}
}

func TestScenarioLinkFaultFree(t *testing.T) {
	var nilSc *Scenario
	for name, tt := range map[string]struct {
		sc   *Scenario
		want bool
	}{
		"nil":            {nilSc, true},
		"zero":           {&Scenario{}, true},
		"crashes + dup":  {&Scenario{DupPct: 70, Crashes: map[int]int{0: 1}}, true},
		"loss":           {&Scenario{LossPct: 1}, false},
		"partition":      {&Scenario{Partitions: []Partition{{From: 1, Cut: 1}}}, false},
		"loss via chaos": {RandomAdversary(3, 6), false},
	} {
		if got := tt.sc.LinkFaultFree(); got != tt.want {
			t.Errorf("%s: LinkFaultFree() = %v, want %v", name, got, tt.want)
		}
	}
}

// TestLinkFaultAgreesWithDraws: LinkFault is Drops and Duplicates with the
// drop winning, on a (round, from, to) grid under loss, duplication and a
// partition. The grid must reach every outcome, including deliveries both
// draws fire on, where the precedence decides; a nil scenario faults
// nothing.
func TestLinkFaultAgreesWithDraws(t *testing.T) {
	sc := &Scenario{Seed: 7, LossPct: 30, DupPct: 40, Partitions: []Partition{{From: 3, Until: 5, Cut: 2}}}
	const n = 4
	var dropped, duplicated, clean, both int
	for round := 0; round < 8; round++ {
		for from := 0; from < n; from++ {
			for to := 0; to < n; to++ {
				drop, dup := sc.LinkFault(round, from, to)
				drops, dups := sc.Drops(round, from, to), sc.Duplicates(round, from, to)
				if drop != drops || dup != (dups && !drops) {
					t.Fatalf("LinkFault(%d, %d, %d) = (%v, %v); Drops %v, Duplicates %v", round, from, to, drop, dup, drops, dups)
				}
				switch {
				case drop:
					dropped++
				case dup:
					duplicated++
				default:
					clean++
				}
				if drops && dups {
					both++
				}
			}
		}
	}
	if dropped == 0 || duplicated == 0 || clean == 0 || both == 0 {
		t.Fatalf("grid reached %d drops, %d duplicates, %d clean, %d drop-and-duplicate draws; want each", dropped, duplicated, clean, both)
	}
	var none *Scenario
	if drop, dup := none.LinkFault(1, 0, 1); drop || dup {
		t.Fatalf("nil scenario: LinkFault = (%v, %v)", drop, dup)
	}
}
