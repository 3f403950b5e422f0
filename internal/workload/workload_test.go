package workload

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"anonconsensus/internal/env"
)

// testSpec is a small mixed workload exercising both algorithms and a
// faulty class.
func testSpec() Spec {
	return Spec{
		Seed:    7,
		Ops:     160,
		Rate:    400,
		Arrival: Poisson,
		Classes: []Class{
			{Name: "es-bulk", Weight: 3, Alg: ES, N: 4, GST: 2},
			{Name: "ess-interactive", Weight: 2, Alg: ESS, N: 3, GST: 2, StableSource: 1},
			{Name: "es-lossy", Weight: 1, Alg: ES, N: 4, GST: 2, Scenario: &env.Scenario{LossPct: 10}},
		},
	}
}

func TestGenerateDeterministicAndSeeded(t *testing.T) {
	for _, kind := range []ArrivalKind{Poisson, Gamma, Weibull} {
		spec := testSpec()
		spec.Arrival = kind
		a, err := Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%v: arrival %d differs between identical generations: %+v vs %+v", kind, i, a[i], b[i])
			}
			if i > 0 && a[i].TimeUS < a[i-1].TimeUS {
				t.Fatalf("%v: arrival %d goes back in time", kind, i)
			}
		}
		spec.Seed = 8
		c, err := Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		same := 0
		for i := range a {
			if a[i].TimeUS == c[i].TimeUS {
				same++
			}
		}
		if same == len(a) {
			t.Fatalf("%v: different seeds produced identical schedules", kind)
		}
	}
}

// TestGenerateRate pins each arrival process to its configured mean rate:
// over many draws the empirical rate must be within 15% of Spec.Rate, and
// the class mix within 15% of its weights.
func TestGenerateRate(t *testing.T) {
	for _, kind := range []ArrivalKind{Poisson, Gamma, Weibull} {
		for _, shape := range []float64{0.5, 1, 2} {
			if kind == Poisson && shape != 2 {
				continue
			}
			spec := testSpec()
			spec.Arrival, spec.Shape, spec.Ops, spec.Rate = kind, shape, 6000, 500
			arr, err := Generate(spec)
			if err != nil {
				t.Fatal(err)
			}
			last := arr[len(arr)-1].TimeUS
			gotRate := float64(len(arr)) / (float64(last) / 1e6)
			if math.Abs(gotRate-spec.Rate)/spec.Rate > 0.15 {
				t.Errorf("%v shape %v: empirical rate %.1f, want ≈ %v", kind, shape, gotRate, spec.Rate)
			}
			counts := make([]int, len(spec.Classes))
			for _, a := range arr {
				counts[a.Class]++
			}
			total := 3 + 2 + 1
			for i, c := range spec.Classes {
				want := float64(spec.Ops) * float64(c.Weight) / float64(total)
				if math.Abs(float64(counts[i])-want)/want > 0.15 {
					t.Errorf("%v shape %v: class %s got %d arrivals, want ≈ %.0f", kind, shape, c.Name, counts[i], want)
				}
			}
		}
	}
}

func TestSpecValidation(t *testing.T) {
	base := testSpec()
	bad := []func(*Spec){
		func(s *Spec) { s.Ops = 0 },
		func(s *Spec) { s.Rate = 0 },
		func(s *Spec) { s.Rate = math.Inf(1) },
		func(s *Spec) { s.Arrival = ArrivalKind(9) },
		func(s *Spec) { s.Shape = -1 },
		func(s *Spec) { s.Classes = nil },
		func(s *Spec) { s.Classes[0].Name = "" },
		func(s *Spec) { s.Classes[0].Name = "has space" },
		func(s *Spec) { s.Classes[0].Weight = 0 },
		func(s *Spec) { s.Classes[0].N = 0 },
		func(s *Spec) { s.Classes[1].Name = s.Classes[0].Name },
		func(s *Spec) { s.Classes[1].StableSource = 99 },
		func(s *Spec) { s.Classes[0].Scenario = &env.Scenario{LossPct: 300} },
	}
	for i, mutate := range bad {
		spec := base
		spec.Classes = append([]Class(nil), base.Classes...)
		mutate(&spec)
		if err := spec.Validate(); err == nil {
			t.Errorf("mutation %d: invalid spec accepted", i)
		}
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("base spec rejected: %v", err)
	}
}

func TestFairness(t *testing.T) {
	classes := []ClassStats{
		{Name: "a", Weight: 1, Done: 50},
		{Name: "b", Weight: 1, Done: 50},
	}
	if j := jain(classes); math.Abs(j-1) > 1e-9 {
		t.Errorf("perfectly fair split: jain = %v, want 1", j)
	}
	classes[1].Done = 0
	if j := jain(classes); math.Abs(j-0.5) > 1e-9 {
		t.Errorf("one-class starvation: jain = %v, want 0.5", j)
	}
}

// TestReportHandBuiltRecords pins the report over one record of each
// outcome: every outcome lands in its own column, percentiles and the
// makespan come from the served record alone, and the table renders.
func TestReportHandBuiltRecords(t *testing.T) {
	spec := testSpec()
	spec.Ops = 3
	res := &Result{Spec: spec, Records: []Record{
		{Arrival: Arrival{TimeUS: 100, Class: 0, Seed: 1}, Outcome: OK, LatUS: 2050, Agreed: true},
		{Arrival: Arrival{TimeUS: 200, Class: 1, Seed: 2}, Outcome: Shed},
		{Arrival: Arrival{TimeUS: 300, Class: 2, Seed: 3}, Outcome: Errored},
	}}
	rep := res.Report()
	if rep.Total.Ops != 3 || rep.Total.Done != 1 || rep.Total.Shed != 1 || rep.Total.Errored != 1 {
		t.Errorf("report totals wrong: %+v", rep.Total)
	}
	if rep.Total.P50US != 2050 || rep.Total.P99US != 2050 || rep.Total.AgreedPct != 100 {
		t.Errorf("served record's latency or agreement lost: %+v", rep.Total)
	}
	if rep.MakespanUS != 2150 {
		t.Errorf("makespan = %d µs, want 2150", rep.MakespanUS)
	}
	for i, want := range []ClassStats{{Done: 1}, {Shed: 1}, {Errored: 1}} {
		got := rep.PerClass[i]
		if got.Ops != 1 || got.Done != want.Done || got.Shed != want.Shed || got.Errored != want.Errored {
			t.Errorf("class %d: %+v, want one op with %+v", i, got, want)
		}
	}
	var buf bytes.Buffer
	if err := rep.Render(&buf); err != nil {
		t.Fatal(err)
	}
	for _, col := range []string{"class", "shed%", "p99ms", "agree%", "es-lossy", "fairness"} {
		if !strings.Contains(buf.String(), col) {
			t.Errorf("report missing %q:\n%s", col, buf.String())
		}
	}
}
