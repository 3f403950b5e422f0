// Package workload is the open-loop workload plane's generator and
// report: it draws seeded traffic for the consensus service and
// summarizes what sustained load felt like — tail latency percentiles,
// throughput, shed rate and per-class fairness — the axis the closed
// T1–T10/S1/X2 grids never touch.
//
// Arrivals come from a seeded inter-arrival process (Poisson, Gamma or
// Weibull) and a weighted class mix, so a Spec fixes the whole schedule
// and every proposal's adversary seed; the package is on detlint's
// determinism list. Driving a real Node with that schedule is the root
// package's RunWorkload, which records one Record per arrival and renders
// them through Result.Report.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"anonconsensus/internal/env"
)

// ArrivalKind selects the inter-arrival distribution of the open-loop
// generator. All three are normalized to Spec.Rate arrivals per second on
// average; they differ in burstiness (Gamma/Weibull shape < 1 is burstier
// than Poisson, > 1 smoother).
type ArrivalKind int

// Supported arrival processes.
const (
	// Poisson arrivals: exponential inter-arrival times, the classic
	// memoryless open-loop load.
	Poisson ArrivalKind = iota + 1
	// Gamma inter-arrival times with Spec.Shape; shape 1 degenerates to
	// Poisson.
	Gamma
	// Weibull inter-arrival times with Spec.Shape; shape 1 degenerates to
	// Poisson.
	Weibull
)

// Alg selects the consensus algorithm a class runs.
type Alg int

// Supported algorithms.
const (
	// ES is Algorithm 2 (eventually synchronous environment).
	ES Alg = iota + 1
	// ESS is Algorithm 3 (eventually stable source).
	ESS
)

// Class is one client population of the mix: every generated proposal
// belongs to exactly one class, drawn with probability proportional to
// Weight, and runs that class's consensus configuration.
type Class struct {
	// Name labels the class in reports. It must be non-empty and contain
	// no whitespace (it is a cell of the report's fixed-width table).
	Name string
	// Weight is the class's relative share of the traffic (≥ 1).
	Weight int
	// Alg is the consensus algorithm (ES or ESS).
	Alg Alg
	// N is the ensemble size (number of anonymous processes per instance).
	N int
	// GST is the stabilization round.
	GST int
	// StableSource is the eventual source (ESS only).
	StableSource int
	// Scenario optionally overlays a fault scenario template on every
	// instance of the class; its Seed field is overridden per proposal so
	// each instance draws its own fault pattern. Nil means fault-free.
	Scenario *env.Scenario
	// MaxRounds bounds each instance (0 = the simulator default, 10·n+200).
	MaxRounds int
}

// validate checks one class.
func (c *Class) validate(i int) error {
	if c.Name == "" {
		return fmt.Errorf("workload: class %d has no name", i)
	}
	for _, r := range c.Name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
		default:
			return fmt.Errorf("workload: class name %q contains %q (want [A-Za-z0-9_-])", c.Name, r)
		}
	}
	if c.Weight < 1 {
		return fmt.Errorf("workload: class %q weight %d (must be ≥ 1)", c.Name, c.Weight)
	}
	switch c.Alg {
	case ES, ESS:
	default:
		return fmt.Errorf("workload: class %q has unknown algorithm %d", c.Name, int(c.Alg))
	}
	if c.N < 1 {
		return fmt.Errorf("workload: class %q ensemble size %d (must be ≥ 1)", c.Name, c.N)
	}
	if c.GST < 0 {
		return fmt.Errorf("workload: class %q negative GST %d", c.Name, c.GST)
	}
	if c.Alg == ESS && (c.StableSource < 0 || c.StableSource >= c.N) {
		return fmt.Errorf("workload: class %q stable source %d outside [0,%d)", c.Name, c.StableSource, c.N)
	}
	if c.MaxRounds < 0 {
		return fmt.Errorf("workload: class %q negative max rounds %d", c.Name, c.MaxRounds)
	}
	if c.Scenario != nil {
		if err := c.Scenario.Validate(c.N); err != nil {
			return fmt.Errorf("workload: class %q scenario: %w", c.Name, err)
		}
	}
	return nil
}

// Spec describes one open-loop workload: the arrival process and the
// client mix. The zero value of optional knobs selects a default; Seed,
// Ops, Rate and Classes are required.
type Spec struct {
	// Seed fixes everything: the arrival draws, the class mix draws, and
	// every instance's adversary seed derive from it.
	Seed int64
	// Ops is the number of proposals to generate.
	Ops int
	// Rate is the mean arrival rate in proposals per second.
	Rate float64
	// Arrival is the inter-arrival process; defaults to Poisson.
	Arrival ArrivalKind
	// Shape is the Gamma/Weibull shape parameter; defaults to 2 (ignored
	// by Poisson).
	Shape float64
	// Classes is the client mix (at least one).
	Classes []Class
}

// defaultShape is the Gamma/Weibull shape normalize applies.
const defaultShape = 2.0

// normalize returns a copy of s with defaults resolved.
func (s Spec) normalize() Spec {
	if s.Arrival == 0 {
		s.Arrival = Poisson
	}
	if s.Shape == 0 {
		s.Shape = defaultShape
	}
	return s
}

// Validate rejects malformed specs.
func (s *Spec) Validate() error {
	if s.Ops < 1 {
		return fmt.Errorf("workload: ops %d (must be ≥ 1)", s.Ops)
	}
	if !(s.Rate > 0) || math.IsInf(s.Rate, 0) {
		return fmt.Errorf("workload: rate %v (must be a positive finite ops/sec)", s.Rate)
	}
	switch s.Arrival {
	case Poisson, Gamma, Weibull, 0:
	default:
		return fmt.Errorf("workload: unknown arrival process %d", int(s.Arrival))
	}
	if s.Shape < 0 || math.IsInf(s.Shape, 0) || math.IsNaN(s.Shape) {
		return fmt.Errorf("workload: shape %v (must be a positive finite number)", s.Shape)
	}
	if s.Arrival == Gamma || s.Arrival == Weibull {
		if s.Shape != 0 && s.Shape < 0.05 {
			return fmt.Errorf("workload: shape %v too extreme (must be ≥ 0.05)", s.Shape)
		}
	}
	if len(s.Classes) == 0 {
		return fmt.Errorf("workload: no classes")
	}
	names := make(map[string]bool, len(s.Classes))
	for i := range s.Classes {
		if err := s.Classes[i].validate(i); err != nil {
			return err
		}
		if names[s.Classes[i].Name] {
			return fmt.Errorf("workload: duplicate class name %q", s.Classes[i].Name)
		}
		names[s.Classes[i].Name] = true
	}
	return nil
}

// Arrival is one generated proposal: when it arrives, which class it
// belongs to, and the seed its instance's adversary draws from.
type Arrival struct {
	// TimeUS is the arrival instant in microseconds from the start of the
	// run. Arrivals are generated in non-decreasing time order.
	TimeUS int64
	// Class indexes Spec.Classes.
	Class int
	// Seed is the instance's adversary seed, mixed from (Spec.Seed, index)
	// so streams never collide across proposals.
	Seed int64
}

// opSeed derives the per-proposal adversary seed with a splitmix64-style
// mix (the explore plane's trial-seed discipline), so nearby (seed, op)
// pairs never share adversary streams.
func opSeed(seed int64, op int) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(op+1)*0xBF58476D1CE4E5B9
	z ^= z >> 30
	z *= 0x94D049BB133111EB
	z ^= z >> 27
	return int64(z)
}

// Generate draws the spec's full arrival schedule. It is deterministic:
// one seeded *rand.Rand, consumed in a fixed order (inter-arrival draw,
// then class draw, per proposal).
func Generate(spec Spec) ([]Arrival, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	spec = spec.normalize()
	rng := rand.New(rand.NewSource(spec.Seed))
	totalWeight := 0
	for _, c := range spec.Classes {
		totalWeight += c.Weight
	}
	out := make([]Arrival, spec.Ops)
	t := 0.0 // seconds
	for i := range out {
		t += interArrival(rng, spec)
		// pickClass consumes exactly one draw whether or not the mix is
		// trivial, keeping the stream layout independent of the mix.
		pick := rng.Intn(totalWeight)
		cls := 0
		for j, c := range spec.Classes {
			if pick < c.Weight {
				cls = j
				break
			}
			pick -= c.Weight
		}
		out[i] = Arrival{
			TimeUS: int64(math.Round(t * 1e6)),
			Class:  cls,
			Seed:   opSeed(spec.Seed, i),
		}
	}
	return out, nil
}

// interArrival draws one inter-arrival gap in seconds, mean 1/Rate.
func interArrival(rng *rand.Rand, spec Spec) float64 {
	mean := 1 / spec.Rate
	switch spec.Arrival {
	case Gamma:
		// Gamma(shape k) has mean k·scale; scale = mean/k keeps the rate.
		return gammaDraw(rng, spec.Shape) * mean / spec.Shape
	case Weibull:
		// Weibull(shape k, scale λ) has mean λ·Γ(1+1/k).
		u := rng.Float64()
		scale := mean / math.Gamma(1+1/spec.Shape)
		return scale * math.Pow(-math.Log1p(-u), 1/spec.Shape)
	default: // Poisson
		return rng.ExpFloat64() * mean
	}
}

// gammaDraw samples Gamma(shape, 1) by Marsaglia–Tsang; shapes below 1 use
// the standard boosting identity Gamma(k) = Gamma(k+1)·U^(1/k).
func gammaDraw(rng *rand.Rand, shape float64) float64 {
	if shape < 1 {
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		return gammaDraw(rng, shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}
