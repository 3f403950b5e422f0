package main

import (
	"math/rand"
	"time"

	"anonconsensus"
)

// class is one kind of consensus instance in a workload's mix. Its options
// are resolved once; the per-op seed is appended at issue time.
type class struct {
	name   string
	weight int
	n      int
	opts   []anonconsensus.Option
}

// op is one generated consensus instance: everything the library sees of
// the workload is in here (plus the class options).
type op struct {
	class     int
	seed      int64
	proposals []anonconsensus.Value
}

// valueDomain is the range proposals are drawn from. It is larger than
// values.Intern's 65,536-entry table, so decode-side interning mostly
// misses, as it would on fresh client values.
const valueDomain = 1_000_000

// mixSeed derives an independent stream seed from the run seed
// (splitmix64 finalizer), so client streams and the arrival schedule
// never share draws.
func mixSeed(seed int64, stream int) int64 {
	z := uint64(seed) + uint64(stream+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// generator draws one client's op sequence: a pure function of (seed,
// stream, mix), so the same -seed always offers the library the same
// instances in the same per-client order.
type generator struct {
	rng     *rand.Rand
	classes []class
	total   int
}

func newGenerator(seed int64, stream int, classes []class) *generator {
	g := &generator{rng: rand.New(rand.NewSource(mixSeed(seed, stream))), classes: classes}
	for _, c := range classes {
		g.total += c.weight
	}
	return g
}

// next draws the class by weight, then the op.
func (g *generator) next() op {
	pick := g.rng.Intn(g.total)
	ci := 0
	for i, c := range g.classes {
		if pick < c.weight {
			ci = i
			break
		}
		pick -= c.weight
	}
	return g.nextOf(ci)
}

// nextOf draws the adversary seed and n proposals of an op of class ci.
// Classes with n > 16 propose n distinct values (a random base plus a
// permutation): the big-n workload is about merging many distinct sets.
func (g *generator) nextOf(ci int) op {
	c := g.classes[ci]
	o := op{class: ci, seed: g.rng.Int63(), proposals: make([]anonconsensus.Value, c.n)}
	if c.n > 16 {
		base := g.rng.Int63n(valueDomain)
		for i, j := range g.rng.Perm(c.n) {
			o.proposals[i] = anonconsensus.NumValue(base + int64(j))
		}
		return o
	}
	for i := range o.proposals {
		o.proposals[i] = anonconsensus.NumValue(g.rng.Int63n(valueDomain))
	}
	return o
}

// arrivals draws the due instants of an open loop: a Poisson process of
// the given rate observed for `window`, conditioned on its expected count
// (count = rate × window exactly; the gaps are seeded exponential draws
// rescaled so the schedule ends at the window's end). Fixing the count
// keeps offered load — and everything that grows with op count, such as
// the hub's logs — the same from seed to seed, while the spacing keeps
// the burstiness of independent clients.
func arrivals(seed int64, rate float64, window time.Duration) []time.Duration {
	count := int(rate*window.Seconds() + 0.5)
	if count < 1 {
		count = 1
	}
	rng := rand.New(rand.NewSource(mixSeed(seed, -2)))
	cum := make([]float64, count+1)
	sum := 0.0
	for i := range cum {
		sum += rng.ExpFloat64()
		cum[i] = sum
	}
	out := make([]time.Duration, count)
	for i := range out {
		out[i] = time.Duration(cum[i] / sum * float64(window))
	}
	return out
}
