package env

import (
	"math"
	"math/rand"
	"testing"
)

// TestNewRandMatchesMathRand pins NewRand to rand.New(rand.NewSource(seed))
// draw for draw: the lazily seeded words must be exactly the ones
// rand.NewSource writes, before and after the generator wraps its 607
// words, on rngTestSeeds' seeds. The draws interleave every method the
// repository uses.
func TestNewRandMatchesMathRand(t *testing.T) {
	seeds, draws := rngTestSeeds()
	for _, seed := range seeds {
		want, got := rand.New(rand.NewSource(seed)), NewRand(seed)
		for d := 0; d < draws; d++ {
			var w, g float64
			switch d % 5 {
			case 0:
				w, g = float64(want.Int63()), float64(got.Int63())
			case 1:
				wu, gu := want.Uint64(), got.Uint64()
				if wu != gu {
					t.Fatalf("seed %d draw %d Uint64: got %d, want %d", seed, d, gu, wu)
				}
				continue
			case 2:
				n := 1 + d%97
				w, g = float64(want.Intn(n)), float64(got.Intn(n))
			case 3:
				n := int64(1)<<40 + int64(d)
				w, g = float64(want.Int63n(n)), float64(got.Int63n(n))
			case 4:
				w, g = want.Float64(), got.Float64()
			}
			if w != g {
				t.Fatalf("seed %d draw %d (method %d): got %v, want %v", seed, d, d%5, g, w)
			}
		}
	}
}

// rngTestSeeds returns the seeds the source is pinned on and how many draws
// to take from each: math/rand's reduction edges (0, negatives, multiples
// of ±(2³¹−1), the zero-seed substitute 89482311) and a spread of ordinary
// ones. Either draw count reaches past the 607 words seeding fills.
func rngTestSeeds() ([]int64, int) {
	const p = 1<<31 - 1
	seeds := []int64{0, 1, -1, 2, p, -p, 2 * p, -2 * p, 3*p + 1, -(5*p + 7), 89482311, -89482311,
		math.MaxInt64, math.MinInt64, math.MinInt64 + 1, 1 << 31, 1<<62 + 12345}
	mix := uint64(0x9E3779B97F4A7C15)
	for len(seeds) < 1024 {
		mix ^= mix << 13
		mix ^= mix >> 7
		mix ^= mix << 17
		seeds = append(seeds, int64(mix))
	}
	if testing.Short() {
		return seeds[:128], 700
	}
	return seeds, 1500
}

// TestIntnMatchesMathRand pins lazySource.intn, the policies' direct draw,
// to rand.Rand.Intn draw for draw: the mask path (1, 2, 2^30), the
// rejection loop (3, 7, 100, 2^30+1, which rejects about half its draws,
// and 2^31−1), with Int63 calls on the same source in between, on both
// sides of the point where seeding has filled all 607 words.
func TestIntnMatchesMathRand(t *testing.T) {
	ns := []int{1, 2, 3, 7, 100, 1 << 30, 1<<30 + 1, 1<<31 - 1}
	seeds, draws := rngTestSeeds()
	for _, seed := range seeds {
		want := rand.New(rand.NewSource(seed))
		got := new(lazySource)
		got.Seed(seed)
		for d := 0; d < draws; d++ {
			if d%3 == 2 {
				if w, g := want.Int63(), got.Int63(); w != g {
					t.Fatalf("seed %d draw %d Int63: got %d, want %d", seed, d, g, w)
				}
				continue
			}
			n := ns[d%len(ns)]
			if w, g := want.Intn(n), got.intn(n); w != g {
				t.Fatalf("seed %d draw %d intn(%d): got %d, want %d", seed, d, n, g, w)
			}
		}
	}
}

// TestLazySourceReseed pins Seed on a used source: it restarts the stream
// exactly as a fresh source would.
func TestLazySourceReseed(t *testing.T) {
	s := new(lazySource)
	s.Seed(42)
	for i := 0; i < 1000; i++ {
		s.Uint64()
	}
	s.Seed(7)
	want := rand.NewSource(7).(rand.Source64)
	for i := 0; i < 1300; i++ {
		if g, w := s.Uint64(), want.Uint64(); g != w {
			t.Fatalf("draw %d after reseed: got %d, want %d", i, g, w)
		}
	}
}
