package env

import (
	"math"
	"math/rand"
)

// NewRand returns a *rand.Rand whose stream is exactly that of
// rand.New(rand.NewSource(seed)), every draw through every method, but
// whose seeding costs only the words the caller reads.
//
// math/rand's source is an additive lagged-Fibonacci generator over 607
// words. rand.NewSource fills all 607 at once: 1,841 chained Lehmer steps
// x ↦ 48271·x mod (2³¹−1), three per word, each word XORed with a fixed
// "cooked" constant. A policy that draws a few dozen numbers per run pays
// that whole fill every run. Word i's seeded value is a closed form in the
// reduced seed x0,
//
//	(x0·A^(21+3i) mod p)<<40 ^ (x0·A^(22+3i) mod p)<<20 ^ (x0·A^(23+3i) mod p) ^ cooked[i]
//
// with A = 48271 and p = 2³¹−1, so this source computes a word when the
// generator first reads it. The values are the same words rand.NewSource
// writes, only computed later; the generator step over them is unchanged.
// After rngLen draws the feed index has written every word once, and the
// source switches to the plain step.
func NewRand(seed int64) *rand.Rand {
	s := new(lazySource)
	s.Seed(seed)
	return rand.New(s)
}

const (
	rngLen  = 607
	rngTap  = 273
	rngMask = 1<<63 - 1
	lehmerA = 48271
	lehmerP = 1<<31 - 1
	// zeroSeed replaces a seed that reduces to 0 mod p, as math/rand does.
	zeroSeed = 89482311
)

var (
	// seedPow[i][j] = A^(21+3i+j) mod p: the Lehmer multipliers of word
	// i's three parts (rand.NewSource discards the first 20 steps).
	seedPow [rngLen][3]uint64
	// cooked is math/rand's rngCooked table, derived rather than copied.
	cooked [rngLen]int64
)

func init() {
	pow := uint64(1)
	for k := 1; k <= 20; k++ {
		pow = pow * lehmerA % lehmerP
	}
	for i := range seedPow {
		for j := range seedPow[i] {
			pow = pow * lehmerA % lehmerP
			seedPow[i][j] = pow
		}
	}
	cooked = deriveCooked()
}

// deriveCooked recovers math/rand's cooked table from the library itself.
// rand.NewSource(1)'s first rngLen outputs are the words its feed index
// wrote, one per step and each word exactly once, so they are the state
// after rngLen steps. Undoing the steps in reverse (vec[feed] -= vec[tap])
// gives the seeded state, and XORing off seed 1's Lehmer part leaves the
// cooked constants.
func deriveCooked() [rngLen]int64 {
	src := rand.NewSource(1).(rand.Source64)
	var vec [rngLen]int64
	var taps, feeds [rngLen]int
	tap, feed := 0, rngLen-rngTap
	for k := range vec {
		tap, feed = prev(tap), prev(feed)
		taps[k], feeds[k] = tap, feed
		vec[feed] = int64(src.Uint64())
	}
	for k := rngLen - 1; k >= 0; k-- {
		vec[feeds[k]] -= vec[taps[k]]
	}
	var out [rngLen]int64
	for i := range out {
		out[i] = vec[i] ^ lehmerWord(1, i)
	}
	return out
}

// lehmerWord is word i's seed-dependent part for the reduced seed x0.
func lehmerWord(x0 uint64, i int) int64 {
	p := &seedPow[i]
	return int64(x0*p[0]%lehmerP<<40 ^ x0*p[1]%lehmerP<<20 ^ x0*p[2]%lehmerP)
}

func prev(i int) int {
	if i == 0 {
		return rngLen - 1
	}
	return i - 1
}

// lazySource is math/rand's generator with on-demand seeding. While
// unseeded > 0, a word whose bit in seeded is clear still holds garbage
// and is computed on first read.
type lazySource struct {
	tap, feed int
	x0        uint64
	unseeded  int
	seeded    [(rngLen + 63) / 64]uint64
	vec       [rngLen]int64
}

var _ rand.Source64 = (*lazySource)(nil)

// Seed implements rand.Source with math/rand's seed reduction.
func (s *lazySource) Seed(seed int64) {
	seed %= lehmerP
	if seed < 0 {
		seed += lehmerP
	}
	if seed == 0 {
		seed = zeroSeed
	}
	s.tap, s.feed = 0, rngLen-rngTap
	s.x0 = uint64(seed)
	s.unseeded = rngLen
	s.seeded = [len(s.seeded)]uint64{}
}

// word returns vec[i], computing its seeded value on first read.
func (s *lazySource) word(i int) int64 {
	if bit := uint64(1) << (i & 63); s.seeded[i>>6]&bit == 0 {
		s.seeded[i>>6] |= bit
		s.vec[i] = lehmerWord(s.x0, i) ^ cooked[i]
	}
	return s.vec[i]
}

// Uint64 implements rand.Source64.
func (s *lazySource) Uint64() uint64 {
	if s.unseeded > 0 {
		return s.seedingStep()
	}
	return s.step()
}

// Int63 implements rand.Source. It repeats Uint64's body rather than
// calling it, so the steady-state step stays inlined.
func (s *lazySource) Int63() int64 {
	if s.unseeded > 0 {
		return int64(s.seedingStep() & rngMask)
	}
	return int64(s.step() & rngMask)
}

// step is math/rand's step, once every word is seeded.
func (s *lazySource) step() uint64 {
	var x int64
	s.tap, s.feed, x = advance(&s.vec, s.tap, s.feed)
	return uint64(x)
}

// advance is step on a fully seeded vec with the indices passed in and
// out, so a loop can keep them in locals.
func advance(vec *[rngLen]int64, tap, feed int) (int, int, int64) {
	tap--
	if tap < 0 {
		tap += rngLen
	}
	feed--
	if feed < 0 {
		feed += rngLen
	}
	x := vec[feed] + vec[tap]
	vec[feed] = x
	return tap, feed, x
}

// seedingStep is the step while some words are still unseeded.
func (s *lazySource) seedingStep() uint64 {
	s.unseeded--
	s.tap, s.feed = prev(s.tap), prev(s.feed)
	x := s.word(s.feed) + s.word(s.tap)
	s.vec[s.feed] = x
	return uint64(x)
}

// int31n is math/rand's Int31n reduction for one n: a mask for a power of
// two, else the rejection loop over Int31 with limit as its largest
// accepted value. A row of draws computes it once.
type int31n struct {
	n, limit int32
	pow2     bool
}

func newInt31n(n int) int31n {
	if n <= 0 || n > math.MaxInt32 {
		panic("env: intn argument out of range")
	}
	n32 := int32(n)
	return int31n{n: n32, limit: int32(1<<31 - 1 - (1<<31)%uint32(n32)), pow2: n32&(n32-1) == 0}
}

// intn is rand.New(s).Intn(n), draw for draw, for 0 < n ≤ 2³¹−1, without
// the interface call per draw.
func (s *lazySource) intn(n int) int {
	b := newInt31n(n)
	v := int32(s.Int63() >> 32)
	if b.pow2 {
		return int(v & (b.n - 1))
	}
	for v > b.limit {
		v = int32(s.Int63() >> 32)
	}
	return int(v % b.n)
}

// fillRow draws one policy row, receivers ascending: when pct > 0 a timely
// draw intn(100) < pct leaves row[r] = 0, otherwise row[r] = base +
// intn(span). The draws are exactly those intn calls. Once every word is
// seeded the loop runs the generator step on local indices, and the delay
// draw's limit and divisor are computed once per row.
func (s *lazySource) fillRow(row []int32, pct, base, span int) {
	r := 0
	for ; r < len(row) && s.unseeded > 0; r++ {
		if pct > 0 && s.intn(100) < pct {
			row[r] = 0
			continue
		}
		row[r] = int32(base + s.intn(span))
	}
	const timelyLimit = 1<<31 - 1 - (1<<31)%100 // newInt31n(100).limit
	delay := newInt31n(span)
	pct32, base32 := int32(pct), int32(base)
	vec, tap, feed := &s.vec, s.tap, s.feed
	var v int32
	for ; r < len(row); r++ {
		if pct > 0 {
			tap, feed, v = next31(vec, tap, feed)
			for v > timelyLimit {
				tap, feed, v = next31(vec, tap, feed)
			}
			if v%100 < pct32 {
				row[r] = 0
				continue
			}
		}
		tap, feed, v = next31(vec, tap, feed)
		if delay.pow2 {
			v &= delay.n - 1
		} else {
			for v > delay.limit {
				tap, feed, v = next31(vec, tap, feed)
			}
			v %= delay.n
		}
		row[r] = base32 + v
	}
	s.tap, s.feed = tap, feed
}

// next31 is advance returning the step's Int63()>>32.
func next31(vec *[rngLen]int64, tap, feed int) (int, int, int32) {
	tap, feed, x := advance(vec, tap, feed)
	return tap, feed, int32(x & rngMask >> 32)
}
