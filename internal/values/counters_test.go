package values

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCountersGetDefaultZero(t *testing.T) {
	c := NewCounters()
	if got := c.Get(NewHistory(Num(1))); got != 0 {
		t.Errorf("Get on empty table = %d, want 0", got)
	}
	var zero Counters // zero value readable
	if zero.Get(NewHistory(Num(1))) != 0 || zero.Len() != 0 {
		t.Error("zero Counters must read as all-zero")
	}
}

func TestCountersBumpFromZero(t *testing.T) {
	c := NewCounters()
	h := NewHistory(Num(1))
	c.Bump(h)
	if got := c.Get(h); got != 1 {
		t.Errorf("after first Bump, C[h] = %d, want 1", got)
	}
}

func TestCountersBumpUsesNonStrictPrefix(t *testing.T) {
	// Lemma 4 relies on a history being a prefix of itself: bumping the same
	// history repeatedly must increase the counter every time.
	c := NewCounters()
	h := NewHistory(Num(1))
	for i := 1; i <= 5; i++ {
		c.Bump(h)
		if got := c.Get(h); got != i {
			t.Fatalf("after %d bumps, C[h] = %d", i, got)
		}
	}
}

func TestCountersBumpExtension(t *testing.T) {
	// An extension inherits max over prefixes + 1.
	c := NewCounters()
	h := NewHistory(Num(1))
	c.Bump(h) // C[h]=1
	c.Bump(h) // C[h]=2
	g := h.Append(Num(2))
	c.Bump(g)
	if got := c.Get(g); got != 3 {
		t.Errorf("C[extension] = %d, want 3 (= C[prefix]+1)", got)
	}
	// Diverged history does not inherit.
	d := NewHistory(Num(9))
	c.Bump(d)
	if got := c.Get(d); got != 1 {
		t.Errorf("C[diverged] = %d, want 1", got)
	}
}

func TestMinMerge(t *testing.T) {
	h1 := NewHistory(Num(1))
	h2 := NewHistory(Num(2))

	a := NewCounters()
	a.Set(h1, 5)
	a.Set(h2, 3)
	b := NewCounters()
	b.Set(h1, 2) // h2 absent in b → min is 0 → dropped

	m := MinMerge([]Counters{a, b})
	if got := m.Get(h1); got != 2 {
		t.Errorf("MinMerge C[h1] = %d, want 2", got)
	}
	if got := m.Get(h2); got != 0 {
		t.Errorf("MinMerge C[h2] = %d, want 0 (absent in one message)", got)
	}
	// Inputs untouched.
	if a.Get(h1) != 5 || b.Get(h1) != 2 {
		t.Error("MinMerge must not mutate inputs")
	}
}

func TestMinMergeEmptyInput(t *testing.T) {
	m := MinMerge(nil)
	if m.Len() != 0 {
		t.Error("MinMerge(nil) must be empty")
	}
}

func TestIsMaximal(t *testing.T) {
	h1 := NewHistory(Num(1))
	h2 := NewHistory(Num(2))
	c := NewCounters()
	c.Set(h1, 4)
	c.Set(h2, 2)

	if !c.IsMaximal(h1) {
		t.Error("h1 (counter 4) must be maximal")
	}
	if c.IsMaximal(h2) {
		t.Error("h2 (counter 2) must not be maximal")
	}
	if c.IsMaximal(NewHistory(Num(3))) {
		t.Error("unknown history (counter 0) must not be maximal over counter 4")
	}
	if !NewCounters().IsMaximal(h1) {
		t.Error("every history is maximal in an empty table")
	}
}

func TestMaxEntries(t *testing.T) {
	h1 := NewHistory(Num(1))
	h2 := NewHistory(Num(2))
	c := NewCounters()
	c.Set(h1, 4)
	c.Set(h2, 4)
	hs, n := c.MaxEntries()
	if n != 4 || len(hs) != 2 {
		t.Fatalf("MaxEntries = %v,%d", hs, n)
	}
	if hs, n := NewCounters().MaxEntries(); hs != nil || n != 0 {
		t.Errorf("MaxEntries on empty = %v,%d", hs, n)
	}
}

func TestCountersKeyCanonical(t *testing.T) {
	h1 := NewHistory(Num(1))
	h2 := NewHistory(Num(2))
	a := NewCounters()
	a.Set(h1, 1)
	a.Set(h2, 2)
	b := NewCounters()
	b.Set(h2, 2)
	b.Set(h1, 1)
	if a.Key() != b.Key() {
		t.Error("insertion order must not affect the key")
	}
	b.Set(h1, 3)
	if a.Key() == b.Key() {
		t.Error("different counters must differ in key")
	}
}

func TestCountersZeroEntriesDropped(t *testing.T) {
	h := NewHistory(Num(1))
	a := NewCounters()
	a.Set(h, 1)
	a.Set(h, 0)
	if a.Len() != 0 || a.Key() != NewCounters().Key() {
		t.Error("counter set to 0 must leave table canonical-empty")
	}
}

func TestCountersOfTakesPairsInAnyOrder(t *testing.T) {
	h1, h2 := NewHistory(Num(1)), NewHistory(Num(2))
	h3 := h1.Append(Num(10))
	got := CountersOf([]History{h3, h2, h1, h2, h3, h1}, []int{4, 1, 2, 0, 5, 3})
	want := NewCounters()
	want.Set(h1, 3)
	want.Set(h3, 5)
	if got.Key() != want.Key() || got.Fingerprint() != want.Fingerprint() {
		t.Errorf("CountersOf = %v, want %v: the last pair per history, zero dropped", got, want)
	}
}

// Clone returns c. A table is immutable, so a copy is independent of later
// Bump and Set calls on either; Clone is kept for the tests, FuzzCounters
// among them, that were written against the mutable table.
func (c Counters) Clone() Counters { return c }

// MinMerge is Algorithm 3 line 8 alone, ∀H, C[H] := min_{m∈M} m.C[H]: a
// MinMergeBump with no bumps, for the tests, FuzzCounters among them.
func MinMerge(msgs []Counters) Counters {
	var b CountersBuilder
	return b.MinMergeBump(msgs, nil)
}

// Histories returns the stored histories in canonical order, for
// FuzzCounters.
func (c Counters) Histories() []History {
	var out []History
	for h := range c.All() {
		out = append(out, h)
	}
	return out
}

func TestCountersCloneIndependent(t *testing.T) {
	h := NewHistory(Num(1))
	a := NewCounters()
	a.Set(h, 2)
	b := a.Clone()
	b.Bump(h)
	if a.Get(h) != 2 {
		t.Error("Clone must be independent of original")
	}
}

// Property: MinMerge result is pointwise ≤ each input, over random tables.
func TestMinMergePointwiseLEQ(t *testing.T) {
	build := func(bs []byte) Counters {
		c := NewCounters()
		for i := 0; i+1 < len(bs); i += 2 {
			h := randHistory(bs[i : i+1])
			c.Set(h, int(bs[i+1]%5)+1)
		}
		return c
	}
	f := func(x, y []byte) bool {
		a, b := build(x), build(y)
		m := MinMerge([]Counters{a, b})
		for h, n := range m.All() {
			if n > a.Get(h) || n > b.Get(h) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(4))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: after Bump(h), h is maximal among all stored prefixes of h.
func TestBumpMakesBumpedAtLeastPrefixMax(t *testing.T) {
	f := func(x []byte, y []byte) bool {
		c := NewCounters()
		base := randHistory(x)
		c.Bump(base)
		c.Bump(base)
		h := base
		for _, e := range y {
			h = h.Append(Num(int64(e % 3)))
		}
		before := c.Get(base) // h extends base, so Bump(h) must exceed this
		c.Bump(h)
		return c.Get(h) >= before+1
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(5))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
