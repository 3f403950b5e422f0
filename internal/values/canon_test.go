package values

import (
	"testing"
	"testing/quick"
)

// TestFingerprintMatchesKeyHash pins the canonical-form invariant the rest
// of the repository relies on: Set.Fingerprint() (computed incrementally,
// without building the key) equals FingerprintString(Set.Key()).
func TestFingerprintMatchesKeyHash(t *testing.T) {
	cases := []Set{
		NewSet(),
		NewSet(Num(1)),
		NewSet(Num(1), Num(2), Bot),
		NewSet("a", "bb", "ccc", "Σ⊥"),
	}
	for _, s := range cases {
		if got, want := s.Fingerprint(), FingerprintString(s.Key()); got != want {
			t.Errorf("set %v: incremental fingerprint %v != key hash %v", s, got, want)
		}
		if got, want := s.EncodedSize(), len(s.Key()); got != want {
			t.Errorf("set %v: EncodedSize %d != len(Key) %d", s, got, want)
		}
	}
	// Property form over random sets.
	err := quick.Check(func(raw []string) bool {
		s := NewSet()
		for _, v := range raw {
			s.Add(Value(v))
		}
		return s.Fingerprint() == FingerprintString(s.Key()) &&
			s.EncodedSize() == len(s.Key())
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

// TestFingerprintEquality: fingerprint equality ⇔ set equality on random
// pairs (the practical reading of the 128-bit invariant).
func TestFingerprintEquality(t *testing.T) {
	err := quick.Check(func(xs, ys []uint8) bool {
		a, b := NewSet(), NewSet()
		for _, x := range xs {
			a.Add(Num(int64(x)))
		}
		for _, y := range ys {
			b.Add(Num(int64(y)))
		}
		return (a.Fingerprint() == b.Fingerprint()) == a.Equal(b)
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

// TestCanonInvalidation: mutation through any alias invalidates the cached
// canonical form; clones are independent.
func TestCanonInvalidation(t *testing.T) {
	s := NewSet(Num(1))
	k1 := s.Key()
	alias := s // plain copy shares storage and cache
	alias.Add(Num(2))
	if s.Key() == k1 {
		t.Error("mutation through alias did not invalidate the original's cached key")
	}
	if !s.Contains(Num(2)) {
		t.Error("alias mutation not visible (map aliasing broken)")
	}

	c := s.Clone()
	key := s.Key()
	c.Add(Num(3))
	if s.Key() != key {
		t.Error("clone mutation leaked into original's cache")
	}
	if c.Key() == key {
		t.Error("clone's cache not invalidated by its own mutation")
	}

	w := s.Without(Num(1))
	if w.Key() == s.Key() {
		t.Error("Without did not invalidate the derived set's cache")
	}
}

// TestCanonZeroSet: the zero Set supports reads and lazy allocation.
func TestCanonZeroSet(t *testing.T) {
	var s Set
	if s.Key() != "S" || s.EncodedSize() != 1 || !s.IsEmpty() {
		t.Errorf("zero set canonical form wrong: key %q size %d", s.Key(), s.EncodedSize())
	}
	s.Add(Num(7))
	if s.Key() == "S" || s.Len() != 1 {
		t.Error("Add on zero set did not take effect")
	}
}

// TestMaxUsesCanon: Max agrees before and after the canonical form exists.
func TestMaxUsesCanon(t *testing.T) {
	s := NewSet(Num(3), Num(9), Num(4))
	before, ok1 := s.Max()
	s.Key() // settle the canonical form
	after, ok2 := s.Max()
	if !ok1 || !ok2 || before != after || after != Num(9) {
		t.Errorf("Max diverged: %v/%v vs %v/%v", before, ok1, after, ok2)
	}
}

// TestHasherLengthPrefix pins the equivalence writeLengthPrefixed relies
// on: hashing "<len>:<s>" byte by byte equals hashing the built string.
func TestHasherLengthPrefix(t *testing.T) {
	for _, s := range []string{"", "x", "0123456789", string(Bot)} {
		var a, b Hasher
		a.writeLengthPrefixed(s)
		var sb []byte
		sb = append(sb, []byte(itoa(len(s)))...)
		sb = append(sb, ':')
		sb = append(sb, s...)
		b.WriteString(string(sb))
		if a.Sum() != b.Sum() {
			t.Errorf("length-prefix hash mismatch for %q", s)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf []byte
	for n > 0 {
		buf = append([]byte{byte('0' + n%10)}, buf...)
		n /= 10
	}
	return string(buf)
}
