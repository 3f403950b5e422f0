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

// TestCanonInvalidation pins value semantics: a copy of a set is
// independent. Add and AddAll on a copy rebind the copy and leave the
// original's Key, Fingerprint and membership as they were, also when the
// original's summary was computed before the copy was taken; and the
// copy's own summary follows its new members.
func TestCanonInvalidation(t *testing.T) {
	s := NewSet(Num(1))
	key, fp := s.Key(), s.Fingerprint()
	c := s
	c.Add(Num(2))
	d := s
	d.AddAll(NewSet(Num(3)))
	if s.Key() != key || s.Fingerprint() != fp || s.Len() != 1 || s.Contains(Num(2)) || s.Contains(Num(3)) {
		t.Errorf("Add on a copy changed the original: %v, key %q", s, s.Key())
	}
	if !c.Equal(NewSet(Num(1), Num(2))) || c.Key() != NewSet(Num(1), Num(2)).Key() || c.Fingerprint() == fp {
		t.Errorf("copy after Add is %v with key %q", c, c.Key())
	}
	if !d.Equal(NewSet(Num(1), Num(3))) || d.Fingerprint() == fp {
		t.Errorf("copy after AddAll is %v", d)
	}

	w := c.Without(Num(1))
	if !w.Equal(NewSet(Num(2))) || w.Key() == c.Key() || !c.Contains(Num(1)) {
		t.Errorf("Without: %v from %v", w, c)
	}
}

// TestCanonZeroSet: the zero Set is the empty set, reads allocate
// nothing, and Add on a copy of it leaves it empty.
func TestCanonZeroSet(t *testing.T) {
	var s Set
	if s.Key() != "S" || s.EncodedSize() != 1 || !s.IsEmpty() || s.Fingerprint() != FingerprintString("S") {
		t.Errorf("zero set canonical form wrong: key %q size %d", s.Key(), s.EncodedSize())
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = s.Key(), s.Fingerprint(); _, _ = s.Max() }); n != 0 {
		t.Errorf("reads of the zero set: %v allocs/op, want 0", n)
	}
	c := s
	c.Add(Num(7))
	if c.Key() == "S" || c.Len() != 1 || !s.IsEmpty() || s.Key() != "S" {
		t.Errorf("Add on a copy of the zero set: copy %v, original %v", c, s)
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
