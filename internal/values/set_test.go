package values

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randSet builds a small random set from a fuzzed byte slice.
func randSet(bs []byte) Set {
	s := NewSet()
	for _, b := range bs {
		s.Add(Num(int64(b % 16)))
	}
	return s
}

func TestSetBasics(t *testing.T) {
	var zero Set // zero value must be usable for reads
	if !zero.IsEmpty() || zero.Len() != 0 || zero.Contains(Num(1)) {
		t.Error("zero Set must behave as empty")
	}

	s := NewSet(Num(1), Num(2), Num(2))
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2 (duplicates collapse)", s.Len())
	}
	if !s.Contains(Num(1)) || s.Contains(Num(3)) {
		t.Error("Contains gives wrong answers")
	}
	s.Add(Num(3))
	if !s.Contains(Num(3)) {
		t.Error("Add(3) did not insert")
	}
}

func TestSetIsExactly(t *testing.T) {
	tests := []struct {
		name string
		s    Set
		v    Value
		want bool
	}{
		{"singleton match", NewSet(Num(5)), Num(5), true},
		{"singleton mismatch", NewSet(Num(5)), Num(6), false},
		{"empty", NewSet(), Num(5), false},
		{"two elements", NewSet(Num(5), Num(6)), Num(5), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.s.IsExactly(tt.v); got != tt.want {
				t.Errorf("IsExactly = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestSetUnionIntersect(t *testing.T) {
	a := NewSet(Num(1), Num(2), Num(3))
	b := NewSet(Num(2), Num(3), Num(4))

	u := a.Union(b)
	if u.Len() != 4 {
		t.Errorf("union size = %d, want 4", u.Len())
	}
	i := IntersectAll([]Set{a, b})
	if !i.Equal(NewSet(Num(2), Num(3))) {
		t.Errorf("intersect = %v", i)
	}
	// Inputs untouched.
	if a.Len() != 3 || b.Len() != 3 {
		t.Error("Union/Intersect must not mutate inputs")
	}
}

func TestIntersectAllEmptyInput(t *testing.T) {
	if got := IntersectAll(nil); !got.IsEmpty() {
		t.Errorf("IntersectAll(nil) = %v, want empty (WRITTEN over empty inbox is ∅)", got)
	}
}

func TestIntersectAllSingle(t *testing.T) {
	a := NewSet(Num(1), Num(2))
	got := IntersectAll([]Set{a})
	if !got.Equal(a) {
		t.Errorf("IntersectAll([a]) = %v, want %v", got, a)
	}
	got.Add(Num(99))
	if a.Contains(Num(99)) {
		t.Error("IntersectAll must return an independent copy")
	}
}

func TestSetWithout(t *testing.T) {
	s := NewSet(Bot, Num(1))
	w := s.Without(Bot)
	if !w.Equal(NewSet(Num(1))) {
		t.Errorf("Without(Bot) = %v", w)
	}
	if !s.Contains(Bot) {
		t.Error("Without must not mutate the receiver")
	}
}

func TestSetMax(t *testing.T) {
	if _, ok := NewSet().Max(); ok {
		t.Error("Max of empty set must report !ok")
	}
	s := NewSet(Num(3), Num(10), Num(7), Bot)
	v, ok := s.Max()
	if !ok || v != Num(10) {
		t.Errorf("Max = %v,%v, want %v", v, ok, Num(10))
	}
}

func TestSetKeyCanonical(t *testing.T) {
	a := NewSet(Num(1), Num(2), Num(3))
	b := NewSet(Num(3), Num(1), Num(2))
	if a.Key() != b.Key() {
		t.Error("equal sets must have equal keys regardless of insertion order")
	}
	c := NewSet(Num(1), Num(2))
	if a.Key() == c.Key() {
		t.Error("different sets must have different keys")
	}
}

func TestSetKeyUnambiguous(t *testing.T) {
	// {"ab"} and {"a","b"} must not collide thanks to length prefixes.
	a := NewSet(Value("ab"))
	b := NewSet(Value("a"), Value("b"))
	if a.Key() == b.Key() {
		t.Errorf("key collision: %q", a.Key())
	}
}

func TestSetAlgebraProperties(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}

	t.Run("union commutes", func(t *testing.T) {
		f := func(x, y []byte) bool {
			a, b := randSet(x), randSet(y)
			return a.Union(b).Equal(b.Union(a))
		}
		if err := quick.Check(f, cfg); err != nil {
			t.Error(err)
		}
	})
	t.Run("intersection subset of both", func(t *testing.T) {
		f := func(x, y []byte) bool {
			a, b := randSet(x), randSet(y)
			i := IntersectAll([]Set{a, b})
			return i.SubsetOf(a) && i.SubsetOf(b)
		}
		if err := quick.Check(f, cfg); err != nil {
			t.Error(err)
		}
	})
	t.Run("key determines equality", func(t *testing.T) {
		f := func(x, y []byte) bool {
			a, b := randSet(x), randSet(y)
			return (a.Key() == b.Key()) == a.Equal(b)
		}
		if err := quick.Check(f, cfg); err != nil {
			t.Error(err)
		}
	})
	t.Run("union idempotent", func(t *testing.T) {
		f := func(x []byte) bool {
			a := randSet(x)
			return a.Union(a).Equal(a)
		}
		if err := quick.Check(f, cfg); err != nil {
			t.Error(err)
		}
	})
}

func TestSetSortedAscending(t *testing.T) {
	s := NewSet(Num(9), Num(1), Num(5))
	got := s.Sorted()
	want := []Value{Num(1), Num(5), Num(9)}
	if len(got) != len(want) {
		t.Fatalf("Sorted len = %d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Sorted[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSetString(t *testing.T) {
	s := NewSet(Bot, Value("a"))
	if got := s.String(); got != "{⊥, a}" {
		t.Errorf("String = %q", got)
	}
}
