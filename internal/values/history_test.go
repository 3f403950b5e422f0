package values

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func randHistory(bs []byte) History {
	if len(bs) == 0 {
		return NewHistory(Num(0))
	}
	h := NewHistory(Num(int64(bs[0] % 4)))
	for _, b := range bs[1:] {
		h = h.Append(Num(int64(b % 4)))
	}
	return h
}

func TestHistoryAppendImmutable(t *testing.T) {
	h := NewHistory(Num(1))
	g := h.Append(Num(2))
	if h.Len() != 1 {
		t.Error("Append must not modify the receiver")
	}
	if g.Len() != 2 || g.Values()[1] != Num(2) {
		t.Errorf("Append result wrong: %v", g)
	}
	// Appending to the same base twice must not alias.
	a := h.Append(Num(3))
	b := h.Append(Num(4))
	if a.Values()[1] == b.Values()[1] {
		t.Error("two appends to same base aliased underlying storage")
	}
}

func TestHistoryPrefix(t *testing.T) {
	h1 := NewHistory(Num(1))
	h12 := h1.Append(Num(2))
	h13 := h1.Append(Num(3))

	tests := []struct {
		name string
		a, b History
		want bool
	}{
		{"self prefix (non-strict)", h12, h12, true},
		{"proper prefix", h1, h12, true},
		{"not prefix (diverged)", h12, h13, false},
		{"longer not prefix of shorter", h12, h1, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.IsPrefixOf(tt.b); got != tt.want {
				t.Errorf("IsPrefixOf = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestHistoryDivergenceIsPermanent(t *testing.T) {
	// Once two histories differ at some position, no extensions of them are
	// ever prefix-related (§4.1: diverged histories never become identical).
	f := func(x []byte, extA, extB []byte) bool {
		base := randHistory(x)
		a := base.Append(Num(100)) // diverge here
		b := base.Append(Num(200))
		for _, e := range extA {
			a = a.Append(Num(int64(e)))
		}
		for _, e := range extB {
			b = b.Append(Num(int64(e)))
		}
		return !a.IsPrefixOf(b) && !b.IsPrefixOf(a) && !a.Equal(b)
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(2))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestHistoryKeyCanonical(t *testing.T) {
	f := func(x, y []byte) bool {
		a, b := randHistory(x), randHistory(y)
		return (a.Key() == b.Key()) == a.Equal(b)
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestHistoryKeyUnambiguous(t *testing.T) {
	// ["ab"] vs ["a","b"]
	a := NewHistory(Value("ab"))
	b := NewHistory(Value("a")).Append(Value("b"))
	if a.Key() == b.Key() {
		t.Errorf("history key collision: %q", a.Key())
	}
}

func TestHistoryString(t *testing.T) {
	h := NewHistory(Value("a")).Append(Bot)
	if got := h.String(); got != "[a ⊥]" {
		t.Errorf("String = %q", got)
	}
}
