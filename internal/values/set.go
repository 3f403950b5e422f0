package values

import (
	"iter"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// Set is a finite set of Values: PROPOSED, WRITTEN and WRITTENOLD
// (Algorithms 2–4) are all value sets. The zero value is the empty set.
//
// A Set is its canonical form, the strictly ascending element slice, and a
// value: it points to immutable data that copies share. Union, UnionAll,
// IntersectAll and Without merge and filter sorted slices and return an
// operand itself when they add or remove nothing; Add and AddAll rebind
// their receiver, so a copy taken before them keeps its members. The
// fingerprint, encoded size and key are computed on first use and kept
// with the data: Key, Fingerprint, EncodedSize and Equal are then O(1).
//
// Compare sets with Equal, never with ==, which compares storage: detlint's
// setequal rule rejects == and != on a Set and on anything holding one.
type Set struct {
	d *setData
}

// setData is one non-empty set's contents; a singleton's element is inline,
// one allocation. Readers of a shared set fill the summary concurrently.
type setData struct {
	elems []Value // strictly ascending
	one   [1]Value
	canon atomic.Pointer[canonForm]
}

// canonForm is a set's canonical summary. The key is built only when asked
// for, so identity checks and size accounting never build strings.
type canonForm struct {
	fp      Fingerprint
	encSize int
	key     string // "" until built; real keys start with "S"
}

// emptyCanon is the zero Set's summary, shared so that it allocates nothing.
var emptyCanon = canonForm{fp: FingerprintString("S"), encSize: 1, key: "S"}

// single returns {v}.
func single(v Value) Set {
	d := &setData{one: [1]Value{v}}
	d.elems = d.one[:]
	return Set{d: d}
}

// fromSorted returns the set of elems, which must be strictly ascending.
// It keeps elems unless the set is empty or a singleton.
func fromSorted(elems []Value) Set {
	switch len(elems) {
	case 0:
		return Set{}
	case 1:
		return single(elems[0])
	}
	return Set{d: &setData{elems: elems}}
}

// owned returns the set of a copy of the strictly ascending slice e.
func owned(e []Value) Set {
	if len(e) <= 1 {
		return fromSorted(e)
	}
	return fromSorted(slices.Clone(e))
}

// NewSet returns the set of the given values, in any order and with any
// repeats.
func NewSet(vs ...Value) Set {
	switch len(vs) {
	case 0:
		return Set{}
	case 1:
		return single(vs[0])
	}
	e := slices.Clone(vs)
	slices.Sort(e)
	return fromSorted(slices.Compact(e))
}

func (s Set) elems() []Value {
	if s.d == nil {
		return nil
	}
	return s.d.elems
}

// Len returns the number of values in the set.
func (s Set) Len() int { return len(s.elems()) }

// IsEmpty reports whether the set has no values.
func (s Set) IsEmpty() bool { return s.d == nil }

// Contains reports whether v is in the set.
func (s Set) Contains(v Value) bool {
	_, ok := slices.BinarySearch(s.elems(), v)
	return ok
}

// Add inserts v, rebinding s to the enlarged set.
func (s *Set) Add(v Value) {
	switch i, ok := slices.BinarySearch(s.elems(), v); {
	case s.d == nil:
		*s = single(v)
	case !ok:
		*s = fromSorted(slices.Insert(slices.Clip(s.d.elems), i, v))
	}
}

// AddAll inserts every value of t, rebinding s to the union.
func (s *Set) AddAll(t Set) { *s = s.Union(t) }

// Union returns the set of every value of s and t: the larger of the two
// itself when the other adds nothing to it.
func (s Set) Union(t Set) Set { return UnionAll([]Set{s, t}) }

// merge appends the union of two strictly ascending slices to dst.
func merge(dst, a, b []Value) []Value {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch c := strings.Compare(string(a[i]), string(b[j])); {
		case c < 0:
			dst = append(dst, a[i])
			i++
		case c > 0:
			dst = append(dst, b[j])
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}

// subsetSorted reports whether every element of a is in b, both strictly
// ascending: each binary search starts where the last one ended.
func subsetSorted(a, b []Value) bool {
	for _, v := range a {
		k, ok := slices.BinarySearch(b, v)
		if !ok {
			return false
		}
		b = b[k+1:]
	}
	return true
}

// scratch holds the merge buffers UnionAll and IntersectAll reuse. Each
// call clears what it wrote before putting them back, so the pool pins no
// values.
var scratch = sync.Pool{New: func() any { return new([2][]Value) }}

// IntersectAll intersects all given sets. Following the convention used by
// the algorithms (WRITTEN := ∩_{m∈M_i[k]} m over a non-empty inbox), the
// intersection of zero sets is defined as the empty set: with no evidence,
// nothing counts as written.
//
// It filters the smallest set by each of the others and returns that set
// itself when no filter removes anything.
func IntersectAll(sets []Set) Set {
	if len(sets) == 0 {
		return Set{}
	}
	small := sets[0]
	for _, t := range sets[1:] {
		if t.Len() < small.Len() {
			small = t
		}
	}
	acc := small.elems()
	var buf *[2][]Value
	for _, t := range sets {
		if t.d == small.d || subsetSorted(acc, t.elems()) {
			continue
		}
		if buf == nil {
			buf = scratch.Get().(*[2][]Value)
			buf[0] = append(buf[0][:0], acc...)
			acc = buf[0]
		}
		acc = slices.DeleteFunc(acc, func(v Value) bool { return !t.Contains(v) })
	}
	if buf == nil {
		return small
	}
	out := owned(acc)
	clear(buf[0])
	scratch.Put(buf)
	return out
}

// UnionAll unions all given sets. It merges each set that adds something
// into the largest, alternating between two reused buffers, and returns
// the largest set itself when none does.
func UnionAll(sets []Set) Set {
	var big Set
	for _, t := range sets {
		if t.Len() > big.Len() {
			big = t
		}
	}
	acc := big.elems()
	var buf *[2][]Value
	cur := 0
	for _, t := range sets {
		if t.d == big.d || subsetSorted(t.elems(), acc) {
			continue
		}
		if buf == nil {
			buf = scratch.Get().(*[2][]Value)
		} else {
			cur = 1 - cur
		}
		// acc only grows, so each buffer's length stays the most it holds.
		buf[cur] = merge(buf[cur][:0], acc, t.elems())
		acc = buf[cur]
	}
	if buf == nil {
		return big
	}
	out := owned(acc)
	clear(buf[0])
	clear(buf[1])
	scratch.Put(buf)
	return out
}

// Without returns the set s minus the given values: s itself when it holds
// none of them.
func (s Set) Without(vs ...Value) Set {
	if !slices.ContainsFunc(vs, s.Contains) {
		return s
	}
	return fromSorted(slices.DeleteFunc(slices.Clone(s.elems()), func(v Value) bool {
		return slices.Contains(vs, v)
	}))
}

// Equal reports whether s and t contain exactly the same values: whether
// their fingerprints, computed once per set, are equal.
func (s Set) Equal(t Set) bool {
	return s.d == t.d || s.Len() == t.Len() && s.Fingerprint() == t.Fingerprint()
}

// SubsetOf reports whether every value of s is in t.
func (s Set) SubsetOf(t Set) bool {
	return s.Len() <= t.Len() && subsetSorted(s.elems(), t.elems())
}

// IsExactly reports whether the set is exactly {v}, the shape tested by the
// decide conditions (Algorithm 2 line 9, Algorithm 3 line 11).
func (s Set) IsExactly(v Value) bool {
	return s.Len() == 1 && s.d.elems[0] == v
}

// Max returns the maximum value of the set and true, or ("", false) for an
// empty set.
func (s Set) Max() (Value, bool) {
	if s.d == nil {
		return "", false
	}
	return s.d.elems[len(s.d.elems)-1], true
}

// Sorted returns the values in ascending order, in a slice that is the
// caller's to keep.
func (s Set) Sorted() []Value { return slices.Clone(s.elems()) }

// All yields the values in ascending order without copying them.
func (s Set) All() iter.Seq[Value] { return slices.Values(s.elems()) }

// summary returns the canonical summary, computing the fingerprint and
// encoded size on first use, and the key too when withKey is set.
func (s Set) summary(withKey bool) *canonForm {
	if s.d == nil {
		return &emptyCanon
	}
	c := s.d.canon.Load()
	if c != nil && (!withKey || c.key != "") {
		return c
	}
	next := &canonForm{}
	if c != nil {
		*next = *c
	} else {
		var h Hasher
		s.WriteKey(&h)
		next.encSize = 1
		for _, v := range s.d.elems {
			next.encSize += decDigits(len(v)) + 1 + len(v)
		}
		next.fp = h.Sum()
	}
	if withKey {
		var b strings.Builder
		b.Grow(next.encSize)
		b.WriteString("S")
		for _, v := range s.d.elems {
			encodeString(&b, string(v))
		}
		next.key = b.String()
	}
	s.d.canon.Store(next)
	return next
}

// WriteKey folds the set's key into h without building it.
func (s Set) WriteKey(h *Hasher) {
	_ = h.WriteByte('S')
	for _, v := range s.elems() {
		h.writeLengthPrefixed(string(v))
	}
}

// Key returns the canonical encoding of the set. Two sets have equal keys
// iff they are equal.
func (s Set) Key() string { return s.summary(true).key }

// Fingerprint returns the 128-bit fingerprint of the canonical encoding:
// Fingerprint() == FingerprintString(Key()), without materializing the
// key. Fingerprint equality is structural equality (canonical-form
// invariant).
func (s Set) Fingerprint() Fingerprint { return s.summary(false).fp }

// String implements fmt.Stringer: "{a, b, ⊥}".
func (s Set) String() string {
	parts := make([]string, 0, s.Len())
	for _, v := range s.elems() {
		parts = append(parts, v.String())
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// EncodedSize returns the length in bytes of the canonical encoding; the
// simulator uses it to account message sizes (experiment T6). It is
// computed arithmetically alongside the fingerprint — the key string is
// never built just to be measured.
func (s Set) EncodedSize() int { return s.summary(false).encSize }
