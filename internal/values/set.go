package values

import (
	"sort"
	"strings"
	"sync/atomic"
)

// Set is a finite set of Values. The zero value is an empty set ready to
// use for reads; use NewSet or Add (which allocates lazily) to build sets.
//
// Sets are the building block of every payload in the paper: PROPOSED,
// WRITTEN and WRITTENOLD (Algorithms 2–4) are all value sets.
//
// A Set carries a lazily computed canonical form — the ascending element
// slice, a 128-bit fingerprint, the canonical key string and its encoded
// size — which is invalidated on mutation and shared by clones, so Key,
// Fingerprint, Equal, Max, Sorted and EncodedSize are O(1) once a set has
// stopped changing (the steady state of every payload: payloads are
// immutable after an automaton returns them). Aliased copies (plain
// assignment) share both the element map and the cache, exactly mirroring
// the aliasing of the underlying map.
type Set struct {
	m map[Value]struct{}
	c *setCtl
}

// setCtl is the cache cell shared by all aliases of one set (allocated 1:1
// with the element map). The canonical form is published via an atomic
// pointer so concurrent readers of an immutable set can fill the cache
// without a data race; mutation stores nil.
type setCtl struct {
	canon atomic.Pointer[canonSet]
}

// canonSet is an immutable canonical-form snapshot. key is materialized on
// demand (a keyed snapshot replaces the unkeyed one); fingerprint and
// encoded size are always present so identity checks and message-size
// accounting never build strings.
type canonSet struct {
	sorted  []Value
	fp      Fingerprint
	encSize int
	key     string // "" until materialized (real keys always start with "S")
}

// NewSet returns a set containing the given values.
func NewSet(vs ...Value) Set {
	s := Set{m: make(map[Value]struct{}, len(vs)), c: &setCtl{}}
	for _, v := range vs {
		s.m[v] = struct{}{}
	}
	return s
}

// Len returns the number of values in the set.
func (s Set) Len() int { return len(s.m) }

// IsEmpty reports whether the set has no values.
func (s Set) IsEmpty() bool { return len(s.m) == 0 }

// Contains reports whether v is in the set.
func (s Set) Contains(v Value) bool {
	_, ok := s.m[v]
	return ok
}

// loadCanon returns the cached canonical form, or nil when the set is
// dirty or has never been summarized.
func (s Set) loadCanon() *canonSet {
	if s.c == nil {
		return nil
	}
	return s.c.canon.Load()
}

// invalidate drops the cached canonical form after a mutation.
func (s Set) invalidate() {
	if s.c != nil {
		s.c.canon.Store(nil)
	}
}

// ensureCanon returns the canonical form, computing sorted order,
// fingerprint and encoded size (but not the key string) on a miss.
func (s Set) ensureCanon() *canonSet {
	if cs := s.loadCanon(); cs != nil {
		return cs
	}
	sorted := make([]Value, 0, len(s.m))
	//detlint:ordered collected values are canonically sorted by Value.Less on the next line
	for v := range s.m {
		sorted = append(sorted, v)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Less(sorted[j]) })
	var h Hasher
	h.WriteString("S")
	size := 1
	for _, v := range sorted {
		h.writeLengthPrefixed(string(v))
		size += decDigits(len(v)) + 1 + len(v)
	}
	cs := &canonSet{sorted: sorted, fp: h.Sum(), encSize: size}
	if s.c != nil {
		s.c.canon.Store(cs)
	}
	return cs
}

// ensureKey returns the canonical form with the key string materialized.
func (s Set) ensureKey() *canonSet {
	cs := s.ensureCanon()
	if cs.key != "" {
		return cs
	}
	var b strings.Builder
	b.Grow(cs.encSize)
	b.WriteString("S")
	for _, v := range cs.sorted {
		encodeString(&b, string(v))
	}
	keyed := &canonSet{sorted: cs.sorted, fp: cs.fp, encSize: cs.encSize, key: b.String()}
	if s.c != nil {
		s.c.canon.Store(keyed)
	}
	return keyed
}

// Add inserts v, allocating the underlying map if needed.
func (s *Set) Add(v Value) {
	if s.m == nil {
		s.m = make(map[Value]struct{})
		s.c = &setCtl{}
	}
	if _, ok := s.m[v]; ok {
		return
	}
	s.m[v] = struct{}{}
	s.invalidate()
}

// AddAll inserts every value of t into s.
func (s *Set) AddAll(t Set) {
	//detlint:ordered set insertion is commutative; the union is visit-order-independent
	for v := range t.m {
		s.Add(v)
	}
}

// remove deletes v (no-op when absent), invalidating the cache.
func (s *Set) remove(v Value) {
	if _, ok := s.m[v]; !ok {
		return
	}
	delete(s.m, v)
	s.invalidate()
}

// Clone returns an independent copy of s. The canonical-form cache is
// carried over (it is an immutable snapshot), so cloning a settled set
// keeps Key/Fingerprint O(1).
func (s Set) Clone() Set {
	c := Set{m: make(map[Value]struct{}, len(s.m)), c: &setCtl{}}
	//detlint:ordered map copy; the resulting set is visit-order-independent
	for v := range s.m {
		c.m[v] = struct{}{}
	}
	if cs := s.loadCanon(); cs != nil {
		c.c.canon.Store(cs)
	}
	return c
}

// Union returns a new set with every value of s and t.
func (s Set) Union(t Set) Set {
	u := s.Clone()
	u.AddAll(t)
	return u
}

// IntersectAll intersects all given sets. Following the convention used by
// the algorithms (WRITTEN := ∩_{m∈M_i[k]} m over a non-empty inbox), the
// intersection of zero sets is defined as the empty set: with no evidence,
// nothing counts as written.
//
// It walks the smallest set once and keeps the values every set contains,
// building one output set instead of one per pairwise intersection.
func IntersectAll(sets []Set) Set {
	if len(sets) == 0 {
		return NewSet()
	}
	small := sets[0]
	for _, t := range sets[1:] {
		if t.Len() < small.Len() {
			small = t
		}
	}
	out := NewSet()
	//detlint:ordered membership filter into a set is commutative
	for v := range small.m {
		in := true
		for _, t := range sets {
			if !t.Contains(v) {
				in = false
				break
			}
		}
		if in {
			out.m[v] = struct{}{}
		}
	}
	return out
}

// UnionAll unions all given sets. The result is sized for the worst case
// (all sets disjoint) up front, so building a large union never rehashes.
func UnionAll(sets []Set) Set {
	total := 0
	for _, t := range sets {
		total += t.Len()
	}
	out := Set{m: make(map[Value]struct{}, total), c: &setCtl{}}
	for _, t := range sets {
		//detlint:ordered map copy; the resulting set is visit-order-independent
		for v := range t.m {
			out.m[v] = struct{}{}
		}
	}
	return out
}

// Without returns a new set equal to s minus the given values.
func (s Set) Without(vs ...Value) Set {
	out := s.Clone()
	for _, v := range vs {
		out.remove(v)
	}
	return out
}

// Equal reports whether s and t contain exactly the same values. When both
// sets have settled canonical forms this is a fingerprint comparison.
func (s Set) Equal(t Set) bool {
	if s.Len() != t.Len() {
		return false
	}
	if sc, tc := s.loadCanon(), t.loadCanon(); sc != nil && tc != nil {
		return sc.fp == tc.fp
	}
	//detlint:ordered universally quantified membership check; visit order cannot change the verdict
	for v := range s.m {
		if !t.Contains(v) {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every value of s is in t. When both sets have
// settled canonical forms and the same fingerprint they are equal (hence
// trivially subsets) without touching either map.
func (s Set) SubsetOf(t Set) bool {
	if s.Len() > t.Len() {
		return false
	}
	if sc, tc := s.loadCanon(), t.loadCanon(); sc != nil && tc != nil && sc.fp == tc.fp {
		return true
	}
	//detlint:ordered universally quantified membership check; visit order cannot change the verdict
	for v := range s.m {
		if !t.Contains(v) {
			return false
		}
	}
	return true
}

// IsExactly reports whether the set is exactly {v}, the shape tested by the
// decide conditions (Algorithm 2 line 9, Algorithm 3 line 11).
func (s Set) IsExactly(v Value) bool {
	return s.Len() == 1 && s.Contains(v)
}

// Max returns the maximum value of the set and true, or ("", false) for an
// empty set.
func (s Set) Max() (Value, bool) {
	if len(s.m) == 0 {
		return "", false
	}
	if cs := s.loadCanon(); cs != nil {
		return cs.sorted[len(cs.sorted)-1], true
	}
	var (
		best  Value
		found bool
	)
	//detlint:ordered argmax under the strict total order Value.Less is visit-order-independent
	for v := range s.m {
		if !found || best.Less(v) {
			best, found = v, true
		}
	}
	return best, found
}

// Sorted returns the values in ascending order. The returned slice is the
// caller's to keep; the sort itself is cached across calls.
func (s Set) Sorted() []Value {
	cs := s.ensureCanon()
	out := make([]Value, len(cs.sorted))
	copy(out, cs.sorted)
	return out
}

// Key returns the canonical encoding of the set. Two sets have equal keys
// iff they are equal. The string is cached until the next mutation.
func (s Set) Key() string { return s.ensureKey().key }

// Fingerprint returns the 128-bit fingerprint of the canonical encoding:
// Fingerprint() == FingerprintString(Key()), without materializing the
// key. Fingerprint equality is structural equality (canonical-form
// invariant).
func (s Set) Fingerprint() Fingerprint { return s.ensureCanon().fp }

// String implements fmt.Stringer: "{a, b, ⊥}".
func (s Set) String() string {
	parts := make([]string, 0, s.Len())
	for _, v := range s.Sorted() {
		parts = append(parts, v.String())
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// EncodedSize returns the length in bytes of the canonical encoding; the
// simulator uses it to account message sizes (experiment T6). It is
// computed arithmetically alongside the fingerprint — the key string is
// never built just to be measured.
func (s Set) EncodedSize() int { return s.ensureCanon().encSize }
