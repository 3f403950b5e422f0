package values

import (
	"slices"
	"strings"
	"testing"

	"anonconsensus/internal/ordered"
)

// refSet is a map-based value set, the representation the sorted slice
// replaced, kept as the reference model FuzzSetOps checks Set against.
type refSet map[Value]bool

func newRefSet(vs ...Value) refSet {
	m := refSet{}
	for _, v := range vs {
		m[v] = true
	}
	return m
}

func (m refSet) sorted() []Value { return ordered.Keys(m) }

func (m refSet) union(o refSet) refSet {
	out := newRefSet(m.sorted()...)
	for _, v := range o.sorted() {
		out[v] = true
	}
	return out
}

func (m refSet) subsetOf(o refSet) bool {
	for _, v := range m.sorted() {
		if !o[v] {
			return false
		}
	}
	return true
}

func (m refSet) key() string {
	var b strings.Builder
	b.WriteString("S")
	for _, v := range m.sorted() {
		encodeString(&b, string(v))
	}
	return b.String()
}

func refUnionAll(ms []refSet) refSet {
	out := refSet{}
	for _, m := range ms {
		out = out.union(m)
	}
	return out
}

func refIntersectAll(ms []refSet) refSet {
	out := refSet{}
	if len(ms) == 0 {
		return out
	}
	for _, v := range ms[0].sorted() {
		in := true
		for _, m := range ms[1:] {
			in = in && m[v]
		}
		if in {
			out[v] = true
		}
	}
	return out
}

// setDomain is the values FuzzSetOps draws from: ⊥, the empty string,
// strings that are prefixes of each other, and numeric values.
var setDomain = []Value{Bot, "", "a", "ab", "b", Num(0), Num(1), Num(2), Num(10), Num(11)}

// FuzzSetOps drives Set through random NewSet, Add, AddAll, Union,
// UnionAll, IntersectAll and Without sequences, and copies followed by
// Add, beside the map-based reference model, on six slots. After every
// operation it checks that the two agree on every read: Len, IsEmpty,
// Contains, Equal, SubsetOf, IsExactly, Max, Sorted, Key, Fingerprint and
// EncodedSize.
func FuzzSetOps(f *testing.F) {
	f.Add([]byte{0, 0, 3, 5, 6, 7, 0, 1, 2, 1, 4, 1, 2, 1, 0, 3})
	f.Add([]byte{0, 1, 4, 1, 2, 3, 4, 0, 2, 4, 8, 9, 5, 4, 0, 63, 2})
	f.Add([]byte{0, 0, 2, 5, 6, 0, 1, 2, 6, 7, 0, 2, 3, 0, 1, 2, 3, 4, 5, 0, 63, 3})
	f.Add([]byte{0, 0, 4, 0, 1, 2, 3, 0, 1, 1, 2, 3, 4, 4, 15, 3, 6, 1, 1, 0, 1, 7, 1, 2, 9})
	f.Add([]byte("\x00\x00\x03\x05\x06\x07\x07\x00\x04\x02\x01\x06\x00\x00\x01\x01\x05\x00\x3f\x04"))
	f.Add([]byte("0021001C00221")) // AddAll whose merge meets an element both sides hold
	f.Add([]byte("002000111$07"))  // UnionAll that grows its largest operand
	f.Fuzz(func(t *testing.T, ops []byte) {
		const slots = 6
		sets := make([]Set, slots)
		models := make([]refSet, slots)
		for i := range models {
			models[i] = refSet{}
		}
		next := func() int {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return int(b)
		}
		val := func() Value { return setDomain[next()%len(setDomain)] }
		pick := func() ([]Set, []refSet) {
			mask := next() % (1 << slots)
			var ss []Set
			var ms []refSet
			for i := 0; i < slots; i++ {
				if mask&(1<<i) != 0 {
					ss, ms = append(ss, sets[i]), append(ms, models[i])
				}
			}
			return ss, ms
		}
		for steps := 0; len(ops) > 0 && steps < 200; steps++ {
			switch next() % 8 {
			case 0: // NewSet of up to seven values, repeats and any order
				d, k := next()%slots, next()%8
				vs := make([]Value, k)
				for i := range vs {
					vs[i] = val()
				}
				sets[d], models[d] = NewSet(vs...), newRefSet(vs...)
			case 1: // Add
				d, v := next()%slots, val()
				sets[d].Add(v)
				models[d] = models[d].union(newRefSet(v))
			case 2: // AddAll
				d, j := next()%slots, next()%slots
				sets[d].AddAll(sets[j])
				models[d] = models[d].union(models[j])
			case 3: // Union
				d, i, j := next()%slots, next()%slots, next()%slots
				sets[d], models[d] = sets[i].Union(sets[j]), models[i].union(models[j])
			case 4: // UnionAll
				d := next() % slots
				ss, ms := pick()
				sets[d], models[d] = UnionAll(ss), refUnionAll(ms)
			case 5: // IntersectAll
				d := next() % slots
				ss, ms := pick()
				sets[d], models[d] = IntersectAll(ss), refIntersectAll(ms)
			case 6: // Without
				d, i, v, w := next()%slots, next()%slots, val(), val()
				sets[d] = sets[i].Without(v, w)
				models[d] = newRefSet(models[i].sorted()...)
				delete(models[d], v)
				delete(models[d], w)
			case 7: // a copy, then Add on the copy
				d, i, v := next()%slots, next()%slots, val()
				c := sets[i]
				c.Add(v)
				sets[d], models[d] = c, models[i].union(newRefSet(v))
			}
			checkSetPairs(t, sets, models)
			for i, s := range sets {
				m := models[i]
				if s.Len() != len(m) || s.IsEmpty() != (len(m) == 0) {
					t.Fatalf("set %d = %v: Len %d IsEmpty %v, model %v", i, s, s.Len(), s.IsEmpty(), m.sorted())
				}
				if got, want := s.Sorted(), m.sorted(); !slices.Equal(got, want) {
					t.Fatalf("set %d: Sorted %q, model %q", i, got, want)
				}
				if got, want := slices.Collect(s.All()), m.sorted(); !slices.Equal(got, want) {
					t.Fatalf("set %d: All yields %q, model %q", i, got, want)
				}
				for _, v := range setDomain {
					if s.Contains(v) != m[v] || s.IsExactly(v) != (len(m) == 1 && m[v]) {
						t.Fatalf("set %d = %v: Contains(%q) %v IsExactly %v, model %v", i, s, v, s.Contains(v), s.IsExactly(v), m.sorted())
					}
				}
				gotMax, gotOK := s.Max()
				var wantMax Value
				if len(m) > 0 {
					wantMax = m.sorted()[len(m)-1]
				}
				if gotMax != wantMax || gotOK != (len(m) > 0) {
					t.Fatalf("set %d = %v: Max %q %v, model %q", i, s, gotMax, gotOK, wantMax)
				}
				key := m.key()
				if s.Fingerprint() != FingerprintString(key) || s.EncodedSize() != len(key) || s.Key() != key {
					t.Fatalf("set %d: key %q size %d, model %q", i, s.Key(), s.EncodedSize(), key)
				}
			}
		}
	})
}

// checkSetPairs checks Equal and SubsetOf on every pair of slots, and on
// each slot against a fresh set of its model's members.
func checkSetPairs(t *testing.T, sets []Set, models []refSet) {
	t.Helper()
	for i, s := range sets {
		fresh := NewSet(models[i].sorted()...)
		if !s.Equal(fresh) || !fresh.Equal(s) || !s.SubsetOf(fresh) {
			t.Fatalf("set %d = %v: not equal to a fresh set of its model %v", i, s, models[i].sorted())
		}
		for j, u := range sets {
			eq := models[i].subsetOf(models[j]) && models[j].subsetOf(models[i])
			if s.Equal(u) != eq || s.SubsetOf(u) != models[i].subsetOf(models[j]) {
				t.Fatalf("sets %d = %v, %d = %v: Equal %v SubsetOf %v disagree with the model", i, s, j, u, s.Equal(u), s.SubsetOf(u))
			}
		}
	}
}
