package values

import "testing"

// Allocation pins for the canonical-form hot paths: once a set has
// settled, identity operations must be allocation-free. Future PRs that
// regress the cache fail here, not in a benchmark nobody reruns.

func TestSetKeyAllocsWarm(t *testing.T) {
	s := NewSet(Num(1), Num(2), Num(3), Bot)
	_ = s.Key() // settle
	if n := testing.AllocsPerRun(100, func() { _ = s.Key() }); n != 0 {
		t.Errorf("Set.Key on settled set: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = s.Fingerprint() }); n != 0 {
		t.Errorf("Set.Fingerprint on settled set: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = s.EncodedSize() }); n != 0 {
		t.Errorf("Set.EncodedSize on settled set: %v allocs/op, want 0", n)
	}
	t2 := NewSet(Num(1), Num(2), Num(3), Bot) // equal members, other storage
	_ = t2.Fingerprint()
	if n := testing.AllocsPerRun(100, func() { _ = s.Equal(t2) }); n != 0 {
		t.Errorf("Set.Equal on settled sets: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = s.Max() }); n != 0 {
		t.Errorf("Set.Max on settled set: %v allocs/op, want 0", n)
	}
}

func TestEncodedSizeNeedsNoKey(t *testing.T) {
	// EncodedSize on a fresh (never keyed) set must not materialize the key
	// string: exactly one canonical-form allocation set, no string build.
	mk := func() Set { return NewSet(Num(1), Num(22), Num(333)) }
	withKey := testing.AllocsPerRun(100, func() { _ = mk().Key() })
	withoutKey := testing.AllocsPerRun(100, func() { _ = mk().EncodedSize() })
	if withoutKey >= withKey {
		t.Errorf("EncodedSize allocates as much as Key (%v >= %v): key string is being built", withoutKey, withKey)
	}
}

// TestHistoryCountersAllocsWarm pins the Algorithm 3 tables' hot paths:
// Append is one node, a settled history's Key and every read of a settled
// counter table cost nothing, and Bump looks prefixes up without building
// a key: it allocates only the new immutable table, its header and its
// entries.
func TestHistoryCountersAllocsWarm(t *testing.T) {
	h := NewHistory(Num(1))
	for i := 0; i < 16; i++ {
		h = h.Append(Num(int64(i % 3)))
	}
	_ = h.Key() // settle
	if n := testing.AllocsPerRun(100, func() { _ = h.Append(Bot) }); n != 1 {
		t.Errorf("History.Append: %v allocs/op, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = h.Key() }); n != 0 {
		t.Errorf("History.Key on settled history: %v allocs/op, want 0", n)
	}
	c := NewCounters()
	c.Bump(h)
	c.Bump(NewHistory(Num(2)))
	_ = c.Key() // settle
	if n := testing.AllocsPerRun(100, func() {
		_, _, _ = c.Key(), c.EncodedSize(), c.IsMaximal(h)
	}); n != 0 {
		t.Errorf("Counters reads on settled table: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { c.Bump(h) }); n != 2 {
		t.Errorf("Counters.Bump of a stored history: %v allocs/op, want 2", n)
	}
}
