package values

import (
	"fmt"
	"iter"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
)

// Counters is the per-process table C of Algorithm 3: a counter for every
// proposal history heard of so far. It is the paper's pseudo leader
// election state — the anonymous replacement for per-ID heartbeat counters
// in classical Ω implementations.
//
// Missing histories implicitly have counter 0 (the paper's "∀H, C[H] := 0"
// without allocating memory for unheard histories). Entries whose counter
// is 0 are not stored, so two Counters with equal keys represent the same
// abstract function H ↦ C[H].
//
// A table is immutable and a value, as a Set is: it points to its entries,
// ascending by history fingerprint, with the maximal counter and the
// encoded size kept beside them; the key is built only when asked for. A
// CountersBuilder builds the table of lines 8–9 in one pass, and Bump and
// Set rebind their receiver to a new table, so a copy taken before them
// keeps its counters. The zero value is the empty table.
type Counters struct {
	t *ctrTable
}

type counterEntry struct {
	hist History
	n    int
}

// ctrTable is one non-empty table's contents.
type ctrTable struct {
	entries []counterEntry // ascending by history fingerprint, every n > 0
	max     int
	size    int // len(key)
	key     atomic.Pointer[string]
}

// NewCounters returns an empty counter table (all counters 0).
func NewCounters() Counters { return Counters{} }

// CountersOf returns the table with C[hs[i]] = ns[i] for every i: a later
// pair for a history replaces an earlier one, and counts ≤ 0 are dropped.
// It exists for wire codecs, which must take pairs in any order.
func CountersOf(hs []History, ns []int) Counters {
	e := make([]counterEntry, len(hs))
	for i, h := range hs {
		e[i] = counterEntry{hist: h, n: ns[i]}
	}
	slices.SortStableFunc(e, func(x, y counterEntry) int { return byHistory(x, y.hist.Fingerprint()) })
	kept := e[:0]
	for i, x := range e {
		if x.n > 0 && (i+1 == len(e) || !e[i+1].hist.Equal(x.hist)) {
			kept = append(kept, x)
		}
	}
	clear(e[len(kept):])
	return tableOf(kept)
}

// tableOf returns the table of entries, which must be ascending by history
// fingerprint with every count positive; the table keeps the slice.
func tableOf(entries []counterEntry) Counters {
	if len(entries) == 0 {
		return Counters{}
	}
	t := &ctrTable{entries: entries, size: len("C")}
	for _, e := range entries {
		t.max = max(t.max, e.n)
		hs := e.hist.EncodedSize()
		t.size += decDigits(hs) + 1 + hs + len("=;") + decDigits(e.n)
	}
	return Counters{t: t}
}

func (c Counters) entries() []counterEntry {
	if c.t == nil {
		return nil
	}
	return c.t.entries
}

// byHistory orders a table's entry against the history with fingerprint fp.
func byHistory(e counterEntry, fp Fingerprint) int { return e.hist.Fingerprint().Compare(fp) }

// Get returns C[h], which is 0 for histories never heard of.
func (c Counters) Get(h History) int {
	e := c.entries()
	if i, ok := slices.BinarySearchFunc(e, h.Fingerprint(), byHistory); ok {
		return e[i].n
	}
	return 0
}

// Len returns the number of histories with a non-zero counter.
func (c Counters) Len() int { return len(c.entries()) }

// Set stores C[h] = n, rebinding c to a copy of its table; n ≤ 0 drops the
// entry. Algorithm 3 itself only ever changes counters through
// CountersBuilder.MinMergeBump.
func (c *Counters) Set(h History, n int) {
	e := c.entries()
	i, found := slices.BinarySearchFunc(e, h.Fingerprint(), byHistory)
	rest := e[i:]
	if found {
		rest = rest[1:]
	}
	out := append(make([]counterEntry, 0, len(e)+1), e[:i]...)
	if n > 0 {
		out = append(out, counterEntry{hist: h, n: n})
	}
	*c = tableOf(append(out, rest...))
}

// Bump implements Algorithm 3 line 9 for one received history h, rebinding
// c: C[h] := 1 + max{ C[H] | H is a (non-strict) prefix of h }.
func (c *Counters) Bump(h History) {
	best := c.Get(History{})
	for n := h.n; n != nil; n = n.parent {
		best = max(best, c.Get(History{n: n}))
	}
	c.Set(h, 1+best)
}

// CountersBuilder is the working table MinMergeBump builds a new one in,
// kept by its caller so that its storage serves round after round:
// work[:head] holds the entries kept from merged tables, still ascending,
// and work[head:] the histories added since; at holds every entry's
// position once a lookup needs it. A builder is cleared after each build,
// so it pins no histories. The zero value is ready to use; a builder is not
// safe for concurrent use.
type CountersBuilder struct {
	work    []counterEntry
	head    int
	at      map[Fingerprint]int
	cursors []int
}

// MinMergeBump implements Algorithm 3 lines 8–9 in one pass: the min-merge
// of msgs (∀H, C[H] := min_{m∈M} m.C[H], so only histories present in
// every message keep a positive counter), then a bump of each of hs in
// order, which looks up the history's prefixes, the empty one included,
// instead of scanning the table. Bumps of histories of one length, as one
// round's are, commute. It returns a table of msgs itself when
// the merge keeps it whole and hs is empty.
func (b *CountersBuilder) MinMergeBump(msgs []Counters, hs []History) Counters {
	defer b.reset()
	base, whole := b.minMerge(msgs)
	if whole && len(hs) == 0 {
		return base
	}
	for _, h := range hs {
		best := b.get(emptyHistoryFP)
		for n := h.n; n != nil; n = n.parent {
			best = max(best, b.get(n.fp))
		}
		b.set(h, 1+best)
	}
	return b.build()
}

func (b *CountersBuilder) reset() {
	clear(b.work)
	clear(b.at)
	b.work, b.head, b.cursors = b.work[:0], 0, b.cursors[:0]
}

// minMerge fills work with the min-merge of msgs, walking the smallest
// table and each of the others in step, since all are in one order. It
// returns that table and whether the merge kept it whole.
func (b *CountersBuilder) minMerge(msgs []Counters) (Counters, bool) {
	var base Counters
	for i, m := range msgs {
		if i == 0 || m.Len() < base.Len() {
			base = m
		}
		b.cursors = append(b.cursors, 0)
	}
	whole := true
	for _, e := range base.entries() {
		n, fp := e.n, e.hist.Fingerprint()
		for j, m := range msgs {
			if m.t == base.t || n == 0 {
				continue
			}
			es, k := m.t.entries, b.cursors[j]
			for k < len(es) && byHistory(es[k], fp) < 0 {
				k++
			}
			if b.cursors[j] = k; k < len(es) && es[k].hist.Equal(e.hist) {
				n = min(n, es[k].n)
			} else {
				n = 0
			}
		}
		if n > 0 {
			b.work = append(b.work, counterEntry{hist: e.hist, n: n})
		}
		whole = whole && n == e.n
	}
	b.head = len(b.work)
	return base, whole
}

// find returns the position in work of the history with fingerprint fp.
func (b *CountersBuilder) find(fp Fingerprint) (int, bool) {
	if b.at == nil {
		b.at = make(map[Fingerprint]int)
	}
	if len(b.at) < len(b.work) {
		for i, e := range b.work {
			b.at[e.hist.Fingerprint()] = i
		}
	}
	i, ok := b.at[fp]
	return i, ok
}

// get returns the working counter of the history with fingerprint fp.
func (b *CountersBuilder) get(fp Fingerprint) int {
	if i, ok := b.find(fp); ok {
		return b.work[i].n
	}
	return 0
}

// set stores C[h] = n > 0 in the working table.
func (b *CountersBuilder) set(h History, n int) {
	if i, ok := b.find(h.Fingerprint()); ok {
		b.work[i].n = n
	} else {
		b.at[h.Fingerprint()] = len(b.work)
		b.work = append(b.work, counterEntry{hist: h, n: n})
	}
}

// build returns the working table as an immutable one: the kept entries
// in their order, each added history inserted at its place.
func (b *CountersBuilder) build() Counters {
	e := make([]counterEntry, 0, len(b.work))
	for i, x := range b.work {
		at := len(e)
		if i >= b.head {
			at, _ = slices.BinarySearchFunc(e, x.hist.Fingerprint(), byHistory)
		}
		e = slices.Insert(e, at, x)
	}
	return tableOf(e)
}

// IsMaximal reports whether C[h] ≥ C[H] for all H — the leader predicate of
// Algorithm 3 line 15 and Definition "leader(k)". With an empty table every
// history is trivially maximal.
func (c Counters) IsMaximal(h History) bool { return c.t == nil || c.Get(h) >= c.t.max }

// MaxEntries returns the histories whose counter is maximal, in the table's
// order, together with the maximal counter value. For an empty table
// it returns (nil, 0).
func (c Counters) MaxEntries() ([]History, int) {
	if c.t == nil {
		return nil, 0
	}
	var out []History
	for _, e := range c.t.entries {
		if e.n == c.t.max {
			out = append(out, e.hist)
		}
	}
	return out, c.t.max
}

// All yields every stored history and its counter in the table's order.
func (c Counters) All() iter.Seq2[History, int] {
	return func(yield func(History, int) bool) {
		for _, e := range c.entries() {
			if !yield(e.hist, e.n) {
				return
			}
		}
	}
}

// WriteKey folds the table's key into h without building it.
func (c Counters) WriteKey(h *Hasher) {
	_ = h.WriteByte('C')
	for _, e := range c.entries() {
		h.writeDecimal(e.hist.EncodedSize())
		_ = h.WriteByte(':')
		e.hist.WriteKey(h)
		_ = h.WriteByte('=')
		h.writeDecimal(e.n)
		_ = h.WriteByte(';')
	}
}

// Key returns the canonical encoding of the table, built on first use. Two
// tables have equal keys iff they represent the same abstract counter
// function.
func (c Counters) Key() string {
	if c.t == nil {
		return "C"
	}
	if k := c.t.key.Load(); k != nil {
		return *k
	}
	var b strings.Builder
	b.Grow(c.t.size)
	b.WriteString("C")
	var num [20]byte
	for _, e := range c.t.entries {
		encodeString(&b, e.hist.Key())
		b.WriteByte('=')
		b.Write(strconv.AppendInt(num[:0], int64(e.n), 10))
		b.WriteByte(';')
	}
	k := b.String()
	c.t.key.Store(&k)
	return k
}

// Fingerprint returns the canonical key's fingerprint, hashed from the
// entries: c.Fingerprint() == FingerprintString(c.Key()).
func (c Counters) Fingerprint() Fingerprint {
	var h Hasher
	c.WriteKey(&h)
	return h.Sum()
}

// String implements fmt.Stringer.
func (c Counters) String() string {
	parts := make([]string, 0, c.Len())
	for h, n := range c.All() {
		parts = append(parts, fmt.Sprintf("%s→%d", h, n))
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// EncodedSize returns the canonical encoding length in bytes; used for
// message-size accounting (experiment T6).
func (c Counters) EncodedSize() int {
	if c.t == nil {
		return len("C")
	}
	return c.t.size
}
