package values

import (
	"fmt"
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
// The table is keyed by history fingerprint and carries a lazily computed
// canonical form — the entries in key order, the maximal counter and the
// key string — which is invalidated on mutation and carried
// by clones, as Set's is. Aliased copies (plain assignment) share both the
// entry map and the cache.
type Counters struct {
	m map[Fingerprint]counterEntry
	c *ctrCtl
}

type counterEntry struct {
	hist History
	n    int
}

// ctrCtl is the cache cell shared by all aliases of one table. The
// canonical form is published via an atomic pointer so concurrent readers
// of an immutable table can fill it without a data race; mutation stores
// nil.
type ctrCtl struct {
	canon atomic.Pointer[canonCounters]
}

// canonCounters is an immutable canonical-form snapshot.
type canonCounters struct {
	sorted []counterEntry // by history key
	max    int
	key    string
}

// NewCounters returns an empty counter table (all counters 0).
func NewCounters() Counters {
	return Counters{m: make(map[Fingerprint]counterEntry), c: &ctrCtl{}}
}

// Get returns C[h], which is 0 for histories never heard of.
func (c Counters) Get(h History) int { return c.m[h.Fingerprint()].n }

// Len returns the number of histories with a non-zero counter.
func (c Counters) Len() int { return len(c.m) }

// set stores C[h] = n, dropping the entry when n <= 0 to keep the
// representation canonical.
func (c *Counters) set(h History, n int) {
	if c.m == nil {
		*c = NewCounters()
	}
	if n <= 0 {
		delete(c.m, h.Fingerprint())
	} else {
		c.m[h.Fingerprint()] = counterEntry{hist: h, n: n}
	}
	c.c.canon.Store(nil)
}

// Set stores C[h] = n directly. It exists for wire codecs and tests;
// Algorithm 3 itself only ever mutates counters through MinMerge and Bump.
func (c *Counters) Set(h History, n int) { c.set(h, n) }

// Clone returns an independent copy of c, carrying its canonical form.
func (c Counters) Clone() Counters {
	out := Counters{m: make(map[Fingerprint]counterEntry, len(c.m)), c: &ctrCtl{}}
	//detlint:ordered map copy; the resulting table is visit-order-independent
	for k, e := range c.m {
		out.m[k] = e
	}
	if c.c != nil {
		out.c.canon.Store(c.c.canon.Load())
	}
	return out
}

// MinMerge implements Algorithm 3 line 8: ∀H, C[H] := min_{m∈M} m.C[H].
// Since absent histories count as 0, only histories present in *every*
// message survive with a positive counter.
func MinMerge(msgs []Counters) Counters {
	out := NewCounters()
	if len(msgs) == 0 {
		return out
	}
	//detlint:ordered per-key min across msgs; entries are independent, so the merged table is visit-order-independent
	for k, e := range msgs[0].m {
		minN := e.n
		for _, m := range msgs[1:] {
			other, ok := m.m[k]
			if !ok {
				minN = 0
				break
			}
			minN = min(minN, other.n)
		}
		if minN > 0 {
			out.m[k] = counterEntry{hist: e.hist, n: minN}
		}
	}
	return out
}

// Bump implements Algorithm 3 line 9 for one received history h:
// C[h] := 1 + max{ C[H] | H is a (non-strict) prefix of h }. It looks up
// each of h's prefixes, the empty one included, instead of scanning the
// table.
func (c *Counters) Bump(h History) {
	best := c.m[emptyHistoryFP].n
	for n := h.n; n != nil; n = n.parent {
		best = max(best, c.m[n.fp].n)
	}
	c.set(h, 1+best)
}

// canon returns the canonical form, computing it on a miss.
func (c Counters) canon() *canonCounters {
	if c.c != nil {
		if cc := c.c.canon.Load(); cc != nil {
			return cc
		}
	}
	sorted := make([]counterEntry, 0, len(c.m))
	cc := &canonCounters{}
	//detlint:ordered collected entries are canonically sorted by history key on the next line
	for _, e := range c.m {
		sorted = append(sorted, e)
		cc.max = max(cc.max, e.n)
	}
	slices.SortFunc(sorted, func(a, b counterEntry) int { return strings.Compare(a.hist.Key(), b.hist.Key()) })
	cc.sorted = sorted
	size := len("C")
	for _, e := range sorted {
		hs := e.hist.EncodedSize()
		size += decDigits(hs) + 1 + hs + len("=;") + decDigits(e.n)
	}
	var b strings.Builder
	b.Grow(size)
	b.WriteString("C")
	var num [20]byte
	for _, e := range sorted {
		encodeString(&b, e.hist.Key())
		b.WriteByte('=')
		b.Write(strconv.AppendInt(num[:0], int64(e.n), 10))
		b.WriteByte(';')
	}
	cc.key = b.String()
	if c.c != nil {
		c.c.canon.Store(cc)
	}
	return cc
}

// IsMaximal reports whether C[h] ≥ C[H] for all H — the leader predicate of
// Algorithm 3 line 15 and Definition "leader(k)". With an empty table every
// history is trivially maximal.
func (c Counters) IsMaximal(h History) bool { return c.Get(h) >= c.canon().max }

// MaxEntries returns the histories whose counter is maximal, in canonical
// (key) order, together with the maximal counter value. For an empty table
// it returns (nil, 0).
func (c Counters) MaxEntries() ([]History, int) {
	cc := c.canon()
	if cc.max == 0 {
		return nil, 0
	}
	var out []History
	for _, e := range cc.sorted {
		if e.n == cc.max {
			out = append(out, e.hist)
		}
	}
	return out, cc.max
}

// Histories returns all stored histories in canonical order.
func (c Counters) Histories() []History {
	cc := c.canon()
	out := make([]History, len(cc.sorted))
	for i, e := range cc.sorted {
		out[i] = e.hist
	}
	return out
}

// Key returns the canonical encoding of the table. Two tables have equal
// keys iff they represent the same abstract counter function.
func (c Counters) Key() string { return c.canon().key }

// Fingerprint returns the canonical key's fingerprint. It hashes the cached
// key on every call: ESS payloads fingerprint their whole key, so nothing
// on the hot path needs the table's own.
func (c Counters) Fingerprint() Fingerprint { return FingerprintString(c.Key()) }

// String implements fmt.Stringer.
func (c Counters) String() string {
	cc := c.canon()
	parts := make([]string, 0, len(cc.sorted))
	for _, e := range cc.sorted {
		parts = append(parts, fmt.Sprintf("%s→%d", e.hist, e.n))
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// EncodedSize returns the canonical encoding length in bytes; used for
// message-size accounting (experiment T6).
func (c Counters) EncodedSize() int { return len(c.Key()) }
