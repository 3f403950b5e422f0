package values

import (
	"strings"
	"sync/atomic"
)

// History is the sequence of values a process has appended to its proposal
// history, one per round (Algorithm 3 line 21). Histories are compared by
// the prefix relation: two processes that ever append different values in
// the same round have diverged forever, which is exactly what makes the
// history a usable pseudo-identity in an anonymous system (§4.1).
//
// A History is an immutable chain: each node holds its parent, its last
// value, its length and its fingerprint, extended from the parent's. Append
// is O(1) and shares the parent, Equal is a fingerprint compare, and the
// canonical key is built only on demand and cached on the node. The zero
// History is the empty one.
type History struct {
	n *histNode
}

type histNode struct {
	parent *histNode
	last   Value
	len    int
	// fp and size describe the canonical key (fp == FingerprintString(key),
	// size == len(key)) without building it.
	fp   Fingerprint
	size int
	key  atomic.Pointer[string]
}

// emptyHistoryFP is the fingerprint of the empty history's key "H".
var emptyHistoryFP = FingerprintString("H")

// NewHistory returns a history containing the single initial value
// (Algorithm 3 line 2: HISTORY := VAL).
func NewHistory(v Value) History { return History{}.Append(v) }

// Append returns h extended by v; h is not modified and is shared as the
// new history's parent.
func (h History) Append(v Value) History {
	fp := h.Fingerprint()
	hs := Hasher{hi: fp.Hi, lo: fp.Lo, init: true}
	hs.writeLengthPrefixed(string(v))
	return History{n: &histNode{
		parent: h.n,
		last:   v,
		len:    h.Len() + 1,
		fp:     hs.Sum(),
		size:   h.EncodedSize() + decDigits(len(v)) + 1 + len(v),
	}}
}

// Len returns the number of entries.
func (h History) Len() int {
	if h.n == nil {
		return 0
	}
	return h.n.len
}

// Fingerprint returns the canonical key's fingerprint:
// h.Fingerprint() == FingerprintString(h.Key()).
func (h History) Fingerprint() Fingerprint {
	if h.n == nil {
		return emptyHistoryFP
	}
	return h.n.fp
}

// Equal reports whether h and g are identical sequences.
func (h History) Equal(g History) bool {
	return h.n == g.n || h.Len() == g.Len() && h.Fingerprint() == g.Fingerprint()
}

// prefix returns h's first k entries (0 ≤ k ≤ h.Len()).
func (h History) prefix(k int) History {
	n := h.n
	for n != nil && n.len > k {
		n = n.parent
	}
	return History{n: n}
}

// IsPrefixOf reports whether h is a (non-strict) prefix of g. The relation
// is non-strict — every history is a prefix of itself — which is required
// for Lemma 4: the counter of a stable source's (unchanged-this-round)
// history must still be bumpable by one each round.
func (h History) IsPrefixOf(g History) bool {
	if h.Len() > g.Len() {
		return false
	}
	return h.Equal(g.prefix(h.Len()))
}

// WriteKey folds the history's key into hs without building it.
func (h History) WriteKey(hs *Hasher) { h.n.writeKey(hs) }

func (n *histNode) writeKey(hs *Hasher) {
	if n == nil {
		_ = hs.WriteByte('H')
		return
	}
	n.parent.writeKey(hs)
	hs.writeLengthPrefixed(string(n.last))
}

// Values returns the entries, oldest first, in a fresh slice.
func (h History) Values() []Value {
	out := make([]Value, h.Len())
	for n := h.n; n != nil; n = n.parent {
		out[n.len-1] = n.last
	}
	return out
}

// Key returns the canonical encoding of the history. Two histories have
// equal keys iff they are Equal.
func (h History) Key() string {
	if h.n == nil {
		return "H"
	}
	if k := h.n.key.Load(); k != nil {
		return *k
	}
	var b strings.Builder
	b.Grow(h.n.size)
	b.WriteString("H")
	for _, v := range h.Values() {
		encodeString(&b, string(v))
	}
	k := b.String()
	h.n.key.Store(&k)
	return k
}

// String implements fmt.Stringer: "[a b ⊥]".
func (h History) String() string {
	vs := h.Values()
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = v.String()
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// EncodedSize returns the canonical encoding length in bytes; used for
// message-size accounting (experiment T6, history growth).
func (h History) EncodedSize() int {
	if h.n == nil {
		return len("H")
	}
	return h.n.size
}
