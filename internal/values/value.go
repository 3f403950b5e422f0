// Package values provides the value domain shared by all algorithms in this
// repository: totally ordered proposal values, the special value ⊥ (Bot),
// immutable value sets kept in their canonical (ascending) order, proposal
// histories ordered by the prefix relation, and history counters (the data
// structure behind the paper's pseudo leader election, Algorithm 3).
//
// All types in this package have a canonical string encoding (the *key*)
// and its fingerprint, used for payload identity and deduplication.
// Anonymity makes this essential: two processes that broadcast identical
// payloads are indistinguishable, so payload equality must be structural.
// Fingerprints are also the one order where an order is needed: a counter
// table lists its entries ascending by history fingerprint, as a round
// inbox lists its payloads by theirs.
package values

import (
	"fmt"
	"strconv"
	"strings"
)

// Value is a proposal value. Values are totally ordered by ordinary string
// comparison; max over a set of values (Algorithm 2 line 12, Algorithm 3
// line 14) uses this order.
//
// The special value Bot (⊥) is reserved and must not be used as an initial
// proposal.
type Value string

// Bot is the special value ⊥ proposed by processes that do not consider
// themselves leaders (Algorithm 3 line 18). It is reserved: user code must
// not propose it. Bot sorts below every valid proposal value.
const Bot Value = "\x00⊥"

// IsBot reports whether v is the special value ⊥.
func (v Value) IsBot() bool { return v == Bot }

// Valid reports whether v may be used as an initial proposal: non-empty and
// distinct from Bot (and not starting with the reserved NUL byte).
func (v Value) Valid() bool {
	return len(v) > 0 && !strings.HasPrefix(string(v), "\x00")
}

// Less reports whether v orders strictly before w.
func (v Value) Less(w Value) bool { return v < w }

// String implements fmt.Stringer. Bot renders as "⊥".
func (v Value) String() string {
	if v.IsBot() {
		return "⊥"
	}
	return string(v)
}

// Num returns a Value whose string order coincides with the numeric order
// of i for i in [0, 10^12). It is the canonical way for examples, tests and
// benchmarks to build numeric proposal values.
func Num(i int64) Value {
	if i < 0 {
		panic(fmt.Sprintf("values.Num: negative value %d", i))
	}
	return Value(fmt.Sprintf("%012d", i))
}

// NumOf parses a Value previously produced by Num. It returns an error for
// non-numeric values.
func NumOf(v Value) (int64, error) {
	n, err := strconv.ParseInt(string(v), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("values.NumOf: %q is not a numeric value: %w", string(v), err)
	}
	return n, nil
}

// encodeString appends a length-prefixed copy of s to b. Length prefixing
// makes concatenated encodings unambiguous, which keeps all keys canonical.
func encodeString(b *strings.Builder, s string) {
	var buf [20]byte // enough for any int length
	b.Write(strconv.AppendInt(buf[:0], int64(len(s)), 10))
	b.WriteByte(':')
	b.WriteString(s)
}
