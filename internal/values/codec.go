package values

import (
	"fmt"
	"strconv"
	"strings"
)

// EncodeSet packs a value set into a single Value so that sets can be
// stored in registers (Proposition 2 stores a process's accumulated set in
// its single-writer register). The encoding is canonical: equal sets encode
// to equal Values.
func EncodeSet(s Set) Value {
	var b strings.Builder
	b.WriteString("set!")
	for _, v := range s.elems() {
		encodeString(&b, string(v))
	}
	return Value(b.String())
}

// DecodeSet unpacks a Value produced by EncodeSet, or any listing of a set.
func DecodeSet(v Value) (Set, error) {
	s := string(v)
	if !strings.HasPrefix(s, "set!") {
		return Set{}, fmt.Errorf("values: %q is not an encoded set", s)
	}
	rest := s[len("set!"):]
	var vs []Value
	for len(rest) > 0 {
		colon := strings.IndexByte(rest, ':')
		if colon < 0 {
			return Set{}, fmt.Errorf("values: truncated set encoding %q", s)
		}
		n, err := strconv.Atoi(rest[:colon])
		if err != nil || n < 0 || colon+1+n > len(rest) {
			return Set{}, fmt.Errorf("values: corrupt set encoding %q", s)
		}
		vs = append(vs, Value(rest[colon+1:colon+1+n]))
		rest = rest[colon+1+n:]
	}
	return NewSet(vs...), nil
}

// EncodePair packs (rank, v) into a single Value whose string order is
// (rank, v) lexicographic — Proposition 1 stores (value, |history|) pairs
// in the weak-set and resolves reads by maximal history length, then
// maximal value. Rank must be non-negative.
func EncodePair(rank int, v Value) Value {
	if rank < 0 {
		panic(fmt.Sprintf("values.EncodePair: negative rank %d", rank))
	}
	return Value(fmt.Sprintf("pair!%016d:%s", rank, string(v)))
}

// DecodePair unpacks a Value produced by EncodePair.
func DecodePair(p Value) (rank int, v Value, err error) {
	s := string(p)
	if !strings.HasPrefix(s, "pair!") || len(s) < len("pair!")+17 || s[len("pair!")+16] != ':' {
		return 0, "", fmt.Errorf("values: %q is not an encoded pair", s)
	}
	rank, err = strconv.Atoi(s[len("pair!") : len("pair!")+16])
	if err != nil {
		return 0, "", fmt.Errorf("values: corrupt pair rank in %q: %w", s, err)
	}
	return rank, Value(s[len("pair!")+17:]), nil
}
