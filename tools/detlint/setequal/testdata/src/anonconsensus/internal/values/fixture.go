// Package values seeds setequal violations on a Set declared at the real
// Set's import path.
package values

type Set struct{ d *[]string }

func (s Set) Equal(t Set) bool { return s.d == t.d }

type payload struct {
	proposed Set
	round    int
}

type pair [2]Set

// Flagged: == and != on a Set, on a struct holding one and on an array of
// them.
func Same(a, b Set) bool {
	return a == b // want `== on Set compares a values.Set's storage`
}

func Differ(a, b Set) bool {
	return a != b // want `!= on Set`
}

func SamePayload(p, q payload) bool {
	return p == q // want `== on payload`
}

func SamePair(p, q pair) bool {
	return p == q // want `== on pair`
}

func IsEmpty(s Set) bool {
	return s == Set{} // want `== on Set`
}

// Not flagged: comparing what a Set points to, or anything else.
func SameRound(p, q payload) bool {
	return p.round == q.round && p.proposed.d == q.proposed.d
}

// Not flagged: an annotated comparison with the reason on record.
func Identical(a, b Set) bool {
	//detlint:setequal identity of storage is what this helper asks for
	return a == b
}

// A reasonless directive keeps the line suppressed but is itself an
// error.
func IdenticalBad(a, b Set) bool {
	//detlint:setequal
	return a == b // want `requires a reason`
}
