package values

import (
	"cmp"
	"fmt"
	"math/bits"
)

// Fingerprint is a 128-bit structural fingerprint of a canonical encoding.
// Throughout the repository fingerprint equality is treated as equivalent
// to structural equality (the canonical-form invariant, see PERFORMANCE.md):
// every fingerprint is the FNV-1a 128 hash of a canonical key, keys are
// injective by construction, and 128 bits make accidental collisions
// vanishingly unlikely, so fingerprints are used as O(1) identity for set
// membership, inbox deduplication and delta broadcast references.
//
// The zero Fingerprint never arises from hashing (the FNV offset basis is
// non-zero), so it can serve as an "absent" sentinel.
type Fingerprint struct {
	Hi, Lo uint64
}

// IsZero reports whether f is the absent sentinel.
func (f Fingerprint) IsZero() bool { return f.Hi == 0 && f.Lo == 0 }

// Compare orders fingerprints as 128-bit numbers (Hi, then Lo). It is the
// one canonical order of payloads in a round and of entries in a counter
// table: arbitrary, but the same in every process.
func (f Fingerprint) Compare(g Fingerprint) int {
	if c := cmp.Compare(f.Hi, g.Hi); c != 0 {
		return c
	}
	return cmp.Compare(f.Lo, g.Lo)
}

// String implements fmt.Stringer: fixed-width hex.
func (f Fingerprint) String() string {
	return fmt.Sprintf("%016x%016x", f.Hi, f.Lo)
}

// FNV-1a 128 parameters (en.wikipedia.org/wiki/Fowler–Noll–Vo_hash_function).
const (
	fnvOffsetHi = 0x6c62272e07bb0142
	fnvOffsetLo = 0x62b821756295c58d
	fnvPrimeHi  = 0x0000000001000000 // prime = 2^88 + 2^8 + 0x3b
	fnvPrimeLo  = 0x000000000000013b
)

// Hasher is a streaming FNV-1a 128 hasher over canonical key bytes. The
// zero value is ready to use. It exists so canonical fingerprints can be
// computed incrementally from set elements without materializing the key
// string first.
type Hasher struct {
	hi, lo uint64
	init   bool
}

func (h *Hasher) ensure() {
	if !h.init {
		h.hi, h.lo, h.init = fnvOffsetHi, fnvOffsetLo, true
	}
}

// WriteString folds s into the hash.
func (h *Hasher) WriteString(s string) {
	h.ensure()
	hi, lo := h.hi, h.lo
	for i := 0; i < len(s); i++ {
		lo ^= uint64(s[i])
		// (hi,lo) *= prime, mod 2^128.
		carry, newLo := bits.Mul64(lo, fnvPrimeLo)
		newHi := carry + hi*fnvPrimeLo + lo*fnvPrimeHi
		hi, lo = newHi, newLo
	}
	h.hi, h.lo = hi, lo
}

// WriteByte folds one byte into the hash. The error is always nil; the
// signature matches io.ByteWriter.
func (h *Hasher) WriteByte(b byte) error {
	h.ensure()
	lo := h.lo ^ uint64(b)
	carry, newLo := bits.Mul64(lo, fnvPrimeLo)
	h.hi = carry + h.hi*fnvPrimeLo + lo*fnvPrimeHi
	h.lo = newLo
	return nil
}

// WriteFingerprint folds another fingerprint into the hash (16 big-endian
// bytes), used to fingerprint ordered collections of fingerprints such as
// a whole envelope payload set.
func (h *Hasher) WriteFingerprint(f Fingerprint) {
	var buf [16]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(f.Hi >> (56 - 8*i))
		buf[8+i] = byte(f.Lo >> (56 - 8*i))
	}
	h.ensure()
	for _, b := range buf {
		_ = h.WriteByte(b)
	}
}

// writeLengthPrefixed folds the canonical length-prefixed encoding of s
// ("<len>:<s>", exactly what encodeString appends to key strings) into the
// hash, so hashing elements directly matches hashing the built key string.
func (h *Hasher) writeLengthPrefixed(s string) {
	h.writeDecimal(len(s))
	_ = h.WriteByte(':')
	h.WriteString(s)
}

// writeDecimal folds the decimal form of v ≥ 0 into the hash.
func (h *Hasher) writeDecimal(v int) {
	var buf [20]byte
	i := len(buf)
	for {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
		if v == 0 {
			break
		}
	}
	for _, c := range buf[i:] {
		_ = h.WriteByte(c)
	}
}

// Sum returns the current fingerprint.
func (h *Hasher) Sum() Fingerprint {
	h.ensure()
	return Fingerprint{Hi: h.hi, Lo: h.lo}
}

// FingerprintString returns the fingerprint of a canonical key string.
// For every canonical type in this package, hashing the elements
// incrementally and hashing the materialized key agree:
// s.Fingerprint() == FingerprintString(s.Key()).
func FingerprintString(key string) Fingerprint {
	var h Hasher
	h.WriteString(key)
	return h.Sum()
}

// decDigits returns the number of decimal digits of n ≥ 0, the arithmetic
// core of computing canonical encoded sizes without building key strings.
func decDigits(n int) int {
	d := 1
	for n >= 10 {
		n /= 10
		d++
	}
	return d
}
