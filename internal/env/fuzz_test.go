package env

import (
	"math/rand"
	"reflect"
	"testing"
)

// FuzzScenario fuzzes the scenario text form: any input that parses must
// survive an encode/parse round trip unchanged (canonical form is a fixed
// point), stay structurally valid, and keep its fault predicates callable.
func FuzzScenario(f *testing.F) {
	f.Add("")
	f.Add("seed=42")
	f.Add("loss=10,dup=5")
	f.Add("seed=-3,loss=100,part=1:0:2,crash=0@1")
	f.Add("part=2:9:1,part=3:0:4,crash=7@15,crash=2@3")
	f.Add("loss=0,dup=0")
	f.Fuzz(func(t *testing.T, text string) {
		s, err := ParseScenario(text)
		if err != nil {
			return // malformed input is allowed to fail, not to panic
		}
		if verr := s.Validate(0); verr != nil {
			t.Fatalf("ParseScenario(%q) returned a structurally invalid scenario: %v", text, verr)
		}
		enc := s.Encode()
		back, err := ParseScenario(enc)
		if err != nil {
			t.Fatalf("re-parse of canonical form %q (from %q): %v", enc, text, err)
		}
		if got := back.Encode(); got != enc {
			t.Fatalf("canonical form is not a fixed point: %q → %q (input %q)", enc, got, text)
		}
		if !reflect.DeepEqual(normalize(s), normalize(back)) {
			t.Fatalf("round trip of %q changed the scenario: %+v vs %+v", text, s, back)
		}
		// Predicates must be total on whatever parsed.
		_ = s.Drops(1, 0, 1)
		_ = s.Duplicates(1, 0, 1)
		_ = s.Partitioned(1, 0, 1)
	})
}

// FuzzPolicyRows pins lazySource.fillRow, the policies' row draw, to
// rand.New(rand.NewSource(seed)).Intn draw for draw: for each receiver, the
// timely draw Intn(100) < pct when pct > 0, else base + Intn(span). It
// starts after skip draws, inside the lazy-seeding phase (the first 607
// draws) or after it, draws several rows, and checks that the source goes
// on with the reference's stream. span covers every branch of Int31n: 1, a
// power of two, 3, 2³⁰+1 (rejects about half) and 2³¹−1.
func FuzzPolicyRows(f *testing.F) {
	spans := []int{1, 2, 1 << 30, 3, 100, 1<<30 + 1, 1<<31 - 1}
	for i := range spans {
		for _, skip := range []uint16{0, 600, 700} {
			f.Add(int64(i+1), skip, uint8(i), uint8(0), uint8(1), uint16(64), uint8(3))
			f.Add(int64(-i), skip, uint8(i), uint8(30), uint8(0), uint16(200), uint8(4))
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, skip uint16, spanSel, pct, base uint8, rowLen uint16, rows uint8) {
		span := spans[int(spanSel)%len(spans)]
		if spanSel >= uint8(len(spans)) {
			span = 1 + int(spanSel)
		}
		p, b := int(pct)%101, int(base)%10
		want := rand.New(rand.NewSource(seed))
		got := new(lazySource)
		got.Seed(seed)
		for i := 0; i < int(skip)%1500; i++ {
			want.Int63()
			got.Int63()
		}
		row := make([]int32, int(rowLen)%512)
		for k := 0; k < 1+int(rows)%4; k++ {
			got.fillRow(row, p, b, span)
			for r, g := range row {
				w := 0
				if p == 0 || want.Intn(100) >= p {
					w = b + want.Intn(span)
				}
				if int(g) != w {
					t.Fatalf("seed %d skip %d span %d pct %d base %d: row %d receiver %d = %d, want %d", seed, skip, span, p, b, k, r, g, w)
				}
			}
		}
		if w, g := want.Int63(), got.Int63(); w != g {
			t.Fatalf("seed %d: after the rows Int63 = %d, want %d", seed, g, w)
		}
	})
}
