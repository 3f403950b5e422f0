package core

import (
	"strings"
	"testing"

	"anonconsensus/internal/fd"
	"anonconsensus/internal/giraf"
	"anonconsensus/internal/values"
)

// contractValues is the value alphabet of FuzzPayloadContract: lengths on
// both sides of 9→10 and 99→100, where a length's decimal form gains a
// digit, Bot, and values that are prefixes of others.
var contractValues = []values.Value{
	"a", "b", "ab", values.Value(strings.Repeat("a", 9)), values.Value(strings.Repeat("a", 10)),
	values.Value(strings.Repeat("b", 10)), values.Value(strings.Repeat("a", 11)),
	values.Value(strings.Repeat("a", 99)), values.Value(strings.Repeat("a", 100)),
	values.Value(strings.Repeat("b", 100)), values.Bot, values.Num(1), values.Num(2), "0", "00",
}

// contractCounts are counter values on both sides of 9→10 and 99→100.
var contractCounts = []int{1, 2, 3, 9, 10, 11, 99, 100}

// FuzzPayloadContract checks giraf.Payload's contract on random ES, ESS and
// Ω payloads: each payload's fingerprint is its key's and its encoded size
// the key's length. The parts' own fingerprints and sizes are checked
// against their keys the same way. The ops build histories by extending
// earlier ones (so histories share prefixes), sets, counter tables and
// payloads; see the seeds for the grammar.
func FuzzPayloadContract(f *testing.F) {
	// Op bytes: 0 history (parent, value); 1 set (size, values…); 2 table
	// (size, then history and count per entry); 3 ES payload (set); 4 ESS
	// payload (set, history, table, literal?); 5 Ω payload (id, size,
	// then id and count per entry). Pools start with the empty history,
	// set and table at index 0.
	//
	// An ESS set that is a proper prefix of another ({a} and {a, b}), and
	// the same sets as ES payloads.
	f.Add([]byte{1, 1, 0, 1, 2, 0, 1, 4, 1, 0, 0, 0, 4, 2, 0, 0, 1, 3, 1, 3, 2})
	// Value and history-key lengths that cross 9→10 and 99→100: sets and
	// histories of a×9 against a×10 and of a×99 against a×100; histories
	// whose keys are 4, 7 and 10 bytes, and 12 against 103 bytes, in tables
	// and as ESS histories.
	f.Add([]byte{
		1, 1, 3, 1, 1, 4, 1, 1, 7, 1, 1, 8,
		0, 0, 0, 0, 1, 0, 0, 2, 0, 0, 0, 3, 0, 0, 7,
		2, 3, 1, 0, 2, 0, 3, 0, 2, 2, 4, 0, 5, 0,
		4, 1, 1, 1, 0, 4, 2, 4, 2, 0, 4, 3, 3, 1, 1, 4, 4, 5, 2, 0,
		3, 1, 3, 2, 3, 3, 3, 4,
	})
	// Counters that cross 9→10 and 99→100 on the same history.
	f.Add([]byte{
		0, 0, 0,
		2, 1, 1, 3, 2, 1, 1, 4, 2, 1, 1, 6, 2, 1, 1, 7,
		4, 0, 1, 1, 0, 4, 0, 1, 2, 0, 4, 0, 1, 3, 1, 4, 0, 1, 4, 0,
	})
	// Tables {[b]→1} and {[a]→2}, and ESS payloads carrying them.
	f.Add([]byte{0, 0, 0, 0, 0, 1, 2, 1, 2, 0, 2, 1, 1, 1, 4, 0, 0, 1, 0, 4, 0, 0, 2, 0})
	// One pair of different payload types: ES {a}, ESS with {a} and Ω.
	f.Add([]byte{1, 1, 0, 3, 1, 4, 1, 0, 0, 0, 5, 1, 1, 2, 3})
	f.Fuzz(func(t *testing.T, ops []byte) {
		next := func() int {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return int(b)
		}
		hists := []values.History{{}}
		sets := []values.Set{{}}
		tables := []values.Counters{{}}
		var pays []giraf.Payload
		for steps := 0; len(ops) > 0 && steps < 64; steps++ {
			switch next() % 6 {
			case 0:
				h := hists[next()%len(hists)]
				hists = append(hists, h.Append(contractValues[next()%len(contractValues)]))
			case 1:
				var vs []values.Value
				for range next() % 4 {
					vs = append(vs, contractValues[next()%len(contractValues)])
				}
				sets = append(sets, values.NewSet(vs...))
			case 2:
				var hs []values.History
				var ns []int
				for range next() % 4 {
					hs = append(hs, hists[next()%len(hists)])
					ns = append(ns, contractCounts[next()%len(contractCounts)])
				}
				tables = append(tables, values.CountersOf(hs, ns))
			case 3:
				pays = append(pays, SetPayload{Proposed: sets[next()%len(sets)]})
			case 4:
				s, h, c := sets[next()%len(sets)], hists[next()%len(hists)], tables[next()%len(tables)]
				if next()%2 == 0 {
					pays = append(pays, MakeESSPayload(s, h, c))
				} else {
					pays = append(pays, ESSPayload{Proposed: s, History: h, Counters: c})
				}
			case 5:
				hb := fd.HeartbeatPayload{ID: next() % 3, Counts: map[int]int{}}
				for range next() % 3 {
					hb.Counts[next()%3] = contractCounts[next()%len(contractCounts)]
				}
				pays = append(pays, hb)
			}
		}
		for i, p := range pays {
			key := p.PayloadKey()
			if p.PayloadFingerprint() != values.FingerprintString(key) {
				t.Fatalf("payload %d (%T %q): fingerprint is not its key's", i, p, key)
			}
			if p.PayloadEncodedSize() != len(key) {
				t.Fatalf("payload %d (%T %q): size %d, key length %d", i, p, key, p.PayloadEncodedSize(), len(key))
			}
		}
		checkKey(t, "history", hists)
		checkKey(t, "set", sets)
		checkKey(t, "table", tables)
	})
}

// checkKey checks that each of xs reports its key's fingerprint and length.
func checkKey[T interface {
	Key() string
	Fingerprint() values.Fingerprint
	EncodedSize() int
}](t *testing.T, what string, xs []T) {
	t.Helper()
	for i, x := range xs {
		key := x.Key()
		if x.Fingerprint() != values.FingerprintString(key) || x.EncodedSize() != len(key) {
			t.Fatalf("%s %d (%q): fingerprint or size %d is not its key's", what, i, key, x.EncodedSize())
		}
	}
}
