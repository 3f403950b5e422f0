package values

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"anonconsensus/internal/ordered"
)

// refHistory and refCounters are the string-keyed History and Counters
// that the hash-consed chain and the fingerprint-keyed table replaced,
// kept as the reference model FuzzCounters checks the new tables against.
type refHistory []Value

func (h refHistory) append(v Value) refHistory {
	out := make(refHistory, len(h)+1)
	copy(out, h)
	out[len(h)] = v
	return out
}

func (h refHistory) isPrefixOf(g refHistory) bool {
	if len(h) > len(g) {
		return false
	}
	for i := range h {
		if h[i] != g[i] {
			return false
		}
	}
	return true
}

func (h refHistory) key() string {
	var b strings.Builder
	b.WriteString("H")
	for _, v := range h {
		encodeString(&b, string(v))
	}
	return b.String()
}

type refEntry struct {
	hist refHistory
	n    int
}

type refCounters map[string]refEntry

func (c refCounters) get(h refHistory) int { return c[h.key()].n }

func (c refCounters) set(h refHistory, n int) {
	if n <= 0 {
		delete(c, h.key())
		return
	}
	c[h.key()] = refEntry{hist: h, n: n}
}

func (c refCounters) clone() refCounters {
	out := refCounters{}
	//detlint:ordered map copy; the resulting table is visit-order-independent
	for k, e := range c {
		out[k] = e
	}
	return out
}

func refMinMerge(msgs []refCounters) refCounters {
	out := refCounters{}
	if len(msgs) == 0 {
		return out
	}
	//detlint:ordered per-key min across msgs; entries are independent
	for k, e := range msgs[0] {
		minN := e.n
		for _, m := range msgs[1:] {
			minN = min(minN, m[k].n)
		}
		if minN > 0 {
			out[k] = refEntry{hist: e.hist, n: minN}
		}
	}
	return out
}

func (c refCounters) bump(h refHistory) {
	best := 0
	//detlint:ordered max over the prefix set is visit-order-independent
	for _, e := range c {
		if e.hist.isPrefixOf(h) {
			best = max(best, e.n)
		}
	}
	c.set(h, 1+best)
}

func (c refCounters) isMaximal(h refHistory) bool {
	own := c.get(h)
	//detlint:ordered existential check; visit order cannot change the verdict
	for _, e := range c {
		if e.n > own {
			return false
		}
	}
	return true
}

func (c refCounters) maxEntries() ([]string, int) {
	best := 0
	//detlint:ordered max over counters is visit-order-independent
	for _, e := range c {
		best = max(best, e.n)
	}
	if best == 0 {
		return nil, 0
	}
	var keys []string
	for _, k := range c.order() {
		if c[k].n == best {
			keys = append(keys, k)
		}
	}
	return keys, best
}

// order returns the table's history keys in the order a table lists its
// entries: ascending by the history's fingerprint.
func (c refCounters) order() []string {
	keys := ordered.Keys(c)
	slices.SortFunc(keys, func(a, b string) int { return FingerprintString(a).Compare(FingerprintString(b)) })
	return keys
}

func (c refCounters) key() string {
	var b strings.Builder
	b.WriteString("C")
	for _, k := range c.order() {
		encodeString(&b, k)
		fmt.Fprintf(&b, "=%d;", c[k].n)
	}
	return b.String()
}

func historyKeys(hs []History) []string {
	out := make([]string, len(hs))
	for i, h := range hs {
		out[i] = h.Key()
	}
	return out
}

// FuzzCounters drives the hash-consed History and the fingerprint-keyed
// Counters through random Append/Bump/MinMergeBump/Set/Clone sequences beside
// the string-keyed reference model, and after every operation checks that
// the two agree on every read: Get, IsMaximal, MaxEntries, Histories, Key,
// EncodedSize, Fingerprint == FingerprintString(Key), and for histories
// Key, Len, EncodedSize, Equal and IsPrefixOf.
func FuzzCounters(f *testing.F) {
	f.Add([]byte{0, 1, 1, 0, 0, 1, 1, 2, 4, 0, 5, 1})
	f.Add([]byte{1, 0, 0, 1, 0, 0, 2, 0, 3, 4, 1, 1, 0, 2, 2, 1, 1})
	f.Add([]byte{0, 0, 0, 0, 0, 2, 1, 1, 1, 1, 2, 2, 3, 0, 0, 0, 2, 1, 3})
	f.Add([]byte("801109000801011")) // MinMerge of tables whose counters differ
	// The histories [0] and [1] bumped into the empty table by one
	// MinMergeBump in each order: the table must list them in fingerprint
	// order, not in bump order.
	f.Add([]byte{0, 0, 1, 3, 6, 0, 2, 1, 3, 6, 0, 1, 2})
	f.Fuzz(func(t *testing.T, ops []byte) {
		hists := []History{{}, NewHistory(Num(0))}
		refs := []refHistory{{}, {Num(0)}}
		tables := []Counters{NewCounters()}
		models := []refCounters{{}}
		next := func() int {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return int(b)
		}
		for steps := 0; len(ops) > 0 && steps < 200; steps++ {
			switch next() % 5 {
			case 0: // Append
				i, v := next()%len(hists), Num(int64(next()%3))
				if v == Num(2) {
					v = Bot
				}
				hists = append(hists, hists[i].Append(v))
				refs = append(refs, refs[i].append(v))
			case 1: // Bump
				t, i := next()%len(tables), next()%len(hists)
				tables[t].Bump(hists[i])
				models[t].bump(refs[i])
			case 2: // Set
				t, i, n := next()%len(tables), next()%len(hists), next()%5
				tables[t].Set(hists[i], n)
				models[t].set(refs[i], n)
			case 3: // MinMergeBump of up to three tables and up to two histories
				b := next()
				k, nb := 1+b%3, b/3%3
				var ins []Counters
				var mins []refCounters
				for j := 0; j < k; j++ {
					t := next() % len(tables)
					ins, mins = append(ins, tables[t]), append(mins, models[t])
				}
				var hs []History
				merged := refMinMerge(mins)
				for range nb {
					i := next() % len(hists)
					hs = append(hs, hists[i])
					merged.bump(refs[i])
				}
				var cb CountersBuilder
				tables = append(tables, cb.MinMergeBump(ins, hs))
				models = append(models, merged)
			case 4: // Clone
				t := next() % len(tables)
				tables = append(tables, tables[t].Clone())
				models = append(models, models[t].clone())
			}
			for i, h := range hists {
				r := refs[i]
				if h.Key() != r.key() || h.Len() != len(r) || h.EncodedSize() != len(r.key()) {
					t.Fatalf("history %d: key %q len %d size %d, model %q len %d", i, h.Key(), h.Len(), h.EncodedSize(), r.key(), len(r))
				}
				if h.Fingerprint() != FingerprintString(h.Key()) {
					t.Fatalf("history %d: fingerprint is not its key's", i)
				}
				for j, g := range hists {
					if h.Equal(g) != (r.key() == refs[j].key()) || h.IsPrefixOf(g) != r.isPrefixOf(refs[j]) {
						t.Fatalf("histories %d, %d: Equal %v IsPrefixOf %v disagree with the model", i, j, h.Equal(g), h.IsPrefixOf(g))
					}
				}
			}
			for ti, c := range tables {
				m := models[ti]
				if c.Key() != m.key() {
					t.Fatalf("table %d: key %q, model %q", ti, c.Key(), m.key())
				}
				if c.EncodedSize() != len(m.key()) || c.Len() != len(m) {
					t.Fatalf("table %d: size %d len %d, model %d %d", ti, c.EncodedSize(), c.Len(), len(m.key()), len(m))
				}
				if c.Fingerprint() != FingerprintString(c.Key()) {
					t.Fatalf("table %d: fingerprint is not its key's", ti)
				}
				if got, want := strings.Join(historyKeys(c.Histories()), ","), strings.Join(m.order(), ","); got != want {
					t.Fatalf("table %d: Histories %s, model %s", ti, got, want)
				}
				gotMax, gotN := c.MaxEntries()
				wantMax, wantN := m.maxEntries()
				if gotN != wantN || strings.Join(historyKeys(gotMax), ",") != strings.Join(wantMax, ",") {
					t.Fatalf("table %d: MaxEntries %v %d, model %v %d", ti, historyKeys(gotMax), gotN, wantMax, wantN)
				}
				for i, h := range hists {
					if c.Get(h) != m.get(refs[i]) || c.IsMaximal(h) != m.isMaximal(refs[i]) {
						t.Fatalf("table %d, history %d: Get %d IsMaximal %v, model %d %v",
							ti, i, c.Get(h), c.IsMaximal(h), m.get(refs[i]), m.isMaximal(refs[i]))
					}
				}
			}
		}
	})
}
