package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"anonconsensus/internal/env"
	"anonconsensus/internal/fd"
	"anonconsensus/internal/giraf"
	"anonconsensus/internal/sim"
	"anonconsensus/internal/values"
)

// The tests in this file pin why a round may be read in fingerprint order
// (DESIGN.md §3 note 8): every round-k ESS payload carries a history of
// length exactly k, so the line-9 bumps of one round commute, and every
// automaton's Compute is a function of the round's payload set, not of the
// order it is listed in.

// permutations returns every ordering of 0..n-1.
func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{{}}
	}
	var out [][]int
	for _, p := range permutations(n - 1) {
		for at := 0; at <= len(p); at++ {
			out = append(out, slices.Insert(slices.Clone(p), at, n-1))
		}
	}
	return out
}

// mergeBumpFPs returns the fingerprints of the tables MinMergeBump builds
// from tables and hists, the i-th history bumped with the i-th table
// merged, over every permutation of the pairs.
func mergeBumpFPs(tables []values.Counters, hists []values.History) map[values.Fingerprint]bool {
	var b values.CountersBuilder
	fps := map[values.Fingerprint]bool{}
	for _, perm := range permutations(len(hists)) {
		ts, hs := make([]values.Counters, len(perm)), make([]values.History, len(perm))
		for i, j := range perm {
			ts[i], hs[i] = tables[j], hists[j]
		}
		fps[b.MinMergeBump(ts, hs).Fingerprint()] = true
	}
	return fps
}

// TestMinMergeBumpCommutesOnEqualLengths: up to four histories of one
// length, which share prefixes, with tables over their prefixes, give one
// table whatever order they are merged and bumped in. A history that is a
// proper prefix of another is what the premise rules out: bumped before
// the longer one it raises that one's counter, after it it does not.
func TestMinMergeBumpCommutesOnEqualLengths(t *testing.T) {
	vals := []values.Value{values.Num(1), values.Num(2), values.Bot}
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k, m := 1+rng.Intn(4), 1+rng.Intn(4)
		hists := make([]values.History, m)
		var prefixes []values.History
		for i := range hists {
			var h values.History
			prefixes = append(prefixes, h)
			for range k {
				h = h.Append(vals[rng.Intn(len(vals))])
				prefixes = append(prefixes, h)
			}
			hists[i] = h
		}
		tables := make([]values.Counters, m)
		for i := range tables {
			var hs []values.History
			var ns []int
			for range rng.Intn(2 * k) {
				hs = append(hs, prefixes[rng.Intn(len(prefixes))])
				ns = append(ns, 1+rng.Intn(4))
			}
			tables[i] = values.CountersOf(hs, ns)
		}
		if fps := mergeBumpFPs(tables, hists); len(fps) != 1 {
			t.Fatalf("seed %d: %d histories of length %d give %d tables over their orders", seed, m, k, len(fps))
		}
	}

	h := values.NewHistory(values.Num(1))
	pair := []values.History{h, h.Append(values.Num(2))}
	if fps := mergeBumpFPs([]values.Counters{{}, {}}, pair); len(fps) != 2 {
		t.Fatalf("a history and its extension give %d tables over their two orders, want 2", len(fps))
	}
}

// orderCase is one automaton family for TestComputeIgnoresRoundOrder.
type orderCase struct {
	name string
	aut  func(i int) giraf.Automaton
}

var orderCases = []orderCase{
	{"ES", func(i int) giraf.Automaton { return NewES(values.Num(int64(i))) }},
	{"ESS", func(i int) giraf.Automaton { return NewESS(values.Num(int64(i))) }},
	{"Omega", func(i int) giraf.Automaton {
		return NewOmegaConsensus(values.Num(int64(i)), func(k int) bool { return i == k%3 })
	}},
	{"OmegaTracker", func(i int) giraf.Automaton { return fd.NewOmegaTracker(i) }},
}

// stepOutcome is what one Compute call returned.
type stepOutcome struct {
	fp  values.Fingerprint // zero when the process decided
	dec giraf.Decision
}

// compute runs one fresh automaton of c for process i through inboxes, the
// last one listed in the order perm gives, and returns the last step.
func (c orderCase) compute(i int, inboxes [][]giraf.Payload, perm []int) stepOutcome {
	a := c.aut(i)
	a.Initialize()
	var out stepOutcome
	for k, in := range inboxes {
		if k == len(inboxes)-1 {
			in = make([]giraf.Payload, len(perm))
			for j, p := range perm {
				in[j] = inboxes[k][p]
			}
		}
		pay, dec := a.Compute(k+1, fixedInbox(in))
		out = stepOutcome{dec: dec}
		if pay != nil {
			out.fp = pay.PayloadFingerprint()
		}
	}
	return out
}

// TestComputeIgnoresRoundOrder runs four processes of each automaton in
// lockstep, each round hearing its own payload and a seeded subset of the
// others' (so their states and payloads diverge, and some decide), and
// then recomputes every process's every round from a fresh automaton, that
// round's payloads listed in each of their orders: the payload and the
// decision must not change.
func TestComputeIgnoresRoundOrder(t *testing.T) {
	const n, rounds = 4, 8
	for _, c := range orderCases {
		decided := 0
		for seed := int64(1); seed <= 8; seed++ {
			rng := rand.New(rand.NewSource(seed))
			auts := make([]giraf.Automaton, n)
			pays := make([]giraf.Payload, n)
			inboxes := make([][][]giraf.Payload, n)
			for i := range auts {
				auts[i] = c.aut(i)
				pays[i] = auts[i].Initialize()
			}
			for k := 1; k <= rounds; k++ {
				next := make([]giraf.Payload, n)
				for i, a := range auts {
					if a == nil {
						continue
					}
					in, seen := []giraf.Payload{pays[i]}, map[values.Fingerprint]bool{pays[i].PayloadFingerprint(): true}
					for j, p := range pays {
						if p == nil || j == i || rng.Intn(3) == 0 {
							continue
						}
						if fp := p.PayloadFingerprint(); !seen[fp] {
							in, seen[fp] = append(in, p), true
						}
					}
					inboxes[i] = append(inboxes[i], in)
					pay, dec := a.Compute(k, fixedInbox(in))
					want := stepOutcome{dec: dec}
					if pay != nil {
						want.fp = pay.PayloadFingerprint()
					}
					for _, perm := range permutations(len(in)) {
						if got := c.compute(i, inboxes[i], perm); got != want {
							t.Fatalf("%s seed %d: process %d round %d in order %v: %+v, in arrival order %+v", c.name, seed, i, k, perm, got, want)
						}
					}
					if dec.Decided {
						auts[i] = nil
						decided++
						continue
					}
					next[i] = pay
				}
				pays = next
			}
		}
		if decided == 0 && c.name != "OmegaTracker" { // the tracker never decides
			t.Errorf("%s: no process decided, so no decision was compared", c.name)
		}
	}
}

// essLengthProbe is an ESS process that checks, before computing round k,
// that every ESS payload of Round(k) carries a history of length k.
type essLengthProbe struct {
	*ESS
	bad *string
}

func (p essLengthProbe) Compute(k int, inbox giraf.Inbox) (giraf.Payload, giraf.Decision) {
	for _, m := range inbox.Round(k) {
		if e, ok := m.(ESSPayload); ok && e.History.Len() != k && *p.bad == "" {
			*p.bad = fmt.Sprintf("round %d payload %v carries a history of length %d", k, e, e.History.Len())
		}
	}
	return p.ESS.Compute(k, inbox)
}

// TestESSRoundHistoriesHaveRoundLength is the premise itself, over a sweep
// of simulated moving-source (MS) runs: Initialize's history has length 1
// and line 21 appends once per round, so each history a process reads in
// round k has length k.
func TestESSRoundHistoriesHaveRoundLength(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8} {
		for seed := int64(0); seed < 25; seed++ {
			var bad string
			props := SplitProposals(n, 1+int(seed)%n)
			cfg := ConfigESS(props, RunOpts{
				Policy: &env.MS{
					Seed: seed, MaxDelay: 1 + int(seed%4), Shuffle: seed%3 == 0,
					Alternate: seed%5 == 0, ExtraTimelyPct: int(seed * 7 % 60),
				},
				MaxRounds: 30,
			})
			cfg.Automaton = func(i int) giraf.Automaton { return essLengthProbe{ESS: NewESS(props[i]), bad: &bad} }
			if _, err := sim.Run(cfg); err != nil {
				t.Fatal(err)
			}
			if bad != "" {
				t.Fatalf("n=%d seed %d: %s", n, seed, bad)
			}
		}
	}
}
