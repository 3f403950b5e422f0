package env

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"
)

var updateDelayGolden = flag.Bool("update", false, "rewrite testdata/policy_delays_golden.txt from the current implementation")

// TestPolicyDelayGolden pins every delay MS, ESS and Async hand out — for
// every (round, sender, receiver), seeds 1–20, n = 3, 8 and 64 — against
// testdata/policy_delays_golden.txt, generated from the map-backed delay
// matrices these policies had before they became flat arrays. A policy
// consumes its RNG in (sender, receiver) order, one ExtraTimelyPct /
// PostTimelyPct draw before each delay draw and none for the source's row,
// so any reordering of the draws shows up here as a changed digest.
// Non-broadcasting senders are read too: they must keep reading 0.
//
// Regenerate intentionally with: go test ./internal/env -run TestPolicyDelayGolden -update
func TestPolicyDelayGolden(t *testing.T) {
	got := policyDelayReport()
	const path = "testdata/policy_delays_golden.txt"
	if *updateDelayGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Log("policy delay golden rewritten")
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	wl, gl := strings.Split(string(want), "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			t.Fatalf("policy delays diverged from the golden at line %d:\n want: %s\n  got: %s", i+1, wl[i], gl[i])
		}
	}
	t.Fatalf("policy delay report has %d lines, golden %d", len(gl), len(wl))
}

// policyDelayReport renders one line per (policy shape, n, seed): a digest
// of the delays of rounds 1–6 over all n×n pairs. From round 4 on every
// third process has stopped broadcasting (decided or crashed), so partial
// sender sets — and ESS losing its designated source — are covered.
func policyDelayReport() string {
	shapes := []struct {
		name string
		mk   func(seed int64) Policy
	}{
		{"MS", func(s int64) Policy { return &MS{Seed: s} }},
		{"MS extra=30 shuffle max=5", func(s int64) Policy {
			return &MS{Seed: s, ExtraTimelyPct: 30, Shuffle: true, MaxDelay: 5}
		}},
		{"MS period=3", func(s int64) Policy { return &MS{Seed: s, RotationPeriod: 3} }},
		{"ESS gst=3 source=0", func(s int64) Policy { return &ESS{GST: 3, StableSource: 0, Pre: MS{Seed: s}} }},
		{"ESS gst=2 source=1 post=40 extra=20", func(s int64) Policy {
			return &ESS{GST: 2, StableSource: 1, PostTimelyPct: 40, Pre: MS{Seed: s, ExtraTimelyPct: 20}}
		}},
		{"Async", func(s int64) Policy { return &Async{Seed: s} }},
		{"Async 1..4", func(s int64) Policy { return &Async{Seed: s, MinDelay: 1, MaxDelay: 4} }},
	}
	var b strings.Builder
	for _, sh := range shapes {
		for _, n := range []int{3, 8, 64} {
			for seed := int64(1); seed <= 20; seed++ {
				p := sh.mk(seed)
				h := fnv.New64a()
				for round := 1; round <= 6; round++ {
					var senders []int
					for i := 0; i < n; i++ {
						if round < 4 || i%3 != 0 {
							senders = append(senders, i)
						}
					}
					delay := p.Schedule(round, senders, n)
					for s := 0; s < n; s++ {
						for r := 0; r < n; r++ {
							fmt.Fprintf(h, "%d,", delay(s, r))
						}
					}
				}
				fmt.Fprintf(&b, "%s n=%d seed=%d %016x\n", sh.name, n, seed, h.Sum64())
			}
		}
	}
	return b.String()
}
