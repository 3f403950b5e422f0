package core

import (
	"fmt"
	"testing"

	"anonconsensus/internal/env"
	"anonconsensus/internal/giraf"
	"anonconsensus/internal/sim"
	"anonconsensus/internal/values"
)

// hiddenMarker wraps an automaton and exposes only giraf.Automaton, so the
// process keeps every late payload and never recycles a computed round.
type hiddenMarker struct{ giraf.Automaton }

// hideMarkers wraps every automaton of cfg in hiddenMarker.
func hideMarkers(cfg sim.Config) sim.Config {
	aut := cfg.Automaton
	cfg.Automaton = func(i int) giraf.Automaton { return hiddenMarker{aut(i)} }
	return cfg
}

// TestRoundSkipsInvisible is the property test for the two ways a process
// skips round work: dropping envelopes for rounds already computed (the
// giraf.RoundLocal marker) and the round memo answering before the round is
// read. Over the environments, faults, sizes and seeds below, a run must
// match — statuses, rounds and every Metrics field but MergesSkipped — the
// same run with the marker hidden, and for ES and ESS also the run without
// the memo (NewES or NewESS automata) and the run with neither.
func TestRoundSkipsInvisible(t *testing.T) {
	policies := []struct {
		name string
		make func(seed int64, n int) env.Policy
	}{
		{"MS", func(seed int64, n int) env.Policy { return &env.MS{Seed: seed, MaxDelay: 3} }},
		{"ES", func(seed int64, n int) env.Policy { return &env.ES{GST: 5, Pre: env.MS{Seed: seed}} }},
		{"ESS", func(seed int64, n int) env.Policy {
			return &env.ESS{GST: 5, StableSource: n - 1, Pre: env.MS{Seed: seed, MaxDelay: 2}}
		}},
		{"Async", func(seed int64, n int) env.Policy { return &env.Async{Seed: seed} }},
	}
	faults := []struct {
		name     string
		scenario func(seed int64) *env.Scenario
	}{
		{"clean", func(int64) *env.Scenario { return nil }},
		{"lossy-dup", func(seed int64) *env.Scenario { return &env.Scenario{Seed: seed, LossPct: 10, DupPct: 30} }},
	}
	seeds := []int64{1, 2, 3}
	sizes := []int{4, 16, 64}
	if testing.Short() {
		seeds, sizes = seeds[:1], sizes[:2]
	}
	for _, n := range sizes {
		props := SplitProposals(n, 3)
		algs := []struct {
			name     string
			variants map[string]func(RunOpts) sim.Config
		}{
			{"ES", map[string]func(RunOpts) sim.Config{
				"marker+memo": func(o RunOpts) sim.Config { return ConfigES(props, o) },
				"memo":        func(o RunOpts) sim.Config { return hideMarkers(ConfigES(props, o)) },
				"marker":      func(o RunOpts) sim.Config { return o.config(n, func(i int) giraf.Automaton { return NewES(props[i]) }) },
				"neither": func(o RunOpts) sim.Config {
					return hideMarkers(o.config(n, func(i int) giraf.Automaton { return NewES(props[i]) }))
				},
			}},
			{"ESS", map[string]func(RunOpts) sim.Config{
				"marker+memo": func(o RunOpts) sim.Config { return ConfigESS(props, o) },
				"memo":        func(o RunOpts) sim.Config { return hideMarkers(ConfigESS(props, o)) },
				"marker": func(o RunOpts) sim.Config {
					return o.config(n, func(i int) giraf.Automaton { return NewESS(props[i]) })
				},
				"neither": func(o RunOpts) sim.Config {
					return hideMarkers(o.config(n, func(i int) giraf.Automaton { return NewESS(props[i]) }))
				},
			}},
			{"Omega", map[string]func(RunOpts) sim.Config{
				"marker":  func(o RunOpts) sim.Config { return ConfigOmega(props, EventualOracle(n-1, 5), o) },
				"neither": func(o RunOpts) sim.Config { return hideMarkers(ConfigOmega(props, EventualOracle(n-1, 5), o)) },
			}},
		}
		for _, alg := range algs {
			for _, pol := range policies {
				for _, f := range faults {
					t.Run(fmt.Sprintf("%s/%s/%s/n=%d", alg.name, pol.name, f.name, n), func(t *testing.T) {
						for _, seed := range seeds {
							run := func(variant string) *sim.Result {
								res, err := sim.Run(alg.variants[variant](RunOpts{
									Policy:    pol.make(seed, n),
									Scenario:  f.scenario(seed),
									MaxRounds: 30,
								}))
								if err != nil {
									t.Fatal(err)
								}
								return res
							}
							base := run("neither")
							for _, variant := range []string{"marker", "memo", "marker+memo"} {
								if alg.variants[variant] == nil {
									continue
								}
								got := run(variant)
								// MergesSkipped counts the deliveries shared rounds
								// absorbed, and a process with its marker hidden
								// never takes a shared round.
								gotMetrics := got.Metrics
								gotMetrics.MergesSkipped = base.Metrics.MergesSkipped
								if gotMetrics != base.Metrics || got.Rounds != base.Rounds {
									t.Fatalf("seed %d, %s: rounds %d metrics %+v, without either skip rounds %d metrics %+v",
										seed, variant, got.Rounds, got.Metrics, base.Rounds, base.Metrics)
								}
								for i := range base.Statuses {
									if got.Statuses[i] != base.Statuses[i] {
										t.Fatalf("seed %d, %s: process %d status %+v, without either skip %+v",
											seed, variant, i, got.Statuses[i], base.Statuses[i])
									}
								}
							}
						}
					})
				}
			}
		}
	}
}

// memoInbox is a fixed round for one ES Compute call: it serves Round and
// RoundFingerprints, as giraf.Proc does, and counts Round reads.
type memoInbox struct {
	pays  []giraf.Payload
	reads int
}

func (m *memoInbox) Round(int) []giraf.Payload { m.reads++; return m.pays }
func (m *memoInbox) Fresh() []giraf.Payload    { return nil }
func (m *memoInbox) CurrentRound() int         { return 1 }
func (m *memoInbox) RoundFingerprints(int) []values.Fingerprint {
	fps := make([]values.Fingerprint, len(m.pays))
	for i, p := range m.pays {
		fps[i] = values.FingerprintString(p.PayloadKey())
	}
	return fps
}

// foreignPayload is a payload of another algorithm family.
type foreignPayload string

func (f foreignPayload) PayloadKey() string { return "foreign:" + string(f) }

// TestESMemoHitsOnlyOnTheSameSet: a process whose round holds the memo's
// payloads, in any order, takes the memo's aggregates without reading the
// round. A round of the same size with one payload changed, or with one
// payload replaced by a foreign one, misses and computes its own.
func TestESMemoHitsOnlyOnTheSameSet(t *testing.T) {
	set := func(vs ...int64) giraf.Payload {
		elems := make([]values.Value, len(vs))
		for i, v := range vs {
			elems[i] = values.Num(v)
		}
		return SetPayload{Proposed: values.NewSet(elems...)}
	}
	stored := []giraf.Payload{set(1, 2), set(2, 3), set(2, 4)} // ∩ = {2}
	cases := []struct {
		name        string
		pays        []giraf.Payload
		hit         bool
		wantWritten values.Set
	}{
		{"same set, other order", []giraf.Payload{set(2, 4), set(1, 2), set(2, 3)}, true, values.NewSet(values.Num(2))},
		{"one payload differs", []giraf.Payload{set(1, 2), set(2, 3), set(1, 4)}, false, values.NewSet()},
		{"one payload foreign", []giraf.Payload{set(1, 3), set(3, 4), foreignPayload("x")}, false, values.NewSet(values.Num(3))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			memo := &roundMemo{n: 4}
			first := NewES(values.Num(1))
			first.memo = memo
			first.Compute(1, &memoInbox{pays: stored})
			if len(memo.fps) != len(stored) {
				t.Fatalf("memo holds %d fingerprints after a store, want %d", len(memo.fps), len(stored))
			}
			peer := NewES(values.Num(1))
			peer.memo = memo
			in := &memoInbox{pays: tc.pays}
			peer.Compute(1, in)
			if hit := in.reads == 0; hit != tc.hit {
				t.Errorf("memo hit = %v, want %v", hit, tc.hit)
			}
			if !peer.Written().Equal(tc.wantWritten) {
				t.Errorf("WRITTEN = %v, want %v", peer.Written(), tc.wantWritten)
			}
		})
	}
}
