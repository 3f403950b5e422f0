package anonconsensus

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"

	"anonconsensus/internal/env"
)

// ErrAllCrashed is returned when a crash schedule eventually stops every
// process in the ensemble: with no correct process, the Termination
// guarantee is void (a process with a late crash round might still decide
// before it stops, but nothing promises any decision at all), so the
// configuration is rejected at validation time instead of silently running
// out a real-time transport's whole timeout. Any schedule that leaves at
// least one process alive is accepted — the paper's algorithms tolerate
// any number of crashes f ≤ n−1.
var ErrAllCrashed = errors.New("anonconsensus: crash schedule stops every process, decisions are impossible")

// Partition is one round-ranged network partition: for rounds r with
// From ≤ r < Until, messages of round r do not cross the cut. The ring of
// processes is split into the blocks [0, Cut) and [Cut, n); processes
// inside a block communicate normally, processes in different blocks
// cannot hear each other until the partition heals. Until = 0 means the
// partition never heals.
//
// Partitioned messages are lost, not queued: a partition violates the
// model's reliable-broadcast assumption, and healing restores
// connectivity, not history. Because the algorithms rebroadcast their
// whole state every round, information flow resumes on its own after a
// heal — but decisions made during the partition stand, so a long
// partition can split an anonymous ensemble into independently deciding
// blocks (each block is indistinguishable from a smaller complete
// network). That split-brain is exactly the behavior the scenario plane
// exists to demonstrate; see the README scenario cookbook.
//
// Backend fidelity: the simulator and the live transport cut exactly the
// [0,Cut)/[Cut,n) process blocks by message round. The TCP transports cut
// the same blocks (process i is the hub's i-th session) but the hub
// relays opaque frames and estimates rounds by wall clock, so on TCP a
// partition starts and heals within about a round of its bounds.
type Partition struct {
	// From is the first affected round (≥ 1).
	From int
	// Until is the first round no longer affected; 0 means never heals.
	Until int
	// Cut splits the ring into [0, Cut) and [Cut, n); 1 ≤ Cut ≤ n−1.
	Cut int
}

// Scenario composes the fault dimensions of a run on top of the synchrony
// environment (WithEnv/WithGST): who crashes when, how lossy and
// duplicative links are, and which partitions come and go. The zero
// Scenario is fault-free. Fault decisions are deterministic hash functions
// of the run seed (WithSeed), so identical specs produce identical fault
// schedules on every backend, and batched runs are byte-identical at any
// parallelism.
type Scenario struct {
	// Crashes maps process index to the round (≥ 1) at which it stops.
	Crashes map[int]int
	// LossPct is the percentage (0–100) of link deliveries that are lost.
	// Loss breaks the reliable-broadcast assumption the algorithms'
	// guarantees rest on; exploring how they degrade is the point.
	LossPct int
	// DupPct is the percentage (0–100) of link deliveries delivered twice,
	// exercising the framework's set-semantics deduplication end to end.
	DupPct int
	// Partitions are the round-ranged cuts; a message is lost if any
	// active partition separates its endpoints.
	Partitions []Partition
}

// clone deep-copies the scenario.
func (s Scenario) clone() Scenario {
	s.Crashes = maps.Clone(s.Crashes)
	s.Partitions = slices.Clone(s.Partitions)
	return s
}

// toEnv converts the scenario to the internal representation, seeded with
// the run seed; the fault-free scenario converts to nil. The one conversion
// point: validation and every backend's fault injection go through it, so a
// new dimension cannot reach one and miss the other. scenarioFromEnv is its
// inverse; no other code knows both field lists.
func (s Scenario) toEnv(seed int64) *env.Scenario {
	out := &env.Scenario{Seed: seed, Crashes: s.Crashes, LossPct: s.LossPct, DupPct: s.DupPct}
	for _, p := range s.Partitions {
		out.Partitions = append(out.Partitions, env.Partition{From: p.From, Until: p.Until, Cut: p.Cut})
	}
	if out.Empty() {
		return nil
	}
	return out
}

// scenarioFromEnv converts an internal scenario to the public form (a deep
// copy; the seed stays behind — the public scenario takes the run's).
func scenarioFromEnv(s *env.Scenario) Scenario {
	out := Scenario{Crashes: s.Crashes, LossPct: s.LossPct, DupPct: s.DupPct}
	for _, p := range s.Partitions {
		out.Partitions = append(out.Partitions, Partition{From: p.From, Until: p.Until, Cut: p.Cut})
	}
	return out.clone()
}

// validate checks the scenario against an ensemble of n processes; n = 0
// checks only the n-independent structure (option-application time). The
// rules live in env.Scenario.Validate — this converts, re-prefixes errors
// and translates the all-crashed sentinel to the public one.
func (s Scenario) validate(n int) error {
	err := s.toEnv(0).Validate(n)
	if err == nil {
		return nil
	}
	if errors.Is(err, env.ErrAllCrashed) {
		return ErrAllCrashed
	}
	return fmt.Errorf("anonconsensus: %s", strings.TrimPrefix(err.Error(), "env: "))
}

// RandomScenario derives a reproducible worst-case-ish scenario for an
// ensemble of n processes: moderate loss and duplication, one mid-run
// partition that heals, and a staggered crash schedule that spares process
// 0 (so an EnvESS run can keep its default stable source). Identical
// (seed, n) yield identical scenarios — a seeded random adversary for
// scenario sweeps, not a source of nondeterminism.
func RandomScenario(seed int64, n int) Scenario {
	return scenarioFromEnv(env.RandomAdversary(seed, n))
}
