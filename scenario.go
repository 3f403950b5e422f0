package anonconsensus

import (
	"errors"
	"fmt"
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
	out := s
	if s.Crashes != nil {
		out.Crashes = make(map[int]int, len(s.Crashes))
		for pid, r := range s.Crashes {
			out.Crashes[pid] = r
		}
	}
	if s.Partitions != nil {
		out.Partitions = append([]Partition(nil), s.Partitions...)
	}
	return out
}

// toEnv converts the scenario to the internal representation, seeded with
// the run seed. The one conversion point: validation and fault injection
// both go through it, so a new dimension cannot reach one and miss the
// other.
func (s Scenario) toEnv(seed int64) *env.Scenario {
	out := &env.Scenario{Seed: seed, Crashes: s.Crashes, LossPct: s.LossPct, DupPct: s.DupPct}
	for _, p := range s.Partitions {
		out.Partitions = append(out.Partitions, env.Partition{From: p.From, Until: p.Until, Cut: p.Cut})
	}
	return out
}

// linkFaults converts the scenario's per-link dimensions (loss,
// duplication, partitions — not crashes, which ride InstanceSpec.Crashes)
// to the internal representation, seeded with the run seed. It returns nil
// when no link fault is configured, which keeps scenario-free runs on the
// backends' historical byte-identical paths.
func (s Scenario) linkFaults(seed int64) *env.Scenario {
	if s.LossPct == 0 && s.DupPct == 0 && len(s.Partitions) == 0 {
		return nil
	}
	out := s.toEnv(seed)
	out.Crashes = nil
	return out
}

// validate checks the n-independent structure (option-application time; the
// ensemble-dependent checks run in InstanceSpec.validate). The rules live
// in env.Scenario.Validate — this just converts and re-prefixes errors.
func (s Scenario) validate() error {
	if err := s.toEnv(0).Validate(0); err != nil {
		return fmt.Errorf("anonconsensus: %s", strings.TrimPrefix(err.Error(), "env: "))
	}
	return nil
}

// RandomScenario derives a reproducible worst-case-ish scenario for an
// ensemble of n processes: moderate loss and duplication, one mid-run
// partition that heals, and a staggered crash schedule that spares process
// 0 (so an EnvESS run can keep its default stable source). Identical
// (seed, n) yield identical scenarios — a seeded random adversary for
// scenario sweeps, not a source of nondeterminism.
func RandomScenario(seed int64, n int) Scenario {
	raw := env.RandomAdversary(seed, n)
	out := Scenario{Crashes: raw.Crashes, LossPct: raw.LossPct, DupPct: raw.DupPct}
	for _, p := range raw.Partitions {
		out.Partitions = append(out.Partitions, Partition{From: p.From, Until: p.Until, Cut: p.Cut})
	}
	return out
}
