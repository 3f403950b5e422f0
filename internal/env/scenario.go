package env

import (
	"errors"
	"fmt"
	"maps"
	"strconv"
	"strings"

	"anonconsensus/internal/ordered"
)

// ErrAllCrashed is returned by Scenario.Validate when the crash schedule
// eventually stops every process: with no correct process, Termination —
// which quantifies over correct processes — promises nothing (a process
// with a late crash round might decide before stopping, but no decision is
// guaranteed), so such a configuration is a caller bug, not a run that
// should be attempted — the real-time backends would otherwise just burn
// their whole timeout. Any schedule that leaves at least one process alive
// is legal: the paper's algorithms tolerate any number of crashes f ≤ n−1.
var ErrAllCrashed = errors.New("env: crash schedule stops every process, decisions are impossible")

// Partition is one round-ranged network partition: for every round r with
// From ≤ r < Until, messages whose round is r do not cross the cut. The
// ring of processes is split into the blocks [0, Cut) and [Cut, n);
// processes inside a block communicate normally (subject to the policy's
// delays), processes in different blocks cannot hear each other until the
// partition heals. Until = 0 means the partition never heals.
//
// Partitioned messages are lost, not queued: a partition is a violation of
// the model's reliable-broadcast assumption, and healing restores
// connectivity, not history. (The algorithms rebroadcast their whole state
// every round, so information flow resumes on its own after a heal.)
type Partition struct {
	// From is the first affected round (≥ 1).
	From int
	// Until is the first round no longer affected; 0 means never heals.
	Until int
	// Cut splits the ring into [0, Cut) and [Cut, n); it must satisfy
	// 1 ≤ Cut ≤ n−1 for the partition to separate anybody.
	Cut int
}

// active reports whether the partition is in force for messages of round r.
func (p Partition) active(round int) bool {
	if round < p.From {
		return false
	}
	return p.Until <= 0 || round < p.Until
}

// separates reports whether from and to lie on opposite sides of the cut.
func (p Partition) separates(from, to int) bool {
	return (from < p.Cut) != (to < p.Cut)
}

// Scenario composes the fault dimensions of one run on top of an
// environment policy: who crashes when, how lossy and duplicative links
// are, and which partitions come and go. A Scenario is pure data; the
// link-fault predicates (Drops, Duplicates) are deterministic hash
// functions of (Seed, round, sender, receiver), so every backend injects
// the same faults for the same seed and batched runs are reproducible at
// any parallelism.
//
// The zero Scenario is the fault-free environment; backends treat a nil
// *Scenario and a zero Scenario identically.
type Scenario struct {
	// Seed drives the loss and duplication draws. Independent from the
	// policy seed so the same chaos schedule can be replayed with different
	// fault patterns (the public API defaults it to the run seed).
	Seed int64
	// Crashes maps process index to the round (≥ 1) at which it stops.
	Crashes map[int]int
	// LossPct is the percentage (0–100) of link deliveries that are lost.
	// A process's own payload is never lost (it is merged locally, never
	// sent). Loss breaks the reliable-broadcast assumption, so algorithm
	// guarantees degrade by design — that is what the knob explores.
	LossPct int
	// DupPct is the percentage (0–100) of link deliveries that are
	// delivered twice (the duplicate arrives one round later in the
	// simulator, half a round interval later on the live runtime, and
	// immediately at the TCP hub), exercising the framework's
	// set-semantics deduplication.
	DupPct int
	// Partitions are the round-ranged cuts; they compose (a message is lost
	// if any active partition separates its endpoints).
	Partitions []Partition
}

// Fault-kind salts keep the loss and duplication hash streams disjoint.
const (
	lossSalt = int64(0x6c6f7373) // "loss"
	dupSalt  = int64(0x64757063) // "dupc"
)

// Empty reports whether the scenario injects no faults at all (the nil and
// zero scenarios); callers normalize a zero scenario to nil with it.
func (s *Scenario) Empty() bool {
	return s == nil || (len(s.Crashes) == 0 && !s.HasLinkFaults())
}

// HasLinkFaults reports whether the scenario can lose, duplicate or
// partition a delivery — false for the nil scenario and for one that only
// crashes processes. Backends pick their per-delivery fault path from it
// once per run: without link faults no delivery needs a Drops or
// Duplicates draw.
func (s *Scenario) HasLinkFaults() bool {
	return s != nil && (s.LossPct != 0 || s.DupPct != 0 || len(s.Partitions) != 0)
}

// LinkFaultFree reports whether the scenario never suppresses a delivery:
// no loss rate and no partitions. Crashes and duplication do not remove
// messages between correct processes, so a link-fault-free run keeps the
// model's reliable-broadcast assumption and the algorithms' Termination
// guarantee stays assertable; the exploration plane keys its termination
// check off this predicate.
func (s *Scenario) LinkFaultFree() bool {
	return s == nil || (s.LossPct == 0 && len(s.Partitions) == 0)
}

// CrashRound returns the scheduled crash round for pid, or ok=false.
func (s *Scenario) CrashRound(pid int) (int, bool) {
	if s == nil {
		return 0, false
	}
	r, ok := s.Crashes[pid]
	return r, ok
}

// Partitioned reports whether an active partition separates from and to for
// messages of the given round.
func (s *Scenario) Partitioned(round, from, to int) bool {
	if s == nil {
		return false
	}
	for _, p := range s.Partitions {
		if p.active(round) && p.separates(from, to) {
			return true
		}
	}
	return false
}

// Drops reports whether the from→to delivery of a round-`round` message is
// lost: either an active partition separates the endpoints, or the
// per-link loss draw fires. Deterministic in (Seed, round, from, to).
func (s *Scenario) Drops(round, from, to int) bool {
	if s == nil {
		return false
	}
	if s.Partitioned(round, from, to) {
		return true
	}
	return s.LossPct > 0 && int(hash64(s.Seed^lossSalt, round, from, to)%100) < s.LossPct
}

// Duplicates reports whether the from→to delivery of a round-`round`
// message draws a duplicate. Deterministic in (Seed, round, from, to).
// Whether it is then delivered twice is LinkFault's call.
func (s *Scenario) Duplicates(round, from, to int) bool {
	if s == nil {
		return false
	}
	return s.DupPct > 0 && int(hash64(s.Seed^dupSalt, round, from, to)%100) < s.DupPct
}

// LinkFault is the one fault decision for the from→to delivery of a
// round-`round` message, on every backend: drop it when Drops says so, and
// otherwise deliver it twice when Duplicates says so. A drop wins over a
// duplicate.
func (s *Scenario) LinkFault(round, from, to int) (drop, dup bool) {
	if s.Drops(round, from, to) {
		return true, false
	}
	return false, s.Duplicates(round, from, to)
}

// Validate checks the scenario against an ensemble of n processes. Pass
// n ≤ 0 to check only the n-independent structure (percentages, round
// ranges) — the form parsers and option constructors use before the
// ensemble size is known.
func (s *Scenario) Validate(n int) error {
	if s == nil {
		return nil
	}
	if s.LossPct < 0 || s.LossPct > 100 {
		return fmt.Errorf("env: loss percentage %d outside [0,100]", s.LossPct)
	}
	if s.DupPct < 0 || s.DupPct > 100 {
		return fmt.Errorf("env: duplication percentage %d outside [0,100]", s.DupPct)
	}
	for i, p := range s.Partitions {
		if p.From < 1 {
			return fmt.Errorf("env: partition %d starts at round %d (must be ≥ 1)", i, p.From)
		}
		if p.Until != 0 && p.Until <= p.From {
			return fmt.Errorf("env: partition %d heals at round %d, before it starts (round %d)", i, p.Until, p.From)
		}
		if p.Cut < 1 {
			return fmt.Errorf("env: partition %d cut %d separates nobody (must be ≥ 1)", i, p.Cut)
		}
		if n > 0 && p.Cut >= n {
			return fmt.Errorf("env: partition %d cut %d outside [1,%d)", i, p.Cut, n)
		}
	}
	// Sorted view so the reported entry is deterministic when several are
	// invalid.
	for _, pid := range ordered.Keys(s.Crashes) {
		if pid < 0 {
			return fmt.Errorf("env: crash schedule names negative process %d", pid)
		}
		if n > 0 && pid >= n {
			return fmt.Errorf("env: crash schedule names process %d outside [0,%d)", pid, n)
		}
		if round := s.Crashes[pid]; round < 1 {
			return fmt.Errorf("env: crash round %d for process %d (must be ≥ 1)", round, pid)
		}
	}
	if n > 0 && len(s.Crashes) >= n {
		// Crashes are keyed by pid and every pid was range-checked above, so
		// len ≥ n means every process is scheduled to stop.
		all := true
		for pid := 0; pid < n; pid++ {
			if _, ok := s.Crashes[pid]; !ok {
				all = false
				break
			}
		}
		if all {
			return ErrAllCrashed
		}
	}
	return nil
}

// Clone deep-copies the scenario (nil stays nil).
func (s *Scenario) Clone() *Scenario {
	if s == nil {
		return nil
	}
	out := &Scenario{Seed: s.Seed, LossPct: s.LossPct, DupPct: s.DupPct}
	if s.Crashes != nil {
		out.Crashes = maps.Clone(s.Crashes)
	}
	if s.Partitions != nil {
		out.Partitions = append([]Partition(nil), s.Partitions...)
	}
	return out
}

// Encode renders the scenario in its canonical textual form, the inverse of
// ParseScenario: `seed=S,loss=L,dup=D,part=FROM:UNTIL:CUT,crash=PID@ROUND`
// with zero-valued fields omitted, partitions in declaration order and
// crashes sorted by pid. The empty scenario encodes as "".
func (s *Scenario) Encode() string {
	if s == nil {
		return ""
	}
	var parts []string
	if s.Seed != 0 {
		parts = append(parts, "seed="+strconv.FormatInt(s.Seed, 10))
	}
	if s.LossPct != 0 {
		parts = append(parts, "loss="+strconv.Itoa(s.LossPct))
	}
	if s.DupPct != 0 {
		parts = append(parts, "dup="+strconv.Itoa(s.DupPct))
	}
	for _, p := range s.Partitions {
		parts = append(parts, fmt.Sprintf("part=%d:%d:%d", p.From, p.Until, p.Cut))
	}
	for _, pid := range ordered.Keys(s.Crashes) {
		parts = append(parts, fmt.Sprintf("crash=%d@%d", pid, s.Crashes[pid]))
	}
	return strings.Join(parts, ",")
}

// ParseScenario parses the textual scenario form produced by Encode (field
// order is free on input; see Encode for the grammar). The result is
// structurally validated (Validate with n ≤ 0); ensemble-dependent checks
// still require Validate(n) once the process count is known.
func ParseScenario(text string) (*Scenario, error) {
	s := &Scenario{}
	text = strings.TrimSpace(text)
	if text == "" {
		return s, nil
	}
	for _, field := range strings.Split(text, ",") {
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return nil, fmt.Errorf("env: scenario field %q is not key=value", field)
		}
		switch key {
		case "seed":
			v, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("env: scenario seed %q: %w", val, err)
			}
			s.Seed = v
		case "loss", "dup":
			v, err := strconv.Atoi(val)
			if err != nil {
				return nil, fmt.Errorf("env: scenario %s %q: %w", key, val, err)
			}
			if key == "loss" {
				s.LossPct = v
			} else {
				s.DupPct = v
			}
		case "part":
			nums, err := splitInts(val, ":", 3)
			if err != nil {
				return nil, fmt.Errorf("env: scenario partition %q (want FROM:UNTIL:CUT): %w", val, err)
			}
			s.Partitions = append(s.Partitions, Partition{From: nums[0], Until: nums[1], Cut: nums[2]})
		case "crash":
			nums, err := splitInts(val, "@", 2)
			if err != nil {
				return nil, fmt.Errorf("env: scenario crash %q (want PID@ROUND): %w", val, err)
			}
			if s.Crashes == nil {
				s.Crashes = make(map[int]int)
			}
			if _, dup := s.Crashes[nums[0]]; dup {
				return nil, fmt.Errorf("env: scenario crashes process %d twice", nums[0])
			}
			s.Crashes[nums[0]] = nums[1]
		default:
			return nil, fmt.Errorf("env: unknown scenario field %q", key)
		}
	}
	if err := s.Validate(0); err != nil {
		return nil, err
	}
	return s, nil
}

// splitInts parses exactly want integers separated by sep.
func splitInts(val, sep string, want int) ([]int, error) {
	fields := strings.Split(val, sep)
	if len(fields) != want {
		return nil, fmt.Errorf("want %d fields, got %d", want, len(fields))
	}
	out := make([]int, want)
	for i, f := range fields {
		v, err := strconv.Atoi(f)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// RandomAdversary derives a reproducible worst-case-ish scenario for an
// ensemble of n processes: moderate loss and duplication, one mid-run
// partition, and a staggered crash schedule that spares process 0 (so an
// ESS run can keep its designated stable source) and always leaves a
// correct majority-of-one. Identical (seed, n) yield identical scenarios.
func RandomAdversary(seed int64, n int) *Scenario {
	rng := rngFor(seed, "random-adversary")
	s := &Scenario{
		Seed:    seed,
		LossPct: rng.Intn(21), // 0–20%: lossy but usually survivable
		DupPct:  rng.Intn(31), // 0–30%: dedup pressure
	}
	if n >= 2 {
		from := 1 + rng.Intn(6)
		s.Partitions = []Partition{{
			From:  from,
			Until: from + 2 + rng.Intn(9), // heals after 2–10 rounds
			Cut:   1 + rng.Intn(n-1),
		}}
	}
	if maxCrash := n / 3; maxCrash > 0 {
		s.Crashes = make(map[int]int)
		for i := 0; i < maxCrash; i++ {
			pid := 1 + rng.Intn(n-1) // never crash process 0
			if _, dup := s.Crashes[pid]; dup {
				continue
			}
			s.Crashes[pid] = 1 + rng.Intn(15)
		}
	}
	return s
}
