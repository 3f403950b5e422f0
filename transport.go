package anonconsensus

import (
	"context"
	"fmt"
	"strings"
	"time"

	"anonconsensus/internal/env"
)

// InstanceSpec is one fully-described consensus instance, the unit of work
// a Transport executes. Node builds specs from proposals plus resolved
// options; zero-valued knobs mean "backend default" (Interval 5ms live /
// 10ms TCP, Timeout 30s, MaxRounds 10·n+200) so the compatibility wrappers
// reproduce the historical Config behavior exactly.
type InstanceSpec struct {
	// ID names the instance (unique within a Node session).
	ID string
	// Proposals holds one initial value per process.
	Proposals []Value
	// Env is the synchrony assumption (resolved: EnvES or EnvESS).
	Env Environment
	// GST is the stabilization round.
	GST int
	// StableSource is the eventual source (EnvESS only).
	StableSource int
	// Seed drives the pre-stabilization adversary.
	Seed int64
	// Crashes maps process index to its crash round. It always mirrors
	// Scenario.Crashes when the instance was built through the options API;
	// transports read this field, keeping it authoritative for legacy
	// Config-built specs too.
	Crashes map[int]int
	// Scenario is the composable fault overlay (loss, duplication,
	// partitions, crash schedule). The zero Scenario is fault-free.
	Scenario Scenario
	// Interval is the round-timer period (real-time transports).
	Interval time.Duration
	// Timeout bounds the run (real-time transports).
	Timeout time.Duration
	// MaxRounds bounds the run (sim transport).
	MaxRounds int
	// Reconnect governs connection-loss recovery on the TCP transports
	// (the zero policy means the backend default — reconnection on).
	// NewTCPTransport honours it per Run; NewTCPMuxTransport's connections
	// outlive instances, so there it is fixed when a slot is first dialed.
	Reconnect ReconnectPolicy
}

// N returns the number of processes.
func (s *InstanceSpec) N() int { return len(s.Proposals) }

// validate rejects malformed specs; transports may assume it passed. It
// also normalizes the crash schedule: the options API mirrors
// Scenario.Crashes into Crashes, but a hand-built spec may set only the
// scenario — such entries are merged into Crashes here (Crashes wins where
// both name a process) so every backend reads one authoritative schedule.
func (s *InstanceSpec) validate() error {
	if len(s.Proposals) == 0 {
		return fmt.Errorf("anonconsensus: no proposals")
	}
	if len(s.Scenario.Crashes) > 0 {
		merged := make(map[int]int, len(s.Crashes)+len(s.Scenario.Crashes))
		for pid, round := range s.Scenario.Crashes {
			merged[pid] = round
		}
		for pid, round := range s.Crashes {
			merged[pid] = round
		}
		s.Crashes = merged
	}
	for i, p := range s.Proposals {
		if !p.valid() {
			return fmt.Errorf("anonconsensus: proposal %d is invalid (%q)", i, string(p))
		}
	}
	switch s.Env {
	case EnvES, EnvESS:
	default:
		return fmt.Errorf("anonconsensus: unknown environment %d", int(s.Env))
	}
	if s.Env == EnvESS {
		if s.StableSource < 0 || s.StableSource >= len(s.Proposals) {
			return fmt.Errorf("anonconsensus: stable source %d outside [0,%d)", s.StableSource, len(s.Proposals))
		}
		if _, crashed := s.Crashes[s.StableSource]; crashed {
			return fmt.Errorf("anonconsensus: the stable source must stay correct")
		}
	}
	for pid, round := range s.Crashes {
		if pid < 0 || pid >= len(s.Proposals) {
			return fmt.Errorf("anonconsensus: crash schedule names process %d outside [0,%d)", pid, len(s.Proposals))
		}
		if round < 0 {
			return fmt.Errorf("anonconsensus: negative crash round %d for process %d", round, pid)
		}
	}
	// A schedule that crashes the whole ensemble cannot decide; fail fast
	// (ErrAllCrashed) instead of letting a real-time transport burn its
	// whole timeout on an outcome that is already known. Legacy round-0
	// entries do not count: on the real-time backends round 0 means
	// "never crashes", so such a spec can still decide there (the options
	// path cannot produce round 0 at all — WithCrashes requires ≥ 1).
	if len(s.Proposals) > 0 {
		crashing := 0
		for pid := range s.Proposals {
			if round, ok := s.Crashes[pid]; ok && round >= 1 {
				crashing++
			}
		}
		if crashing == len(s.Proposals) {
			return ErrAllCrashed
		}
	}
	// Only the scenario's link-fault dimensions are validated here (both
	// structure and ensemble fit): crash rounds were already checked
	// eagerly by WithCrashes/WithScenario on the options path, while the
	// legacy Config path deliberately keeps its historical contract (crash
	// round 0 = "never initializes" on the simulator), which the pid loop
	// above still admits.
	if faults := s.Scenario.linkFaults(s.Seed); faults != nil {
		if err := faults.Validate(len(s.Proposals)); err != nil {
			return fmt.Errorf("anonconsensus: %s", strings.TrimPrefix(err.Error(), "env: "))
		}
	}
	return nil
}

// linkFaults returns the internal per-link fault model for this spec's
// scenario (nil when the scenario has no loss, duplication or partitions),
// seeded with the spec seed.
func (s *InstanceSpec) linkFaults() *env.Scenario {
	return s.Scenario.linkFaults(s.Seed)
}

// interval returns the resolved round-timer period.
func (s *InstanceSpec) interval(def time.Duration) time.Duration {
	if s.Interval > 0 {
		return s.Interval
	}
	return def
}

// timeout returns the resolved run bound.
func (s *InstanceSpec) timeout() time.Duration {
	if s.Timeout > 0 {
		return s.Timeout
	}
	return 30 * time.Second
}

// Transport runs consensus instances over one backend. The built-in
// transports — NewLiveTransport (in-process goroutine network),
// NewSimTransport (deterministic lockstep simulator), NewTCPTransport
// (real TCP through an anonymous broadcast hub) and NewTCPMuxTransport
// (real TCP, instances multiplexed as epochs over persistent hub
// sessions) — share this interface, so a Node, a benchmark or a test can
// swap network realizations without touching driver code.
//
// Implementations must honor ctx: a cancelled context aborts the run
// promptly and Run returns an error wrapping ctx.Err().
type Transport interface {
	// Name identifies the backend ("live", "sim", "tcp", "tcp-mux").
	Name() string
	// Run executes one instance to completion and reports every process's
	// outcome. Instances are independent: transports must not leak state
	// (messages, rounds, decisions) between Run calls. Run must be safe
	// for concurrent use — a Node's worker pool (WithMaxInFlight) and
	// RunBatch issue overlapping calls on one transport.
	Run(ctx context.Context, spec InstanceSpec) (*Result, error)
	// Close releases backend resources. A closed transport rejects Run.
	Close() error
}
