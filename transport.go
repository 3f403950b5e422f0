package anonconsensus

import (
	"context"
	"fmt"
	"time"
)

// InstanceSpec is one fully-described consensus instance, the unit of work
// a Transport executes. Node builds specs from proposals plus resolved
// options; zero-valued knobs mean "backend default" (Interval 5ms live /
// 10ms TCP, Timeout 30s, MaxRounds 10·n+200).
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
	// Scenario is the run's fault description: crash schedule, loss,
	// duplication, partitions. The zero Scenario is fault-free.
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
// checks what only the spec knows — proposals, environment, stable source —
// and hands the whole fault description to the one scenario validator
// (process range, crash rounds ≥ 1, ErrAllCrashed, link-fault structure).
func (s *InstanceSpec) validate() error {
	if len(s.Proposals) == 0 {
		return fmt.Errorf("anonconsensus: no proposals")
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
		if _, crashed := s.Scenario.Crashes[s.StableSource]; crashed {
			return fmt.Errorf("anonconsensus: the stable source must stay correct")
		}
	}
	return s.Scenario.validate(len(s.Proposals))
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
