package anonconsensus

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"time"

	"anonconsensus/internal/core"
	"anonconsensus/internal/env"
	"anonconsensus/internal/explore"
	"anonconsensus/internal/giraf"
	"anonconsensus/internal/obstruction"
	"anonconsensus/internal/property"
	"anonconsensus/internal/register"
	"anonconsensus/internal/values"
	"anonconsensus/internal/weakset"
)

// Value is a proposal value. Values are totally ordered by ordinary string
// comparison; consensus breaks ties toward the maximum. Use NumValue for
// numeric proposals whose string order matches their numeric order.
type Value string

// NumValue renders a non-negative integer as a Value whose string order
// equals numeric order.
func NumValue(i int64) Value { return Value(values.Num(i)) }

// valid reports whether v is a usable proposal.
func (v Value) valid() bool { return values.Value(v).Valid() }

// toValues converts public values to the internal representation.
func toValues(in []Value) []values.Value {
	out := make([]values.Value, len(in))
	for i, v := range in {
		out[i] = values.Value(v)
	}
	return out
}

// automatonFactory builds the per-process consensus automata for env: the
// single seam through which every transport reaches Algorithms 2 and 3.
func automatonFactory(env Environment, proposals []Value) func(i int) giraf.Automaton {
	props := toValues(proposals)
	if env == EnvESS {
		return func(i int) giraf.Automaton { return core.NewESS(props[i]) }
	}
	return func(i int) giraf.Automaton { return core.NewES(props[i]) }
}

// Environment selects the paper's synchrony assumption.
type Environment int

// Supported environments.
const (
	// EnvES is the eventually synchronous environment (Algorithm 2):
	// after stabilization every process's broadcasts are timely.
	EnvES Environment = iota + 1
	// EnvESS is the eventually-stable-source environment (Algorithm 3):
	// after stabilization only some single process is guaranteed timely;
	// the algorithm elects pseudo leaders from proposal histories.
	EnvESS
)

// String implements fmt.Stringer.
func (e Environment) String() string {
	switch e {
	case EnvES:
		return "ES"
	case EnvESS:
		return "ESS"
	default:
		return fmt.Sprintf("Environment(%d)", int(e))
	}
}

// ParseEnvironment is String's inverse (case-insensitively): "es" → EnvES,
// "ess" → EnvESS. CLIs and config loaders should use it rather than
// mapping names themselves.
func ParseEnvironment(name string) (Environment, error) {
	switch strings.ToLower(name) {
	case "es":
		return EnvES, nil
	case "ess":
		return EnvESS, nil
	default:
		return 0, fmt.Errorf("anonconsensus: unknown environment %q (want es or ess)", name)
	}
}

// Decision is one process's outcome.
type Decision struct {
	// Proc is the process index (a runner-level handle; the processes
	// themselves are anonymous).
	Proc int
	// Decided reports whether the process decided (false for crashed or
	// timed-out processes).
	Decided bool
	// Value is the decided value (when Decided).
	Value Value
	// Round is the round at which the process decided.
	Round int
	// Crashed reports whether the crash schedule stopped the process or,
	// on the TCP transports, its session was lost for good (exhausted its
	// reconnect budget), which is crash-equivalent.
	Crashed bool
}

// Robustness counts the network-failure events a run survived. Only the
// TCP transport populates it (the sim and live backends have no network
// to lose); a zero Robustness means an undisturbed run.
type Robustness struct {
	// Reconnects counts hub connections re-established after a loss,
	// summed over all nodes.
	Reconnects int
	// ReplayedFrames counts frames the hub re-sent from session logs on
	// resumption.
	ReplayedFrames int
	// FailedDials counts redial attempts that did not produce a session.
	FailedDials int
	// HeartbeatMisses counts hub probe intervals that elapsed
	// unacknowledged (slow consumers accumulate a few and recover).
	HeartbeatMisses int
	// DroppedConns counts connections the hub itself severed (heartbeat
	// dead or overwhelmed past the grace window).
	DroppedConns int
	// OverwhelmedDrops is the subset of DroppedConns due to an outbound
	// queue stuck over the high-water mark.
	OverwhelmedDrops int
}

// Result is the outcome of one consensus instance.
type Result struct {
	Decisions []Decision
	// Rounds is the number of rounds executed (sim transport; 0 on the
	// real-time ones).
	Rounds int
	// Elapsed is the wall-clock duration (real-time transports; 0 on sim).
	Elapsed time.Duration
	// Robustness reports the network-failure events the run survived
	// (NewTCPTransport only: its hub and connections live exactly one Run).
	Robustness Robustness
}

// Agreed returns the single decided value when every non-crashed process
// decided it; ok is false if nobody decided or decisions diverge (the
// latter cannot happen unless the configured environment assumptions were
// violated).
func (r *Result) Agreed() (v Value, ok bool) {
	correct := slices.DeleteFunc(outcomes(r.Decisions), func(o property.Outcome) bool { return o.Crashed })
	if len(correct) == 0 || property.CheckTermination(correct, 0) != nil || property.CheckAgreement(correct) != nil {
		return "", false
	}
	return Value(correct[0].Value), true
}

// outcomes converts decisions to the property checker's form; decisions
// is its inverse, the one place every backend's Decisions are built.
func outcomes(ds []Decision) []property.Outcome {
	outs := make([]property.Outcome, len(ds))
	for i, d := range ds {
		outs[i] = property.Outcome{Decided: d.Decided, Value: values.Value(d.Value), Round: d.Round, Crashed: d.Crashed}
	}
	return outs
}

func decisions(outs []property.Outcome) []Decision {
	ds := make([]Decision, len(outs))
	for i, o := range outs {
		ds[i] = Decision{Proc: i, Decided: o.Decided, Value: Value(o.Value), Round: o.Round, Crashed: o.Crashed}
	}
	return ds
}

// ExploreMode selects the exploration plane's search strategy.
type ExploreMode int

// Supported exploration modes.
const (
	// ExploreExhaustive enumerates every MS-valid {0,1}-delay schedule up
	// to the horizon — model checking for tiny systems (n ≤ 3).
	ExploreExhaustive ExploreMode = iota + 1
	// ExploreRandom samples schedules PCT-style (a priority order picks
	// each round's source; Depth change points reshuffle it) and optionally
	// overlays random fault scenarios — scales to n ≈ 8 and beyond.
	ExploreRandom
)

// ExploreConfig bounds an exploration of the schedule × scenario space.
// The zero value of every knob selects a sensible default; only Proposals
// is required.
type ExploreConfig struct {
	// Proposals holds one initial value per process; n = len(Proposals).
	// Exhaustive mode supports n ≤ 3, random mode n ≤ 16.
	Proposals []Value
	// Env selects the algorithm under test (EnvES or EnvESS); defaults to
	// EnvES.
	Env Environment
	// Mode selects the strategy; defaults to ExploreExhaustive.
	Mode ExploreMode
	// Horizon is the number of explicitly scheduled rounds (exhaustive
	// 1..8, required there; random 1..64, default 12).
	Horizon int
	// Tail is the number of steady-state rounds beyond the horizon;
	// defaults to 8 (exhaustive) or 12 (random).
	Tail int
	// CrashSweeps (exhaustive) sweeps every single-crash placement.
	CrashSweeps bool
	// SampleEvery (exhaustive) keeps every k-th schedule only.
	SampleEvery int
	// Trials (random) is the number of sampled schedules; default 1000.
	Trials int
	// Seed (random) reproduces the whole search.
	Seed int64
	// MaxDelay (random) bounds sampled link delays (1..9, default 3).
	MaxDelay int
	// Depth (random) is the number of PCT-style priority-change points
	// (default 3).
	Depth int
	// ScenarioPct (random) is the percentage of trials that overlay a
	// random fault scenario (RandomScenario); requires a zero Scenario.
	ScenarioPct int
	// Scenario overlays one fixed fault scenario on every run. A crash
	// schedule that stops every process is rejected with ErrAllCrashed.
	Scenario Scenario
	// Parallelism bounds the trial worker pool (0 = GOMAXPROCS); the
	// report is byte-identical at any setting.
	Parallelism int
	// DisableShrink skips counterexample minimization.
	DisableShrink bool
}

// Counterexample is one property violation minimized into a replayable
// artifact: Replay(c.Trace) deterministically reproduces ReplayViolation.
type Counterexample struct {
	// Violation is the check failure observed on the originally sampled
	// run.
	Violation string
	// Trace is the shrunk, locally-minimal run.
	Trace Trace
	// ReplayViolation is the violation the shrunk trace reproduces.
	ReplayViolation string
}

// ExploreReport summarizes an exploration.
type ExploreReport struct {
	// Schedules and Runs count the executed search space (runs = schedules
	// × crash placements in exhaustive mode).
	Schedules, Runs int
	// Faulted counts runs that carried a non-empty fault scenario.
	Faulted int
	// Decided counts runs in which every correct process decided.
	Decided int
	// Violations lists every property violation found (empty = verified).
	Violations []string
	// Counterexamples holds shrunk replayable artifacts for the first
	// violations found.
	Counterexamples []Counterexample

	inner *explore.Report
}

// Verified reports whether no run violated a checked property.
func (r *ExploreReport) Verified() bool { return len(r.Violations) == 0 }

// Render writes the report's canonical text form: a pure function of the
// report, byte-identical at any parallelism for a fixed seed.
func (r *ExploreReport) Render(w io.Writer) error { return r.inner.Render(w) }

// Trace is one fully-determined exploration run — algorithm, proposals,
// per-round delay schedule, steady state and fault scenario. Its String
// form is the canonical text encoding (ParseTrace is the inverse), and
// Replay re-executes it deterministically. Traces come out of exploration
// counterexamples or are parsed from text; the zero Trace is not runnable.
type Trace struct {
	inner explore.Trace
}

// String returns the canonical text encoding of the trace.
func (t Trace) String() string { return t.inner.Encode() }

// ParseTrace parses the canonical trace text form produced by
// Trace.String / the exploration reports.
func ParseTrace(text string) (Trace, error) {
	inner, err := explore.ParseTrace(text)
	if err != nil {
		return Trace{}, fmt.Errorf("anonconsensus: %w", err)
	}
	return Trace{inner: *inner}, nil
}

// Explore searches the schedule × fault-scenario space of the selected
// algorithm and verifies Agreement, Validity, irrevocability of decisions,
// and — wherever the environment still guarantees it — Termination, on
// every run. Violations are minimized by a delta-debugging shrinker into
// replayable counterexamples. For a fixed configuration the report is
// byte-identical at any parallelism.
func Explore(cfg ExploreConfig) (*ExploreReport, error) {
	inner := explore.Config{
		Proposals:     toValues(cfg.Proposals),
		Horizon:       cfg.Horizon,
		Tail:          cfg.Tail,
		CrashSweeps:   cfg.CrashSweeps,
		SampleEvery:   cfg.SampleEvery,
		Trials:        cfg.Trials,
		Seed:          cfg.Seed,
		MaxDelay:      cfg.MaxDelay,
		Depth:         cfg.Depth,
		ScenarioPct:   cfg.ScenarioPct,
		Scenario:      cfg.Scenario.toEnv(cfg.Seed),
		Parallelism:   cfg.Parallelism,
		DisableShrink: cfg.DisableShrink,
	}
	switch cfg.Env {
	case EnvESS:
		inner.Algorithm = explore.AlgESS
	case EnvES, 0:
		inner.Algorithm = explore.AlgES
	default:
		return nil, fmt.Errorf("anonconsensus: unknown environment %d", int(cfg.Env))
	}
	switch cfg.Mode {
	case ExploreExhaustive, 0:
		inner.Mode = explore.ModeExhaustive
	case ExploreRandom:
		inner.Mode = explore.ModeRandom
	default:
		return nil, fmt.Errorf("anonconsensus: unknown exploration mode %d", int(cfg.Mode))
	}
	rep, err := explore.Run(inner)
	if err != nil {
		if errors.Is(err, env.ErrAllCrashed) {
			// Translate to the public sentinel, as the transports do.
			return nil, fmt.Errorf("anonconsensus: exploration scenario makes every run vacuous: %w", ErrAllCrashed)
		}
		return nil, fmt.Errorf("anonconsensus: %w", err)
	}
	return exploreReport(rep), nil
}

// Replay re-executes one trace and reports the violations (if any) it
// reproduces. Replay is deterministic: the same trace always yields the
// same report.
func Replay(t Trace) (*ExploreReport, error) {
	rep, err := explore.Run(explore.Config{Mode: explore.ModeReplay, Trace: &t.inner})
	if err != nil {
		return nil, fmt.Errorf("anonconsensus: %w", err)
	}
	return exploreReport(rep), nil
}

// exploreReport converts the internal report to the public form.
func exploreReport(rep *explore.Report) *ExploreReport {
	out := &ExploreReport{
		Schedules:  rep.Schedules,
		Runs:       rep.Runs,
		Faulted:    rep.Faulted,
		Decided:    rep.Decided,
		Violations: append([]string(nil), rep.Violations...),
		inner:      rep,
	}
	for _, cx := range rep.Counterexamples {
		out.Counterexamples = append(out.Counterexamples, Counterexample{
			Violation:       cx.Violation,
			Trace:           Trace{inner: cx.Trace},
			ReplayViolation: cx.ReplayViolation,
		})
	}
	return out
}

// WeakSet is the anonymous shared-set data structure of §5: adds are
// visible to every get that starts after the add returned; no identities,
// no lost updates. Safe for concurrent use.
type WeakSet struct {
	inner weakset.Memory
}

// NewWeakSet returns an empty weak-set.
func NewWeakSet() *WeakSet { return &WeakSet{} }

// Add inserts v. It returns an error only for invalid values.
func (s *WeakSet) Add(v Value) error {
	if !values.Value(v).Valid() {
		return fmt.Errorf("anonconsensus: invalid value %q", string(v))
	}
	return s.inner.Add(values.Value(v))
}

// Get returns a snapshot of the set's contents, sorted ascending.
func (s *WeakSet) Get() ([]Value, error) {
	set, err := s.inner.Get()
	if err != nil {
		return nil, err
	}
	out := make([]Value, 0, set.Len())
	for _, v := range set.Sorted() {
		out = append(out, Value(v))
	}
	return out, nil
}

// OFConsensus is anonymous obstruction-free consensus from shared memory
// (the construction the paper cites as Guerraoui & Ruppert [9], built here
// from adopt-commit objects over linearizable weak-sets). Safety —
// Agreement and Validity — is unconditional; a Propose call terminates
// when it finds an uncontended round, so callers under contention should
// retry with backoff. Safe for concurrent use.
type OFConsensus struct {
	inner *obstruction.Consensus
}

// NewOFConsensus returns a fresh instance.
func NewOFConsensus() *OFConsensus {
	return &OFConsensus{inner: obstruction.NewConsensus()}
}

// Propose offers v and runs up to maxRounds adopt-commit rounds. ok is
// false when every round stayed contended — retry (possibly after a
// backoff); the instance remains usable and safe.
func (c *OFConsensus) Propose(v Value, maxRounds int) (decided Value, ok bool, err error) {
	got, ok, err := c.inner.Propose(values.Value(v), maxRounds)
	return Value(got), ok, err
}

// Decided reports whether some proposer already decided, and the value.
func (c *OFConsensus) Decided() (Value, bool) {
	v, ok := c.inner.Decided()
	return Value(v), ok
}

// Register is a regular multi-writer multi-reader register built from a
// weak-set (Proposition 1). Safe for concurrent use; reads concurrent with
// writes may disagree, quiescent reads agree.
type Register struct {
	inner *register.FromWeakSet
}

// NewRegister returns an unwritten register backed by a fresh weak-set.
func NewRegister() *Register {
	var ws weakset.Memory
	return &Register{inner: register.NewFromWeakSet(&ws)}
}

// Write stores v.
func (r *Register) Write(v Value) error {
	if !values.Value(v).Valid() {
		return fmt.Errorf("anonconsensus: invalid value %q", string(v))
	}
	return r.inner.Write(values.Value(v))
}

// Read returns the register's value; ok is false if never written.
func (r *Register) Read() (v Value, ok bool, err error) {
	raw, err := r.inner.Read()
	if err != nil {
		return "", false, err
	}
	return Value(raw), raw != "", nil
}
