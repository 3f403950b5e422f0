// Package explore is the exploration plane: it searches the combined
// schedule × fault-scenario space of the consensus algorithms and verifies
// the paper's properties — Agreement, Validity, Termination where the
// environment guarantees it, and irrevocability of decisions — on every
// run. It operates in three modes:
//
//   - ModeExhaustive enumerates *every* MS-valid delay schedule (and
//     optionally every crash placement) over {0,1} delays up to a horizon —
//     a model-checking-style sweep for the sizes where that is tractable:
//
//     n = 2, delays ∈ {0,1}, horizon 6  →     729 schedules
//     n = 3, delays ∈ {0,1}, horizon 4  → ~2.8 M schedules (use SampleEvery)
//
//   - ModeRandom samples schedules PCT-style at sizes the exhaustive space
//     cannot reach (n ≈ 8): a random priority order picks each round's
//     source, Depth priority-change points reshuffle the order mid-run, and
//     non-source links draw uniform delays; a configurable fraction of
//     trials additionally overlays a fault scenario (loss, duplication,
//     partitions, crashes) drawn from env.RandomAdversary. Trials fan over
//     the sim.RunBatch worker pool and the report is byte-identical at any
//     parallelism.
//
//   - ModeReplay re-executes one canonical Trace (schedule + scenario +
//     tail, see Trace.Encode) and reports its violations — the consumption
//     side of the counterexamples the other two modes emit.
//
// Every violation is minimized by a delta-debugging shrinker (shrink.go)
// into a locally-minimal, replayable Counterexample before reporting.
package explore

import (
	"errors"
	"fmt"
	"io"

	"anonconsensus/internal/core"
	"anonconsensus/internal/env"
	"anonconsensus/internal/giraf"
	"anonconsensus/internal/property"
	"anonconsensus/internal/sim"
	"anonconsensus/internal/values"
)

// Algorithm selects the automaton under test.
type Algorithm int

// Supported algorithms.
const (
	AlgES Algorithm = iota + 1
	AlgESS
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case AlgES:
		return "ES"
	case AlgESS:
		return "ESS"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Mode selects the search strategy.
type Mode int

// Supported modes. The zero value is ModeExhaustive so pre-existing
// exhaustive configurations keep working unchanged.
const (
	ModeExhaustive Mode = iota
	ModeRandom
	ModeReplay
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeExhaustive:
		return "exhaustive"
	case ModeRandom:
		return "random"
	case ModeReplay:
		return "replay"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Limits of the randomized search space; the trace text form encodes one
// digit per delay, which is where the delay cap comes from.
const (
	maxRandomProcs   = 16
	maxRandomHorizon = 64
	maxTraceDelay    = 9
	maxTraceTail     = 1024
	maxTraceHorizon  = 256
)

// Config bounds the exploration.
type Config struct {
	// Proposals holds one initial value per process; n = len(Proposals).
	// Exhaustive mode supports n ≤ 3 (the schedule space is V^H with
	// V ≈ 2^(n(n−1)) matrices); random mode supports n ≤ 16.
	Proposals []values.Value
	// Algorithm is the automaton under test.
	Algorithm Algorithm
	// Mode selects exhaustive enumeration (default), randomized search, or
	// trace replay.
	Mode Mode
	// Horizon is the number of rounds whose matrices are enumerated
	// (exhaustive, 1..8) or sampled (random, 1..64, default 12). Rounds
	// beyond the horizon run the steady state: exhaustive mode repeats the
	// last matrix (the adversary commits), random mode turns fully timely
	// (so ES holds eventually and Termination becomes checkable).
	Horizon int
	// Tail is the number of steady-state rounds; defaults to 8 (exhaustive)
	// or 12 (random).
	Tail int
	// CrashSweeps (exhaustive) additionally enumerates every
	// (process, round ≤ Horizon) crash placement for every schedule.
	CrashSweeps bool
	// SampleEvery (exhaustive) keeps only every k-th schedule (1 = all);
	// use it to keep n = 3 explorations tractable.
	SampleEvery int
	// Trials (random) is the number of sampled schedules; defaults to 1000.
	Trials int
	// Seed (random) drives schedule and scenario sampling. Identical seeds
	// reproduce the whole search.
	Seed int64
	// MaxDelay (random) bounds sampled non-source delays, 1..9; default 3.
	MaxDelay int
	// Depth (random) is the number of PCT-style priority-change points per
	// trial: rounds at which the sampler reshuffles the priority order that
	// picks the source. Depth d gives the sampler a chance against bugs
	// that need d source changes. Defaults to 3; 0 keeps one source order
	// for the whole horizon.
	Depth int
	// ScenarioPct (random) is the percentage of trials that overlay a fault
	// scenario drawn from env.RandomAdversary (loss, duplication, one
	// partition, staggered crashes). Requires Scenario == nil.
	ScenarioPct int
	// Scenario, when non-nil, overlays this fixed fault scenario on every
	// run of the exploration (all modes). Scenarios whose crash schedule
	// stops every process are rejected at validation with a typed error
	// wrapping env.ErrAllCrashed: such a configuration makes every run
	// vacuous, which is a caller bug, not a search result.
	Scenario *env.Scenario
	// Parallelism bounds the worker pool the randomized trials fan across;
	// 0 (or negative) means GOMAXPROCS. The report is byte-identical at any
	// setting.
	Parallelism int
	// DisableShrink skips counterexample minimization (violations are still
	// reported; Counterexamples then carry the unshrunk traces).
	DisableShrink bool
	// MaxCounterexamples caps how many violations are turned into shrunk
	// replayable counterexamples (the Violations list is never truncated);
	// 0 defaults to 8, negative means unlimited.
	MaxCounterexamples int
	// Trace is the run to re-execute in ModeReplay; other search knobs are
	// ignored there (the trace is self-contained).
	Trace *Trace
	// Automaton, if non-nil, overrides the Algorithm selection with a
	// custom factory (used to explore broken ablation variants and to test
	// the explorer's own violation detection). Replay honors it too, so a
	// counterexample found against an injected bug replays against the same
	// bug.
	Automaton func(i int) giraf.Automaton
}

func (c *Config) validate() error {
	switch c.Mode {
	case ModeExhaustive, ModeRandom:
	case ModeReplay:
		if c.Trace == nil {
			return fmt.Errorf("explore: replay mode needs a Trace")
		}
		return c.Trace.validate()
	default:
		return fmt.Errorf("explore: unknown mode %d", int(c.Mode))
	}
	n := len(c.Proposals)
	switch c.Mode {
	case ModeExhaustive:
		switch {
		case n < 1 || n > 3:
			return fmt.Errorf("explore: n = %d, exhaustive search supports 1..3", n)
		case c.Horizon < 1 || c.Horizon > 8:
			return fmt.Errorf("explore: horizon = %d, want 1..8", c.Horizon)
		}
	case ModeRandom:
		switch {
		case n < 1 || n > maxRandomProcs:
			return fmt.Errorf("explore: n = %d, randomized search supports 1..%d", n, maxRandomProcs)
		case c.Horizon < 0 || c.Horizon > maxRandomHorizon:
			return fmt.Errorf("explore: horizon = %d, want 1..%d (0 = default)", c.Horizon, maxRandomHorizon)
		case c.Trials < 0:
			return fmt.Errorf("explore: trials = %d, must be ≥ 0 (0 = default)", c.Trials)
		case c.MaxDelay < 0 || c.MaxDelay > maxTraceDelay:
			return fmt.Errorf("explore: max delay = %d, want 0..%d (the trace form encodes one digit per delay)", c.MaxDelay, maxTraceDelay)
		case c.Depth < 0:
			return fmt.Errorf("explore: depth = %d, must be ≥ 0", c.Depth)
		case c.ScenarioPct < 0 || c.ScenarioPct > 100:
			return fmt.Errorf("explore: scenario percentage %d outside [0,100]", c.ScenarioPct)
		case c.ScenarioPct > 0 && c.Scenario != nil:
			return fmt.Errorf("explore: ScenarioPct and a fixed Scenario are mutually exclusive")
		}
		for _, p := range c.Proposals {
			if err := validateTraceValue(p); err != nil {
				return err
			}
		}
	}
	switch c.Algorithm {
	case AlgES, AlgESS:
	default:
		return fmt.Errorf("explore: unknown algorithm %d", int(c.Algorithm))
	}
	for i, p := range c.Proposals {
		if !p.Valid() {
			return fmt.Errorf("explore: proposal %d invalid (%q)", i, string(p))
		}
	}
	// Scenarios that trivially make every run vacuous — a crash schedule
	// that stops every process — are configuration bugs: reject them up
	// front with the typed env.ErrAllCrashed instead of reporting a
	// trivially-undecided space.
	if err := c.Scenario.Validate(n); err != nil {
		if errors.Is(err, env.ErrAllCrashed) {
			return fmt.Errorf("explore: scenario makes every run vacuous: %w", err)
		}
		return fmt.Errorf("explore: %w", err)
	}
	return nil
}

// Resolved-default accessors.

func (c *Config) tail() int {
	if c.Tail > 0 {
		return c.Tail
	}
	if c.Mode == ModeRandom {
		return 12
	}
	return 8
}

func (c *Config) horizon() int {
	if c.Horizon > 0 {
		return c.Horizon
	}
	return 12 // random-mode default; exhaustive validation requires ≥ 1
}

func (c *Config) trials() int {
	if c.Trials > 0 {
		return c.Trials
	}
	return 1000
}

func (c *Config) maxDelay() int {
	if c.MaxDelay > 0 {
		return c.MaxDelay
	}
	return 3
}

func (c *Config) depth() int {
	if c.Depth > 0 {
		return c.Depth
	}
	return 3
}

func (c *Config) maxCounterexamples() int {
	switch {
	case c.MaxCounterexamples > 0:
		return c.MaxCounterexamples
	case c.MaxCounterexamples < 0:
		return int(^uint(0) >> 1)
	default:
		return 8
	}
}

// automaton resolves the automaton factory: the override, or the algorithm
// under test.
func (c *Config) automaton() func(i int) giraf.Automaton {
	if c.Automaton != nil {
		return c.Automaton
	}
	return algFactory(c.Algorithm, c.Proposals)
}

// algFactory builds the per-process consensus automata for alg.
func algFactory(alg Algorithm, proposals []values.Value) func(i int) giraf.Automaton {
	if alg == AlgESS {
		return func(i int) giraf.Automaton { return core.NewESS(proposals[i]) }
	}
	return func(i int) giraf.Automaton { return core.NewES(proposals[i]) }
}

// Counterexample is one violation turned into a replayable artifact.
type Counterexample struct {
	// Trial is the randomized trial index that found it (-1 in exhaustive
	// mode, where schedules are enumerated, not sampled).
	Trial int
	// Violation is the check failure observed on the original run.
	Violation string
	// Trace is the minimized run; Trace.Encode() is the replayable text
	// form and Replay reproduces ReplayViolation deterministically.
	Trace Trace
	// ReplayViolation is the violation the minimized trace reproduces (the
	// same property as Violation; the concrete message may differ after
	// shrinking).
	ReplayViolation string
	// Probes is the number of shrink probe runs executed (0 when shrinking
	// was disabled).
	Probes int
}

// Report summarizes an exploration.
type Report struct {
	// Mode is the search strategy that produced the report.
	Mode Mode
	// Schedules is the number of schedules executed (== Trials in random
	// mode).
	Schedules int
	// Runs is the number of simulation runs (schedules × crash placements);
	// shrink probes are not counted.
	Runs int
	// Faulted counts runs that carried a non-empty fault scenario.
	Faulted int
	// Decided counts runs in which every correct process decided.
	Decided int
	// Violations lists every property violation found (empty = verified).
	Violations []string
	// Counterexamples holds the shrunk replayable artifacts for the first
	// MaxCounterexamples violations.
	Counterexamples []Counterexample
}

// Verified reports whether no run violated a checked property.
func (r *Report) Verified() bool { return len(r.Violations) == 0 }

// Render writes the report in its canonical text form. The rendering is a
// pure function of the report — for a fixed seed it is byte-identical at
// any parallelism, which is what the determinism tests pin.
func (r *Report) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "mode: %s\nschedules: %d  runs: %d  decided: %d  faulted: %d\n",
		r.Mode, r.Schedules, r.Runs, r.Decided, r.Faulted); err != nil {
		return err
	}
	if r.Verified() {
		_, err := fmt.Fprintln(w, "violations: 0 (verified)")
		return err
	}
	if _, err := fmt.Fprintf(w, "violations: %d\n", len(r.Violations)); err != nil {
		return err
	}
	for i, cx := range r.Counterexamples {
		if _, err := fmt.Fprintf(w, "[%d] %s\n    shrunk (%d probes): %s\n    replay: %s\n",
			i, cx.Violation, cx.Probes, cx.Trace.Encode(), cx.ReplayViolation); err != nil {
			return err
		}
	}
	if extra := len(r.Violations) - len(r.Counterexamples); extra > 0 {
		if _, err := fmt.Fprintf(w, "(+%d further violations without shrunk counterexamples)\n", extra); err != nil {
			return err
		}
	}
	return nil
}

// matrix is one round's delay assignment: delay[i][j] ∈ 0..9 for i ≠ j.
type matrix [][]int

func newMatrix(n int) matrix {
	m := make(matrix, n)
	for i := range m {
		m[i] = make([]int, n)
	}
	return m
}

func (m matrix) clone() matrix {
	out := make(matrix, len(m))
	for i, row := range m {
		out[i] = append([]int(nil), row...)
	}
	return out
}

// enumerateMatrices returns every n×n delay matrix over {0,1} that has a
// source (some i with delay[i][j] = 0 for all j).
func enumerateMatrices(n int) []matrix {
	pairs := make([][2]int, 0, n*(n-1))
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				pairs = append(pairs, [2]int{i, j})
			}
		}
	}
	var out []matrix
	total := 1 << uint(len(pairs))
	for mask := 0; mask < total; mask++ {
		m := newMatrix(n)
		for b, p := range pairs {
			if mask&(1<<uint(b)) != 0 {
				m[p[0]][p[1]] = 1
			}
		}
		hasSource := false
		for i := 0; i < n && !hasSource; i++ {
			ok := true
			for j := 0; j < n; j++ {
				if i != j && m[i][j] != 0 {
					ok = false
					break
				}
			}
			hasSource = ok
		}
		if hasSource {
			out = append(out, m)
		}
	}
	return out
}

// schedulePolicy replays an explicit matrix sequence. Beyond the horizon it
// repeats the last matrix (the exhaustive adversary commits to a steady
// state) or, with syncSteady, turns fully timely (the randomized sampler's
// synchronous tail, under which ES holds and Termination is checkable).
type schedulePolicy struct {
	matrices   []matrix
	syncSteady bool
	cur        matrix // the matrix of the round Schedule last set up
}

var _ env.Policy = (*schedulePolicy)(nil)

func (p *schedulePolicy) Schedule(round int, senders []int, n int) env.Delays {
	idx := round - 1
	if idx >= len(p.matrices) {
		if p.syncSteady {
			return env.Synchronous{}
		}
		idx = len(p.matrices) - 1
	}
	p.cur = p.matrices[idx]
	return p
}

// Row implements env.Delays from the round's matrix.
func (p *schedulePolicy) Row(sender int, row []int32) {
	for r, d := range p.cur[sender] {
		row[r] = int32(d)
	}
}

// Run executes the exploration in the configured mode.
func Run(cfg Config) (*Report, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	switch cfg.Mode {
	case ModeRandom:
		return runRandom(cfg)
	case ModeReplay:
		return runReplay(cfg)
	default:
		return runExhaustive(cfg)
	}
}

// runExhaustive enumerates the bounded schedule space.
func runExhaustive(cfg Config) (*Report, error) {
	n := len(cfg.Proposals)
	tail := cfg.tail()
	sample := cfg.SampleEvery
	if sample <= 0 {
		sample = 1
	}
	base := enumerateMatrices(n)
	report := &Report{Mode: ModeExhaustive}
	proposals := core.ProposalSet(cfg.Proposals)

	// Iterate schedules as base-|base| numbers of Horizon digits.
	digits := make([]int, cfg.Horizon)
	scheduleIdx := 0
	for {
		if scheduleIdx%sample == 0 {
			mats := make([]matrix, cfg.Horizon)
			for i, d := range digits {
				mats[i] = base[d]
			}
			report.Schedules++
			if err := runSchedules(cfg, mats, cfg.Horizon+tail, tail, proposals, report); err != nil {
				return nil, err
			}
		}
		scheduleIdx++
		// Increment the digit vector.
		pos := 0
		for pos < len(digits) {
			digits[pos]++
			if digits[pos] < len(base) {
				break
			}
			digits[pos] = 0
			pos++
		}
		if pos == len(digits) {
			break
		}
	}
	return report, nil
}

// runSchedules runs one schedule, optionally sweeping crash placements.
func runSchedules(cfg Config, mats []matrix, maxRounds, tail int, proposals values.Set, report *Report) error {
	type crash struct{ pid, at int }
	crashPlans := []crash{{-1, 0}} // no crash
	if cfg.CrashSweeps {
		for pid := 0; pid < len(cfg.Proposals); pid++ {
			for at := 1; at <= cfg.Horizon; at++ {
				crashPlans = append(crashPlans, crash{pid, at})
			}
		}
	}
	for _, cp := range crashPlans {
		sc := mergeCrash(cfg.Scenario, cp.pid, cp.at)
		if errors.Is(sc.Validate(len(cfg.Proposals)), env.ErrAllCrashed) {
			// The placement stops the last correct process: as vacuous as
			// the all-crashed scenario Config.validate rejects.
			continue
		}
		res, err := sim.Run(sim.Config{
			N:           len(cfg.Proposals),
			Automaton:   cfg.automaton(),
			Policy:      &schedulePolicy{matrices: mats},
			Scenario:    sc,
			MaxRounds:   maxRounds,
			RecordTrace: true,
		})
		if err != nil {
			return err
		}
		vs := report.tally(res, proposals, cfg.Scenario, false, "schedule %v crash %+v: ", mats, cp)
		if len(vs) == 0 {
			continue
		}
		if len(report.Counterexamples) < cfg.maxCounterexamples() {
			tr := Trace{
				Algorithm: cfg.Algorithm,
				Proposals: cfg.Proposals,
				Tail:      tail,
				Schedule:  cloneSchedule(mats),
				Scenario:  sc,
			}
			if tr.validate() == nil { // e.g. proposals the trace form cannot encode
				report.Counterexamples = append(report.Counterexamples,
					buildCounterexample(&cfg, tr, -1, vs[0].Msg))
			}
		}
	}
	return nil
}

// mergeCrash folds one swept crash placement into a copy of the scenario so
// the resulting trace is self-contained.
func mergeCrash(sc *env.Scenario, pid, at int) *env.Scenario {
	if pid < 0 {
		return sc
	}
	out := sc.Clone()
	if out == nil {
		out = &env.Scenario{}
	}
	if out.Crashes == nil {
		out.Crashes = make(map[int]int, 1)
	}
	if prev, ok := out.Crashes[pid]; !ok || at < prev {
		out.Crashes[pid] = at
	}
	return out
}

func cloneSchedule(mats []matrix) []matrix {
	out := make([]matrix, len(mats))
	for i, m := range mats {
		out[i] = m.clone()
	}
	return out
}

// runReplay re-executes one trace and reports its violations.
func runReplay(cfg Config) (*Report, error) {
	tr := *cfg.Trace
	report := &Report{Mode: ModeReplay, Schedules: 1}
	res, err := sim.Run(tr.simConfig(cfg.Automaton))
	if err != nil {
		return nil, err
	}
	report.tally(res, core.ProposalSet(tr.Proposals), tr.Scenario, tr.terminationExpected(), "")
	return report, nil
}

// tally counts one finished run into the report and appends the violations
// property.Check finds, each behind the formatted prefix; it returns them.
func (r *Report) tally(res *sim.Result, proposals values.Set, sc *env.Scenario, promised bool, prefix string, args ...any) []*property.Violation {
	r.Runs++
	if !sc.Empty() {
		r.Faulted++
	}
	if res.AllCorrectDecided() {
		r.Decided++
	}
	vs := res.Check(proposals, sc, promised)
	for _, v := range vs {
		r.Violations = append(r.Violations, fmt.Sprintf(prefix, args...)+v.Msg)
	}
	return vs
}

// buildCounterexample shrinks one violating trace (unless disabled) and
// packages it with the violation its replay reproduces.
func buildCounterexample(cfg *Config, tr Trace, trial int, violation string) Counterexample {
	cx := Counterexample{Trial: trial, Violation: violation, Trace: tr, ReplayViolation: violation}
	if !cfg.DisableShrink {
		cx.Trace, cx.ReplayViolation, cx.Probes = shrinkTrace(cfg, tr, property.KindOf(violation), violation)
	}
	return cx
}
