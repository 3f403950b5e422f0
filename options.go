package anonconsensus

import (
	"fmt"
	"maps"
	"slices"
	"time"
)

// options is the resolved knob set shared by Node sessions and individual
// instances. Zero values mean "use the backend's default".
type options struct {
	env          Environment
	gst          int
	stableSource int
	seed         int64
	scenario     Scenario
	interval     time.Duration
	timeout      time.Duration
	maxRounds    int
	parallelism  int
	reconnect    ReconnectPolicy
	maxInFlight  int
	queueDepth   int
	admitRate    float64
	admitBurst   int
	admitWait    bool
}

// Option configures a Node session (NewNode) or one instance
// (Node.Propose). Per-instance options override the session's.
type Option func(*options) error

// clone deep-copies o so per-instance overrides never mutate the session.
func (o options) clone() options {
	out := o
	out.scenario = o.scenario.clone()
	return out
}

// apply folds opts into o, stopping at the first invalid option.
func (o *options) apply(opts []Option) error {
	for _, opt := range opts {
		if opt == nil {
			return fmt.Errorf("anonconsensus: nil option")
		}
		if err := opt(o); err != nil {
			return err
		}
	}
	return nil
}

// validate checks the session-level consistency knowable before any
// instance exists (no process count yet). Per-instance checks — index
// ranges against the ensemble size — live in InstanceSpec.validate, the
// single contract every Transport may assume.
func (o *options) validate() error {
	switch o.env {
	case EnvES, EnvESS, 0:
	default:
		return fmt.Errorf("anonconsensus: unknown environment %d", int(o.env))
	}
	if o.resolvedEnv() == EnvESS {
		if _, crashed := o.scenario.Crashes[o.stableSource]; crashed {
			return fmt.Errorf("anonconsensus: the stable source must stay correct")
		}
	}
	return nil
}

func (o *options) resolvedEnv() Environment {
	if o.env == 0 {
		return EnvES
	}
	return o.env
}

// WithEnv selects the synchrony environment (EnvES or EnvESS).
func WithEnv(env Environment) Option {
	return func(o *options) error {
		switch env {
		case EnvES, EnvESS:
			o.env = env
			return nil
		default:
			return fmt.Errorf("anonconsensus: unknown environment %d", int(env))
		}
	}
}

// WithGST sets the stabilization round (0 = stable from the start).
func WithGST(round int) Option {
	return func(o *options) error {
		if round < 0 {
			return fmt.Errorf("anonconsensus: negative GST %d", round)
		}
		o.gst = round
		return nil
	}
}

// WithSeed seeds the pre-stabilization adversary.
func WithSeed(seed int64) Option {
	return func(o *options) error {
		o.seed = seed
		return nil
	}
}

// WithStableSource names the process that is the eventual source (EnvESS
// only). It must not also appear in the crash schedule.
func WithStableSource(proc int) Option {
	return func(o *options) error {
		if proc < 0 {
			return fmt.Errorf("anonconsensus: negative stable source %d", proc)
		}
		o.stableSource = proc
		return nil
	}
}

// WithCrashes schedules crashes: process index to the round (≥ 1) at
// which it stops. It is a thin wrapper over the scenario plane — it sets
// Scenario.Crashes and composes with WithScenario's other dimensions
// (apply WithCrashes after WithScenario to override its crash schedule).
//
// Validation is eager: process indexes must be ≥ 0 and rounds ≥ 1, checked
// here; that every index fits the ensemble — and that at least one process
// survives (see ErrAllCrashed) — is checked when the instance spec is
// built, before anything runs. The map is copied.
func WithCrashes(crashes map[int]int) Option {
	return editScenario(func(s *Scenario) { s.Crashes = maps.Clone(crashes) })
}

// editScenario is the scenario options' shared body: apply edit to a copy of
// the configured scenario and keep it only if the one scenario validator
// accepts its n-independent structure.
func editScenario(edit func(*Scenario)) Option {
	return func(o *options) error {
		s := o.scenario
		edit(&s)
		if err := s.validate(0); err != nil {
			return err
		}
		o.scenario = s
		return nil
	}
}

// WithScenario sets the whole fault scenario — crash schedule, loss and
// duplication rates, partitions — replacing any previously configured
// scenario dimensions (including a WithCrashes schedule when s.Crashes is
// non-nil; a nil s.Crashes leaves crashes to WithCrashes). The scenario's
// hash-based fault draws are seeded by WithSeed, so identical specs
// produce identical fault schedules on every backend. The scenario is
// copied; n-independent structure is validated eagerly.
func WithScenario(s Scenario) Option {
	return editScenario(func(cur *Scenario) {
		c := s.clone()
		if c.Crashes == nil {
			c.Crashes = cur.Crashes
		}
		*cur = c
	})
}

// WithLoss sets the scenario's link-loss percentage (0–100): that fraction
// of deliveries, drawn deterministically from the run seed per (round,
// sender, receiver), never arrives. Loss deliberately breaks the model's
// reliable-broadcast assumption.
func WithLoss(pct int) Option {
	return editScenario(func(s *Scenario) { s.LossPct = pct })
}

// WithDuplication sets the scenario's link-duplication percentage (0–100):
// that fraction of deliveries arrives twice, exercising the framework's
// set-semantics deduplication.
func WithDuplication(pct int) Option {
	return editScenario(func(s *Scenario) { s.DupPct = pct })
}

// WithPartition appends a round-ranged partition to the scenario: for
// rounds in [from, until) the ring is split at cut into [0,cut) and
// [cut,n), and messages do not cross. until = 0 means the partition never
// heals. Partitions compose with each other and with WithLoss /
// WithDuplication / WithCrashes.
func WithPartition(from, until, cut int) Option {
	return editScenario(func(s *Scenario) {
		s.Partitions = append(slices.Clone(s.Partitions), Partition{From: from, Until: until, Cut: cut})
	})
}

// WithInterval sets the round-timer period of the real-time transports
// (live and TCP); the deterministic simulator ignores it.
func WithInterval(d time.Duration) Option {
	return func(o *options) error {
		if d <= 0 {
			return fmt.Errorf("anonconsensus: non-positive interval %v", d)
		}
		o.interval = d
		return nil
	}
}

// WithTimeout bounds a real-time instance run (live and TCP transports).
func WithTimeout(d time.Duration) Option {
	return func(o *options) error {
		if d <= 0 {
			return fmt.Errorf("anonconsensus: non-positive timeout %v", d)
		}
		o.timeout = d
		return nil
	}
}

// ReconnectPolicy governs how TCP-backend nodes respond to losing their
// hub connection: redial with exponential backoff and jitter, resuming
// the hub session from the replay cursor so no frame is lost or
// re-processed. The jitter schedule is derived deterministically from the
// run seed and the process index, so a chaos run replays under the same
// seed.
//
// The zero policy means "backend default" (a handful of attempts with
// interval-scaled backoff); MaxAttempts < 0 disables reconnection
// entirely, restoring fail-fast on connection loss. The sim and live
// transports have no network to lose and ignore the policy.
type ReconnectPolicy struct {
	// MaxAttempts bounds redials per outage. 0 means the backend default
	// (5); negative disables reconnection.
	MaxAttempts int
	// BaseDelay is the first backoff delay; 0 means the backend default
	// (2× the round interval, at least 20ms).
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth; 0 means the backend default
	// (1s).
	MaxDelay time.Duration
}

// WithReconnect sets the TCP backend's reconnect policy (see
// ReconnectPolicy). Reconnection is on by default; pass a policy with
// MaxAttempts < 0 to disable it.
func WithReconnect(p ReconnectPolicy) Option {
	return func(o *options) error {
		if p.BaseDelay < 0 || p.MaxDelay < 0 {
			return fmt.Errorf("anonconsensus: negative reconnect delay (base %v, max %v)", p.BaseDelay, p.MaxDelay)
		}
		if p.MaxDelay > 0 && p.BaseDelay > p.MaxDelay {
			return fmt.Errorf("anonconsensus: reconnect base delay %v exceeds max %v", p.BaseDelay, p.MaxDelay)
		}
		o.reconnect = p
		return nil
	}
}

// WithMaxRounds bounds a simulated instance run (sim transport); the
// default is 10·n+200.
func WithMaxRounds(rounds int) Option {
	return func(o *options) error {
		if rounds <= 0 {
			return fmt.Errorf("anonconsensus: non-positive max rounds %d", rounds)
		}
		o.maxRounds = rounds
		return nil
	}
}

// WithMaxInFlight sets how many instances a Node session runs
// concurrently; the default is 1, which preserves the historical
// strictly-sequential semantics. With k > 1 the node keeps up to k
// instances in flight on a worker pool while Propose/Wait/Forget/
// Decisions() keep their contracts: each instance still runs under its
// own seed and spec (per-instance determinism is untouched), and the
// Decisions() feed stays ordered per instance — an instance's Started,
// Decision and Done events are emitted in order by the one worker that
// runs it, though events of different in-flight instances interleave.
//
// Instances are dequeued in Propose order but, with k > 1, no longer
// finish in it. It is session-level: pass it to NewNode; per-Propose use
// has no effect on the already-sized pool.
func WithMaxInFlight(k int) Option {
	return func(o *options) error {
		if k < 1 {
			return fmt.Errorf("anonconsensus: max in-flight %d (must be ≥ 1)", k)
		}
		o.maxInFlight = k
		return nil
	}
}

// WithQueueDepth sets the capacity of a Node session's instance queue
// (the backlog between Propose and the worker pool); the default is 64.
// Without admission control a full queue blocks Propose until a worker
// drains it; under fast-reject admission (WithAdmission) a full queue
// returns ErrOverloaded instead. Session-level, like WithMaxInFlight.
func WithQueueDepth(depth int) Option {
	return func(o *options) error {
		if depth < 1 {
			return fmt.Errorf("anonconsensus: queue depth %d (must be ≥ 1)", depth)
		}
		o.queueDepth = depth
		return nil
	}
}

// WithAdmission puts a token-bucket admission controller in front of the
// Node's instance queue: Propose spends one token per instance, the
// bucket refills at rate tokens/second up to burst. When the bucket is
// empty — or the instance queue is full — Propose fast-rejects with an
// error wrapping ErrOverloaded, so an overloaded service sheds load
// instead of queueing without bound. Rejected proposals leave no trace:
// no events, no registered instance, and the ID stays free.
//
// Combine with WithAdmissionWait to block (context-aware) for a token
// instead of rejecting. The default is no admission control: Propose
// blocks on a full queue and never returns ErrOverloaded. Session-level,
// like WithMaxInFlight.
func WithAdmission(rate float64, burst int) Option {
	return func(o *options) error {
		if rate <= 0 {
			return fmt.Errorf("anonconsensus: non-positive admission rate %v", rate)
		}
		if burst < 1 {
			return fmt.Errorf("anonconsensus: admission burst %d (must be ≥ 1)", burst)
		}
		o.admitRate = rate
		o.admitBurst = burst
		return nil
	}
}

// WithAdmissionWait switches WithAdmission from fast-reject to blocking:
// Propose waits for a token (honouring its ctx and node shutdown) rather
// than returning ErrOverloaded, and then blocks on queue space as in the
// no-admission mode. Waiters race for tokens; there is no FIFO fairness
// guarantee. It has no effect without WithAdmission.
func WithAdmissionWait() Option {
	return func(o *options) error {
		o.admitWait = true
		return nil
	}
}

// WithParallelism bounds the worker pool RunBatch fans instances across;
// 0 (the default) means GOMAXPROCS. Results are byte-identical at any
// setting — the knob trades wall-clock for cores, never output; the same
// contract holds for ExploreConfig.Parallelism on the exploration plane.
// It is batch-level: RunBatch rejects it inside a BatchItem's Opts, and
// Node sessions ignore it (their concurrency knob is WithMaxInFlight).
func WithParallelism(workers int) Option {
	return func(o *options) error {
		if workers < 0 {
			return fmt.Errorf("anonconsensus: negative parallelism %d", workers)
		}
		o.parallelism = workers
		return nil
	}
}
