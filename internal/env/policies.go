package env

import "fmt"

// DelayFn maps a (sender, receiver) pair to a delivery delay in rounds for
// one specific round's envelopes. Delay 0 is a timely delivery.
type DelayFn func(sender, receiver int) int

// Policy is an environment: it decides, per round, how late each envelope
// arrives. Schedule is called once per global round with the processes that
// actually broadcast a round-`round` envelope (alive and not halted).
//
// Policies are stateful and single-run; build a fresh policy per run.
type Policy interface {
	Schedule(round int, senders []int, n int) DelayFn
}

// SourceReporter is implemented by policies that designate a per-round
// source; the engine records the claim in the trace so tests can
// cross-check it against the environment checkers.
type SourceReporter interface {
	Source(round int) (pid int, ok bool)
}

// UniformReporter is implemented by policies that know, without probing
// every link, that a round gives every (sender, receiver) pair the same
// delay; the engine then schedules each broadcast once for all of its
// receivers. UniformDelay is consulted after Schedule(round, …) and must
// agree with the DelayFn that call returned.
type UniformReporter interface {
	UniformDelay(round int) (delay int, ok bool)
}

// sourceLog is embedded by policies to implement SourceReporter.
type sourceLog struct {
	src map[int]int
}

func (s *sourceLog) note(round, pid int) {
	if s.src == nil {
		s.src = make(map[int]int)
	}
	s.src[round] = pid
}

// Source implements SourceReporter.
func (s *sourceLog) Source(round int) (int, bool) {
	pid, ok := s.src[round]
	return pid, ok
}

// delayMatrix is one round's pre-drawn delays, row-major by sender: n×n
// int32s in one allocation. Rows of processes that did not broadcast stay
// zero. Pre-drawing keeps DelayFn pure, so the engine may probe a pair
// twice.
type delayMatrix struct {
	n int
	d []int32
}

func newDelayMatrix(n int) delayMatrix {
	return delayMatrix{n: n, d: make([]int32, n*n)}
}

// row returns sender s's delays, indexed by receiver.
func (m delayMatrix) row(s int) []int32 { return m.d[s*m.n : (s+1)*m.n] }

// delay is the matrix as a DelayFn.
func (m delayMatrix) delay(sender, receiver int) int {
	return int(m.d[sender*m.n+receiver])
}

// ---------------------------------------------------------------------------
// Synchronous

// Synchronous delivers everything timely: every process is a source in
// every round. It trivially satisfies MS, ES and ESS.
type Synchronous struct{}

// Schedule implements Policy.
func (Synchronous) Schedule(round int, senders []int, n int) DelayFn {
	return func(sender, receiver int) int { return 0 }
}

// UniformDelay implements UniformReporter: every round is timely.
func (Synchronous) UniformDelay(int) (int, bool) { return 0, true }

// ---------------------------------------------------------------------------
// Moving source (MS)

// MS implements the moving-source environment (§2.3): in every round at
// least one broadcaster (the source) has a timely link to everybody; all
// other envelopes are delayed randomly in [1, MaxDelay]. The source moves:
// it is drawn round-robin (or, with Shuffle, pseudo-randomly) over the
// current senders.
type MS struct {
	// Seed drives the pseudo-random delays (and source choice with Shuffle).
	Seed int64
	// MaxDelay bounds non-source delays; 0 defaults to 3.
	MaxDelay int
	// RotationPeriod keeps the same source for this many consecutive rounds
	// before moving on; 0 defaults to 1 (moves every round).
	RotationPeriod int
	// Shuffle draws the source pseudo-randomly instead of round-robin.
	Shuffle bool
	// Alternate flips the source between the first and last current sender
	// each round with all other envelopes exactly one round late — the
	// adversarial pattern that stalls Algorithm 2 indefinitely (the F3
	// construction). It takes precedence over Shuffle and RotationPeriod.
	// Use it as the pre-GST phase when stabilization time should matter.
	Alternate bool
	// ExtraTimely lets each non-source envelope independently be timely with
	// probability ExtraTimelyPct/100, making runs less pathological. Zero
	// means non-source envelopes are always late.
	ExtraTimelyPct int

	sourceLog
	rng *lazySource
}

func (m *MS) ensureRNG() {
	if m.rng == nil {
		m.rng = sourceFor(m.Seed, "ms-policy")
	}
}

func (m *MS) maxDelay() int {
	if m.MaxDelay <= 0 {
		return 3
	}
	return m.MaxDelay
}

func (m *MS) period() int {
	if m.RotationPeriod <= 0 {
		return 1
	}
	return m.RotationPeriod
}

// Schedule implements Policy.
func (m *MS) Schedule(round int, senders []int, n int) DelayFn {
	m.ensureRNG()
	if len(senders) == 0 {
		return func(int, int) int { return 0 }
	}
	if m.Alternate {
		src := senders[0]
		if round%2 == 0 {
			src = senders[len(senders)-1]
		}
		m.note(round, src)
		return func(sender, receiver int) int {
			if sender == src {
				return 0
			}
			return 1
		}
	}
	var src int
	if m.Shuffle {
		src = senders[m.rng.intn(len(senders))]
	} else {
		src = senders[(round/m.period())%len(senders)]
	}
	m.note(round, src)
	md := m.maxDelay()
	// The draw order — senders as given, receivers ascending, the timely
	// draw before the delay draw, nothing for the source's row — is part of
	// the determinism contract (TestPolicyDelayGolden).
	delays := newDelayMatrix(n)
	for _, s := range senders {
		if s == src {
			continue
		}
		row := delays.row(s)
		for r := range row {
			if m.ExtraTimelyPct > 0 && m.rng.intn(100) < m.ExtraTimelyPct {
				continue
			}
			row[r] = int32(1 + m.rng.intn(md))
		}
	}
	return delays.delay
}

// ---------------------------------------------------------------------------
// Eventually synchronous (ES)

// ES implements the eventually-synchronous environment (§2.3): it behaves
// like MS before round GST and delivers everything timely from round GST
// on. GST = 0 (or 1) makes the run synchronous from the start.
type ES struct {
	// GST is the stabilization round: all rounds ≥ GST are fully timely.
	GST int
	// Pre configures the pre-GST chaos (uses MS defaults when zero).
	Pre MS
}

// Schedule implements Policy.
func (e *ES) Schedule(round int, senders []int, n int) DelayFn {
	if round >= e.GST {
		e.Pre.note(round, pickAny(senders))
		return func(int, int) int { return 0 }
	}
	return e.Pre.Schedule(round, senders, n)
}

// Source implements SourceReporter.
func (e *ES) Source(round int) (int, bool) { return e.Pre.Source(round) }

// UniformDelay implements UniformReporter: every round from GST on is
// timely.
func (e *ES) UniformDelay(round int) (int, bool) { return 0, round >= e.GST }

// ---------------------------------------------------------------------------
// Eventually stable source (ESS)

// ESS implements the eventual-stable-source environment (§2.3): like MS
// before round GST; from round GST on the designated StableSource is the
// source in every round, while all other links may stay slow forever.
type ESS struct {
	// GST is the round from which the source stops moving.
	GST int
	// StableSource is the process that is the source from GST on. It must
	// stay correct and undecided long enough, or Schedule falls back to
	// another sender (tests detect this through the checker).
	StableSource int
	// Pre configures the pre-GST chaos.
	Pre MS
	// PostTimelyPct is the probability (in percent) that a non-source
	// envelope is timely after GST; 0 keeps all non-source links slow, 100
	// makes the run eventually synchronous.
	PostTimelyPct int

	post *lazySource
}

// Schedule implements Policy.
func (e *ESS) Schedule(round int, senders []int, n int) DelayFn {
	if round < e.GST {
		return e.Pre.Schedule(round, senders, n)
	}
	if e.post == nil {
		e.post = sourceFor(e.Pre.Seed, "ess-post")
	}
	src := e.StableSource
	if !contains(senders, src) {
		// The designated source stopped broadcasting (crashed or decided);
		// keep the run alive with some source so remaining processes can
		// finish. The checker flags this round if it matters.
		src = pickAny(senders)
	}
	e.Pre.note(round, src)
	md := e.Pre.maxDelay()
	delays := newDelayMatrix(n) // drawn in MS.Schedule's order
	for _, s := range senders {
		if s == src {
			continue
		}
		row := delays.row(s)
		for r := range row {
			if e.PostTimelyPct > 0 && e.post.intn(100) < e.PostTimelyPct {
				continue
			}
			row[r] = int32(1 + e.post.intn(md))
		}
	}
	return delays.delay
}

// Source implements SourceReporter.
func (e *ESS) Source(round int) (int, bool) { return e.Pre.Source(round) }

// ---------------------------------------------------------------------------
// Asynchronous

// Async provides no timeliness guarantee at all: every envelope of every
// process is delayed randomly in [MinDelay, MaxDelay]. With MinDelay ≥ 1 no
// round has a source, so even MS does not hold. Deliveries remain reliable.
type Async struct {
	Seed     int64
	MinDelay int // defaults to 0
	MaxDelay int // defaults to 3

	rng *lazySource
}

// Schedule implements Policy.
func (a *Async) Schedule(round int, senders []int, n int) DelayFn {
	if a.rng == nil {
		a.rng = sourceFor(a.Seed, "async-policy")
	}
	lo := a.MinDelay
	hi := a.MaxDelay
	if hi <= 0 {
		hi = 3
	}
	if lo > hi {
		panic(fmt.Sprintf("env: Async MinDelay %d > MaxDelay %d", lo, hi))
	}
	delays := newDelayMatrix(n)
	for _, s := range senders {
		row := delays.row(s)
		for r := range row {
			row[r] = int32(lo + a.rng.intn(hi-lo+1))
		}
	}
	return delays.delay
}

// ---------------------------------------------------------------------------
// Adversarial MS (the FLP-style schedule, experiment F3)

// AlternatingMS is the adversarial moving-source schedule used to witness
// that MS alone does not admit consensus (the paper's §5.3 corollary of
// FLP): the source alternates between two fixed processes every round and
// every other envelope is exactly one round late. Against Algorithm 2 with
// two distinct initial values this keeps the system undecided forever while
// the MS property holds in every round.
type AlternatingMS struct {
	// A and B are the two alternating sources (defaults: 0 and n-1).
	A, B int
	sourceLog
	defaulted bool
}

// Schedule implements Policy.
func (p *AlternatingMS) Schedule(round int, senders []int, n int) DelayFn {
	if !p.defaulted {
		if p.A == 0 && p.B == 0 {
			p.B = n - 1
		}
		p.defaulted = true
	}
	src := p.A
	if round%2 == 0 {
		src = p.B
	}
	if !contains(senders, src) {
		src = pickAny(senders)
	}
	p.note(round, src)
	return func(sender, receiver int) int {
		if sender == src {
			return 0
		}
		return 1
	}
}

// ---------------------------------------------------------------------------
// Fixed-matrix policy (for hand-built schedules in tests)

// Scripted replays an explicit delay schedule: Delays[round][sender][receiver].
// Missing entries default to Default (which defaults to 0).
type Scripted struct {
	Delays  map[int]map[int]map[int]int
	Default int
}

// Schedule implements Policy.
func (s *Scripted) Schedule(round int, senders []int, n int) DelayFn {
	perRound := s.Delays[round]
	return func(sender, receiver int) int {
		if row, ok := perRound[sender]; ok {
			if d, ok := row[receiver]; ok {
				return d
			}
		}
		return s.Default
	}
}
