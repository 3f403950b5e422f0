package env

import "fmt"

// Delays is one round's schedule, read a sender row at a time: Row fills
// sender's delay to every receiver, indexed by receiver, into the caller's
// row of length n. Delay 0 is a timely delivery, d > 0 arrives d rounds
// late. The sender's own entry is filled like any other and ignored.
//
// A seeded policy draws a row when it is asked for, so the caller asks for
// every sender's row exactly once, in the order of the senders it passed
// to Schedule, before the next Schedule call. The draw order — senders as
// given, receivers ascending, the timely draw before the delay draw,
// nothing for the source's row — is part of the determinism contract
// (TestPolicyDelayGolden).
type Delays interface {
	Row(sender int, row []int32)
}

// Policy is an environment: it decides, per round, how late each envelope
// arrives. Schedule is called once per global round with the processes that
// actually broadcast a round-`round` envelope (alive and not halted); the
// Delays it returns is valid until the next call.
//
// Policies are stateful and single-run; build a fresh policy per run.
type Policy interface {
	Schedule(round int, senders []int, n int) Delays
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
// receivers and reads no row. UniformDelay is consulted after
// Schedule(round, …) and must agree with the rows that call returned.
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

// oneLateRow is the row of a round whose source is timely and every other
// envelope exactly one round late.
func oneLateRow(sender, src int, row []int32) {
	d := int32(1)
	if sender == src {
		d = 0
	}
	for r := range row {
		row[r] = d
	}
}

// ---------------------------------------------------------------------------
// Synchronous

// Synchronous delivers everything timely: every process is a source in
// every round. It trivially satisfies MS, ES and ESS. It is also its own
// rounds' Delays, and any policy's all-timely round.
type Synchronous struct{}

// Schedule implements Policy.
func (Synchronous) Schedule(round int, senders []int, n int) Delays { return Synchronous{} }

// Row implements Delays: every delay is 0.
func (Synchronous) Row(_ int, row []int32) { clear(row) }

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
	src int // the source of the round Schedule last set up
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

// Schedule implements Policy. The round's rows are m's own (Row).
func (m *MS) Schedule(round int, senders []int, n int) Delays {
	m.ensureRNG()
	if len(senders) == 0 {
		return Synchronous{}
	}
	switch {
	case m.Alternate:
		m.src = senders[0]
		if round%2 == 0 {
			m.src = senders[len(senders)-1]
		}
	case m.Shuffle:
		m.src = senders[m.rng.intn(len(senders))]
	default:
		m.src = senders[(round/m.period())%len(senders)]
	}
	m.note(round, m.src)
	return m
}

// Row implements Delays for the round Schedule last set up: the source's
// row is timely and draws nothing; every other row draws, per receiver,
// the ExtraTimelyPct draw and then the delay.
func (m *MS) Row(sender int, row []int32) {
	switch {
	case m.Alternate:
		oneLateRow(sender, m.src, row)
	case sender == m.src:
		clear(row)
	default:
		m.rng.fillRow(row, m.ExtraTimelyPct, 1, m.maxDelay())
	}
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
func (e *ES) Schedule(round int, senders []int, n int) Delays {
	if round >= e.GST {
		e.Pre.note(round, pickAny(senders))
		return Synchronous{}
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
	src  int // the source of the post-GST round Schedule last set up
}

// Schedule implements Policy: Pre's rounds before GST, e's own (Row) from
// GST on.
func (e *ESS) Schedule(round int, senders []int, n int) Delays {
	if round < e.GST {
		return e.Pre.Schedule(round, senders, n)
	}
	if e.post == nil {
		e.post = sourceFor(e.Pre.Seed, "ess-post")
	}
	e.src = e.StableSource
	if !contains(senders, e.src) {
		// The designated source stopped broadcasting (crashed or decided);
		// keep the run alive with some source so remaining processes can
		// finish. The checker flags this round if it matters.
		e.src = pickAny(senders)
	}
	e.Pre.note(round, e.src)
	return e
}

// Row implements Delays for the post-GST round Schedule last set up, in
// MS.Row's draw order over e's own stream.
func (e *ESS) Row(sender int, row []int32) {
	if sender == e.src {
		clear(row)
		return
	}
	e.post.fillRow(row, e.PostTimelyPct, 1, e.Pre.maxDelay())
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

func (a *Async) bounds() (lo, hi int) {
	lo, hi = a.MinDelay, a.MaxDelay
	if hi <= 0 {
		hi = 3
	}
	if lo > hi {
		panic(fmt.Sprintf("env: Async MinDelay %d > MaxDelay %d", lo, hi))
	}
	return lo, hi
}

// Schedule implements Policy. The round's rows are a's own (Row).
func (a *Async) Schedule(round int, senders []int, n int) Delays {
	if a.rng == nil {
		a.rng = sourceFor(a.Seed, "async-policy")
	}
	a.bounds() // rejects MinDelay > MaxDelay before any row is read
	return a
}

// Row implements Delays: one draw per receiver.
func (a *Async) Row(_ int, row []int32) {
	lo, hi := a.bounds()
	a.rng.fillRow(row, 0, lo, hi-lo+1)
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
	src       int // the source of the round Schedule last set up
}

// Schedule implements Policy. The round's rows are p's own (Row).
func (p *AlternatingMS) Schedule(round int, senders []int, n int) Delays {
	if !p.defaulted {
		if p.A == 0 && p.B == 0 {
			p.B = n - 1
		}
		p.defaulted = true
	}
	p.src = p.A
	if round%2 == 0 {
		p.src = p.B
	}
	if !contains(senders, p.src) {
		p.src = pickAny(senders)
	}
	p.note(round, p.src)
	return p
}

// Row implements Delays: the source is timely, everything else one late.
func (p *AlternatingMS) Row(sender int, row []int32) { oneLateRow(sender, p.src, row) }

// ---------------------------------------------------------------------------
// Fixed-matrix policy (for hand-built schedules in tests)

// Scripted replays an explicit delay schedule: Delays[round][sender][receiver].
// Missing entries default to Default (which defaults to 0).
type Scripted struct {
	Delays  map[int]map[int]map[int]int
	Default int

	cur map[int]map[int]int // Delays[round] of the round Schedule last set up
}

// Schedule implements Policy. The round's rows are s's own (Row).
func (s *Scripted) Schedule(round int, senders []int, n int) Delays {
	s.cur = s.Delays[round]
	return s
}

// Row implements Delays from the script.
func (s *Scripted) Row(sender int, row []int32) {
	script := s.cur[sender]
	for r := range row {
		d, ok := script[r]
		if !ok {
			d = s.Default
		}
		row[r] = int32(d)
	}
}
