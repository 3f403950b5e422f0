// Package rounddriver is the one wall-clock GIRAF round loop (Algorithm 1:
// receive, end-of-round, broadcast, paced by Algorithm 5's add-then-get)
// that every live plane runs: the in-process runtime (anonnet) and the TCP
// planes (tcpnet) build a Config and map the Outcome; nothing else off the
// simulator calls Proc.Receive or Proc.EndOfRound. The ES/ESS safety arguments assume every process
// runs the loop the same way, so its policy — crash schedule, round
// pacing, the detached rule — lives here exactly once. A plane's one
// obligation beyond carrying envelopes is the mark (see Mark).
//
// Every plane hands a process its envelopes through one inbox type,
// Mailbox, which neither blocks nor drops.
//
// The package reads no clock and starts no goroutine: beats and session
// loss reach it on channels and funcs the caller supplies, envelopes in a
// Mailbox the caller fills, and the core is a step machine (driver) that
// the package's tests drive on scripted schedules.
package rounddriver

import (
	"context"
	"sync"
	"time"

	"anonconsensus/internal/giraf"
	"anonconsensus/internal/property"
	"anonconsensus/internal/values"
)

// Config describes one process's run. Only Automaton, Beat and Send are
// required; a nil channel or func disables its feature.
type Config struct {
	// Automaton is the GIRAF automaton to drive.
	Automaton giraf.Automaton
	// CrashAfter stops the process at the first beat after it executed
	// that many end-of-rounds (simulated crash). Zero means never.
	CrashAfter int
	// OnRound, if non-nil, runs immediately before each end-of-round with
	// the round about to be computed, on the goroutine that called Run.
	OnRound func(round int)

	// Beat is the local round timer (a time.Ticker's C).
	Beat <-chan time.Time
	// Inbox holds resolved, full-form envelopes from peers and this
	// process's own marks (see Mark), in the order the plane's log
	// delivered them to it.
	Inbox *Mailbox
	// Lost, when non-nil, closes once the run's broadcast log is gone for
	// good (the session died, or the primitive restarted without the adds
	// that had completed); Run then returns with Outcome.Lost set.
	Lost <-chan struct{}
	// Attachment, when non-nil, names the current attachment to the
	// broadcast primitive: 0 while it is unreachable, and otherwise a
	// number that changes at every re-attachment. Beats while it is 0
	// execute nothing. Nil means one attachment for the whole run.
	Attachment func() uint64
	// Send broadcasts one end-of-round envelope: the round's add. An add
	// whose Send failed, or that was outstanding when the attachment
	// changed, may never complete, so the next attached beat sends it
	// again; a duplicate add is harmless, since inboxes deduplicate. A
	// dead session shows up on Lost.
	Send func(giraf.Envelope) error
}

// Outcome is how one process's run ended.
type Outcome struct {
	Decided  bool
	Decision values.Value
	// DecidedRound is the round the process computed when deciding.
	DecidedRound int
	// Rounds is the number of end-of-rounds the process executed.
	Rounds int
	// Crashed reports whether the crash schedule stopped it.
	Crashed bool
	// Lost reports whether the run ended because Config.Lost closed.
	Lost bool
}

// Outcomes converts outcomes to the property checker's form, the one place
// that does; a session lost for good counts as crashed.
func Outcomes(outs []Outcome) []property.Outcome {
	ps := make([]property.Outcome, len(outs))
	for i, o := range outs {
		ps[i] = property.Outcome{Decided: o.Decided, Value: o.Decision, Round: o.DecidedRound, Crashed: o.Crashed || o.Lost}
	}
	return ps
}

// Mark returns the mark of a round-k add: the plane's report, placed in
// this process's own delivery stream, that its round-k envelope is in the
// broadcast log and that every entry the log delivered to it before that
// point is already in its inbox. A mark is an envelope that carries no
// payload; no peer envelope is one, because a process's end-of-round
// envelope always carries its own payload.
func Mark(round int) giraf.Envelope { return giraf.Envelope{Round: round} }

// IsMark reports whether env is a mark (see Mark).
func IsMark(env giraf.Envelope) bool { return len(env.Payloads) == 0 && len(env.Refs) == 0 }

// Mailbox is a process's inbox: a FIFO of envelopes with no bound, filled
// by any number of goroutines and drained by one consumer. Put never
// blocks and never drops. A dropped envelope would break the model's
// reliable broadcast (a late one is only asynchrony), and a dropped mark
// would hold its round forever; a Put that waits for room would stall the
// plane's other receivers behind one busy process. No bound is needed: a
// mailbox holds at most its own run's or epoch's traffic, and the plane
// stops putting when the run ends or the epoch is unregistered.
type Mailbox struct {
	mu    sync.Mutex
	queue []giraf.Envelope
	// ready holds a signal while the queue may be non-empty.
	ready chan struct{}
	// spare is the buffer the consumer hands back at each Drain.
	spare []giraf.Envelope
}

// NewMailbox returns an empty mailbox.
func NewMailbox() *Mailbox { return &Mailbox{ready: make(chan struct{}, 1)} }

// Put appends env to the mailbox.
func (mb *Mailbox) Put(env giraf.Envelope) {
	mb.mu.Lock()
	mb.queue = append(mb.queue, env)
	mb.mu.Unlock()
	select {
	case mb.ready <- struct{}{}:
	default:
	}
}

// Drain hands everything put so far to receive, in Put order. A mailbox
// has one consumer: the Run it is configured on, or whoever reads it
// without one. A nil mailbox holds nothing.
func (mb *Mailbox) Drain(receive func(giraf.Envelope)) {
	if mb == nil {
		return
	}
	mb.mu.Lock()
	batch := mb.queue
	mb.queue = mb.spare
	mb.mu.Unlock()
	for i, env := range batch {
		receive(env)
		batch[i] = giraf.Envelope{} // release the payloads
	}
	mb.spare = batch[:0]
}

// driver is the step machine under Run: receive and beat are the loop's
// two events.
type driver struct {
	cfg  Config
	proc *giraf.Proc
	// add is the last end-of-round envelope broadcast, pending whether its
	// mark is still outstanding, and on the attachment it was last sent on
	// (0: that send failed).
	add     giraf.Envelope
	pending bool
	on      uint64
	out     Outcome
}

// newDriver returns a driver at round 0.
func newDriver(cfg Config) *driver {
	return &driver{cfg: cfg, proc: giraf.NewProc(cfg.Automaton)}
}

// receive delivers one peer envelope or one of this process's marks.
func (d *driver) receive(env giraf.Envelope) {
	if !IsMark(env) {
		d.proc.Receive(env)
		return
	}
	// A mark of an earlier round is the echo of an add sent twice.
	if d.pending && env.Round == d.add.Round {
		d.pending = false
	}
}

// beat handles one timer beat and reports whether the run is over
// (decided or crashed).
//
// Round pacing is the paper's add-then-get (§5, Algorithm 5): the
// end-of-round envelope of round k is the process's round-k add, and a
// beat may end round k only once that add's mark arrived. The plane
// delivers the mark behind every entry its log held before the add, and
// the log's first round-k entry is among them, so by Theorem 4 the first
// process whose add completes is a source of round k: every process that
// ends round k has received its envelope. No count of peers enters the
// rule, so a crashed or halted peer cannot stall a survivor, and a process
// alone runs one round per beat. Round 0 (Initialize) has no add to wait
// for and reads no inbox, so it runs on the first attached beat: a process
// that starts late is only a slow one, since the first round-k add is a
// source of round k whoever added it.
func (d *driver) beat() bool {
	on := uint64(1)
	if d.cfg.Attachment != nil {
		on = d.cfg.Attachment()
	}
	if on == 0 {
		// Do not execute rounds solo: a process that hears only itself
		// cannot distinguish "alone" from "cut off". No add completes
		// while detached anyway.
		return false
	}
	if d.pending {
		if d.on != on {
			d.send(on) // the add may never complete where it was sent
		}
		return false
	}
	if d.cfg.CrashAfter > 0 && d.proc.CurrentRound() >= d.cfg.CrashAfter {
		d.out.Crashed = true
		return true
	}
	computing := d.proc.CurrentRound()
	if d.cfg.OnRound != nil {
		d.cfg.OnRound(computing)
	}
	env, ok := d.proc.EndOfRound()
	if d.proc.Halted() {
		d.out.Decided = true
		d.out.Decision = d.proc.Decision().Value
		d.out.DecidedRound = computing
		return true
	}
	if ok {
		d.add, d.pending = env, true
		d.send(on)
	}
	return false
}

// send broadcasts the outstanding add on attachment on.
func (d *driver) send(on uint64) {
	d.on = on
	if d.cfg.Send(d.add) != nil {
		d.on = 0
	}
}

// outcome returns the run's state so far.
func (d *driver) outcome() Outcome {
	out := d.out
	out.Rounds = d.proc.CurrentRound()
	return out
}

// Run drives cfg.Automaton until it decides, the crash schedule stops it,
// the session is lost, or ctx ends (which is not an error: it yields an
// undecided Outcome). It drains cfg.Inbox whenever something was put, and
// once more before each beat, so a beat sees everything put before it.
func Run(ctx context.Context, cfg Config) Outcome {
	d := newDriver(cfg)
	var ready <-chan struct{}
	if cfg.Inbox != nil {
		ready = cfg.Inbox.ready
	}
	for {
		select {
		case <-ctx.Done():
			return d.outcome()
		case <-cfg.Lost:
			out := d.outcome()
			out.Lost = true
			return out
		case <-ready:
			cfg.Inbox.Drain(d.receive)
		case <-cfg.Beat:
			cfg.Inbox.Drain(d.receive)
			if d.beat() {
				return d.outcome()
			}
		}
	}
}
