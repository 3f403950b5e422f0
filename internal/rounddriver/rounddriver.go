// Package rounddriver is the one wall-clock GIRAF round loop (Algorithm 1:
// receive, end-of-round, broadcast) that every live plane runs: the
// in-process runtime (anonnet) and the TCP planes (tcpnet) build a Config
// and map the Outcome; nothing else off the simulator calls Proc.Receive
// or Proc.EndOfRound. The ES/ESS safety arguments assume every process
// runs the loop the same way, so its policy — join grace, crash schedule,
// round pacing, the detached rule — lives here exactly once.
//
// The package reads no clock and starts no goroutine: beats, envelopes and
// session loss reach it on channels and funcs the caller supplies, the join
// grace is a count of beats, and the core is a step machine (driver) that
// the package's tests drive on scripted schedules.
package rounddriver

import (
	"context"
	"time"

	"anonconsensus/internal/giraf"
	"anonconsensus/internal/property"
	"anonconsensus/internal/values"
)

// maxQuietBeats bounds the round-pacing gate (see driver.beat): after this
// many consecutive beats below the inbound-envelope threshold, a round
// runs anyway. It trades sole-survivor latency (each round then takes this
// many beats) for a much wider starvation window before a loaded box
// could let ES decide against a stale or solo view.
const maxQuietBeats = 8

// Config describes one process's run. Only Automaton, Beat and Send are
// required; a nil channel or func disables its feature.
type Config struct {
	// Automaton is the GIRAF automaton to drive.
	Automaton giraf.Automaton
	// Peers is the instance's process count n, which sets the pacing gate
	// to n−1 inbound envelopes per round. Zero or one — a caller that does
	// not know n — keeps the minimal gate (any one envelope).
	Peers int
	// CrashAfter stops the process at the first beat after it executed
	// that many end-of-rounds (simulated crash). Zero means never.
	CrashAfter int
	// OnRound, if non-nil, runs immediately before each end-of-round with
	// the round about to be computed, on the goroutine that called Run.
	OnRound func(round int)

	// Beat is the local round timer (a time.Ticker's C).
	Beat <-chan time.Time
	// Inbox delivers resolved, full-form envelopes from peers.
	Inbox <-chan giraf.Envelope
	// GraceBeats is the join grace: the first GraceBeats beats execute
	// nothing, whatever arrives, so a process that may be joining an
	// instance already under way consumes the replayed and early traffic
	// before round 0 (Initialize). With unknown participation it cannot
	// tell "I am alone" from "my peers' messages are still in flight"; the
	// grace is the pragmatic stand-in for the model's premise that all of Π
	// is present from round 1. Zero, for a process whose peers all start
	// with it, runs round 0 on the first beat.
	GraceBeats int
	// Lost, when non-nil, closes once the session to the broadcast
	// primitive is gone for good; Run then returns with Outcome.Lost set.
	Lost <-chan struct{}
	// Attached, when non-nil, reports whether the broadcast primitive is
	// reachable right now; beats while it is not execute nothing.
	Attached func() bool
	// Send broadcasts one end-of-round envelope. An error costs an
	// asynchronous round and nothing else: the next envelope re-carries
	// the cumulative state, and a dead session shows up on Lost.
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

// driver is the step machine under Run: receive and beat are the loop's
// two events.
type driver struct {
	cfg  Config
	proc *giraf.Proc
	// grace is the join-grace beats still to sit out.
	grace int
	// need is the gate's threshold, inbound the envelopes received since
	// the last executed round, quiet the consecutive beats the gate held.
	need, inbound, quiet int
	out                  Outcome
}

// newDriver returns a driver at round 0 whose first cfg.GraceBeats beats
// execute nothing.
func newDriver(cfg Config) *driver {
	need := cfg.Peers - 1
	if need < 1 {
		need = 1
	}
	return &driver{
		cfg:     cfg,
		proc:    giraf.NewProc(cfg.Automaton),
		grace:   cfg.GraceBeats,
		need:    need,
		inbound: need, // satisfied: round 0 runs on the first beat past the grace
	}
}

// receive delivers one peer envelope.
func (d *driver) receive(env giraf.Envelope) {
	d.proc.Receive(env)
	d.inbound++
}

// beat handles one timer beat and reports whether the run is over
// (decided or crashed).
//
// Round pacing: on a loaded box the round timer can outpace delivery, and
// wall-clock rounds outpacing delivery violates the ES premise the
// automata's safety rests on — a process that runs two beats while its
// peers' envelopes are in flight sees only its own value and can satisfy
// the decide guard against that starved view, or let a decided subset
// leave a straggler locked on a stale value. No plane echoes a sender's
// own envelopes, so inbound envelopes are a true peer-traffic signal: a
// beat only executes a round once roughly one envelope per peer arrived
// since the previous round (each peer broadcasts once per round), with a
// bounded silent-beat escape (maxQuietBeats) so crashed or halted peers
// cannot stall a survivor forever. Round 1 is exempt (inbound starts
// satisfied): nobody has broadcast yet, and the decide guards cannot fire
// against an empty WRITTENOLD.
func (d *driver) beat() bool {
	if d.grace > 0 {
		d.grace--
		return false // still consuming replayed / early traffic
	}
	if d.cfg.Attached != nil && !d.cfg.Attached() {
		// Do not execute rounds solo: a process that hears only itself
		// cannot distinguish "alone" from "cut off", and deciding on that
		// view would break agreement. The beat does not count as quiet
		// either — silence while detached says nothing about the peers.
		return false
	}
	if d.inbound < d.need {
		if d.quiet++; d.quiet < maxQuietBeats {
			return false
		}
	}
	d.inbound, d.quiet = 0, 0
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
		_ = d.cfg.Send(env) // see Config.Send for why the error is dropped
	}
	return false
}

// outcome returns the run's state so far.
func (d *driver) outcome() Outcome {
	out := d.out
	out.Rounds = d.proc.CurrentRound()
	return out
}

// Run drives cfg.Automaton until it decides, the crash schedule stops it,
// the session is lost, or ctx ends (which is not an error: it yields an
// undecided Outcome).
func Run(ctx context.Context, cfg Config) Outcome {
	d := newDriver(cfg)
	for {
		select {
		case <-ctx.Done():
			return d.outcome()
		case <-cfg.Lost:
			out := d.outcome()
			out.Lost = true
			return out
		case env := <-cfg.Inbox:
			d.receive(env)
		case <-cfg.Beat:
			if d.beat() {
				return d.outcome()
			}
		}
	}
}
