// Package msemu implements Algorithm 5: emulating the MS (moving-source)
// environment on top of a weak-set.
//
// Each process loops: end-of-round → add the produced envelope ⟨M, k⟩ to
// the shared weak-set → get the weak-set → deliver every not-yet-delivered
// envelope → next end-of-round. Theorem 4: in every round, the first
// process to complete its add is a source — everybody else starts its get
// only after finishing its own add, so the get returns the first adder's
// envelope.
//
// Together with Proposition 2 (weak-sets from registers) this imports the
// FLP impossibility into the MS environment: if consensus were solvable in
// MS, it would be solvable from registers alone.
//
// The emulator runs real goroutines against any weakset.WeakSet (the
// linearizable in-memory one, or the register-based constructions — in
// particular over an ABD cluster, making the whole stack message-passing).
package msemu

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"anonconsensus/internal/giraf"
	"anonconsensus/internal/ordered"
	"anonconsensus/internal/property"
	"anonconsensus/internal/values"
	"anonconsensus/internal/weakset"
)

// PayloadCodec serializes automaton payloads into weak-set values and back.
// The emulation is generic over any automaton whose payloads round-trip.
type PayloadCodec interface {
	Encode(p giraf.Payload) values.Value
	Decode(v values.Value) (giraf.Payload, error)
}

// encodeEnvelope packs ⟨M, k⟩ into one weak-set value. Identical envelopes
// from anonymous processes collapse into one weak-set element, which is
// exactly the broadcast semantics of the model.
func encodeEnvelope(c PayloadCodec, env giraf.Envelope) values.Value {
	var b strings.Builder
	fmt.Fprintf(&b, "envl!%d!", env.Round)
	for _, p := range env.Payloads {
		enc := string(c.Encode(p))
		fmt.Fprintf(&b, "%d:%s", len(enc), enc)
	}
	return values.Value(b.String())
}

// decodeEnvelope unpacks a value produced by encodeEnvelope.
func decodeEnvelope(c PayloadCodec, v values.Value) (giraf.Envelope, error) {
	s := string(v)
	if !strings.HasPrefix(s, "envl!") {
		return giraf.Envelope{}, fmt.Errorf("msemu: %q is not an envelope", s)
	}
	rest := s[len("envl!"):]
	bang := strings.IndexByte(rest, '!')
	if bang < 0 {
		return giraf.Envelope{}, fmt.Errorf("msemu: truncated envelope %q", s)
	}
	round, err := strconv.Atoi(rest[:bang])
	if err != nil {
		return giraf.Envelope{}, fmt.Errorf("msemu: bad round in %q: %w", s, err)
	}
	rest = rest[bang+1:]
	env := giraf.Envelope{Round: round}
	for len(rest) > 0 {
		colon := strings.IndexByte(rest, ':')
		if colon < 0 {
			return giraf.Envelope{}, fmt.Errorf("msemu: truncated payload list in %q", s)
		}
		n, err := strconv.Atoi(rest[:colon])
		if err != nil || n < 0 || colon+1+n > len(rest) {
			return giraf.Envelope{}, fmt.Errorf("msemu: corrupt payload length in %q", s)
		}
		p, err := c.Decode(values.Value(rest[colon+1 : colon+1+n]))
		if err != nil {
			return giraf.Envelope{}, fmt.Errorf("msemu: decoding payload: %w", err)
		}
		env.Payloads = append(env.Payloads, p)
		rest = rest[colon+1+n:]
	}
	return env, nil
}

// RoundView is what one process had in its round-k inbox when it executed
// compute(k), keyed by payload key — the raw material for checking the MS
// property on the emulated environment.
type RoundView struct {
	Proc  int
	Round int
	// Inbox holds the payload keys present at compute time.
	Inbox map[string]bool
	// OwnPayload is the payload key this process produced for round k.
	OwnPayload string
}

// Config describes an emulation run.
type Config struct {
	// N is the number of processes (goroutines).
	N int
	// Automaton builds process i's automaton.
	Automaton func(i int) giraf.Automaton
	// Codec serializes the automaton's payloads.
	Codec PayloadCodec
	// Set is the shared weak-set substrate.
	Set weakset.WeakSet
	// SetFor, if non-nil, overrides Set with a per-process front-end to the
	// same logical weak-set — required by single-writer constructions like
	// Proposition 2, where each process must add through its own handle.
	SetFor func(i int) weakset.WeakSet
	// MaxRounds stops each process after this many rounds.
	MaxRounds int
}

// setFor resolves the weak-set front-end for process i.
func (c *Config) setFor(i int) weakset.WeakSet {
	if c.SetFor != nil {
		return c.SetFor(i)
	}
	return c.Set
}

// Result is the outcome of an emulation run.
type Result struct {
	// Views holds one RoundView per (process, computed round).
	Views []RoundView
	// Outcomes holds process i's decision at index i in the property
	// checker's form; a process stopped by an error counts as crashed.
	Outcomes []property.Outcome
	// Errs holds per-process failures (weak-set errors, codec errors).
	Errs []error
}

// Run executes Algorithm 5: N goroutines drive their GIRAF processes
// through MaxRounds rounds over the shared weak-set.
func Run(cfg Config) (*Result, error) {
	switch {
	case cfg.N <= 0:
		return nil, fmt.Errorf("msemu: N = %d", cfg.N)
	case cfg.Automaton == nil, cfg.Codec == nil, cfg.Set == nil && cfg.SetFor == nil:
		return nil, fmt.Errorf("msemu: Automaton, Codec and Set (or SetFor) are all required")
	case cfg.MaxRounds <= 0:
		return nil, fmt.Errorf("msemu: MaxRounds = %d", cfg.MaxRounds)
	}
	res := &Result{Outcomes: make([]property.Outcome, cfg.N)}
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	for i := 0; i < cfg.N; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			views, dec, err := runProcess(cfg, i)
			mu.Lock()
			defer mu.Unlock()
			res.Views = append(res.Views, views...)
			res.Outcomes[i] = property.Outcome{Decided: dec.Decided, Value: dec.Value, Crashed: err != nil}
			if err != nil {
				res.Errs = append(res.Errs, fmt.Errorf("process %d: %w", i, err))
			}
		}()
	}
	wg.Wait()
	return res, nil
}

// runProcess is Algorithm 5's per-process loop.
func runProcess(cfg Config, id int) ([]RoundView, giraf.Decision, error) {
	proc := giraf.NewProc(cfg.Automaton(id))
	set := cfg.setFor(id)
	delivered := make(map[values.Value]bool)
	var views []RoundView

	for round := 0; round <= cfg.MaxRounds; round++ {
		// Snapshot the inbox of the round about to be computed.
		if k := proc.CurrentRound(); k > 0 {
			view := RoundView{Proc: id, Round: k, Inbox: make(map[string]bool)}
			for _, p := range proc.Round(k) {
				view.Inbox[p.PayloadKey()] = true
			}
			if own := proc.LastOwnPayload(); own != nil {
				view.OwnPayload = own.PayloadKey()
			}
			views = append(views, view)
		}
		env, ok := proc.EndOfRound()
		if !ok {
			return views, proc.Decision(), nil // decided and halted
		}
		// Algorithm 5 line 5: addS(⟨m, k⟩).
		if err := set.Add(encodeEnvelope(cfg.Codec, env)); err != nil {
			return views, giraf.Decision{}, fmt.Errorf("weak-set add: %w", err)
		}
		// Lines 6–8: deliver every new envelope from getS.
		snapshot, err := set.Get()
		if err != nil {
			return views, giraf.Decision{}, fmt.Errorf("weak-set get: %w", err)
		}
		for _, raw := range snapshot.Sorted() {
			if delivered[raw] {
				continue
			}
			delivered[raw] = true
			recv, err := decodeEnvelope(cfg.Codec, raw)
			if err != nil {
				return views, giraf.Decision{}, err
			}
			proc.Receive(recv)
		}
	}
	return views, proc.Decision(), nil
}

// CheckMS verifies the moving-source property on the emulated run: for
// every round in which at least one process computed, some process's own
// round payload was present in every computing process's inbox (the
// payload-containment form of a timely link — footnote 2 of the paper). The
// error names the smallest violating round.
func (r *Result) CheckMS() error {
	type roundInfo struct {
		inboxes []map[string]bool
		owns    map[string]bool
	}
	rounds := make(map[int]*roundInfo)
	for _, v := range r.Views {
		ri := rounds[v.Round]
		if ri == nil {
			ri = &roundInfo{owns: make(map[string]bool)}
			rounds[v.Round] = ri
		}
		ri.inboxes = append(ri.inboxes, v.Inbox)
		if v.OwnPayload != "" {
			ri.owns[v.OwnPayload] = true
		}
	}
	for _, round := range ordered.Keys(rounds) {
		ri := rounds[round]
		found := false
		for own := range ri.owns {
			inAll := true
			for _, inbox := range ri.inboxes {
				if !inbox[own] {
					inAll = false
					break
				}
			}
			if inAll {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("msemu: emulated MS violated in round %d: no payload reached every inbox", round)
		}
	}
	return nil
}
