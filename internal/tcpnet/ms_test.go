package tcpnet

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"anonconsensus/internal/core"
	"anonconsensus/internal/giraf"
	"anonconsensus/internal/property"
	"anonconsensus/internal/rounddriver"
)

// msCell is one run of the MS sweep over MuxNodes.
type msCell struct {
	n   int
	ess bool
	// path is how the epoch is opened: "register" (every node's epoch
	// registered before any automaton starts, the way the transports
	// lease), "dial" (registered at DialMux, the JoinTCP path), or
	// "delay" (registered, on a hub that holds every forward 1.5 beats
	// or more during a pre-GST window, the tcp transport's hub path).
	path string
}

// runMSCell runs c on a hub of its own and returns what the run broke, or
// "": every property of the paper, Termination included, and MS, judged
// from what each automaton computed on.
func runMSCell(c msCell, beat time.Duration) string {
	var opts []HubOption
	if c.path == "delay" {
		until := time.Now().Add(6 * beat)
		opts = append(opts, WithForwardDelay(func(i int) time.Duration {
			if time.Now().After(until) {
				return 0
			}
			return 3*beat/2 + time.Duration(i)*beat
		}))
	}
	hub, err := NewHub("127.0.0.1:0", opts...)
	if err != nil {
		return err.Error()
	}
	defer hub.Close()
	ctx := context.Background()
	nodes := make([]*MuxNode, c.n)
	for i := range nodes {
		var epochs []uint64
		if c.path == "dial" {
			epochs = append(epochs, testEpoch)
		}
		m, err := DialMux(ctx, MuxConfig{HubAddr: hub.Addr()}, epochs...)
		if err == nil && c.path != "dial" {
			err = m.Register(testEpoch)
		}
		if err != nil {
			return fmt.Sprintf("node %d: %v", i, err)
		}
		defer m.Close()
		nodes[i] = m
	}
	props := core.DistinctProposals(c.n)
	rec := property.NewRecorder(func(i int) giraf.Automaton {
		if c.ess {
			return core.NewESS(props[i])
		}
		return core.NewES(props[i])
	})
	outs := make([]rounddriver.Outcome, c.n)
	errs := make([]error, c.n)
	var wg sync.WaitGroup
	for i, m := range nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i], errs[i] = m.RunInstance(ctx, testEpoch, InstanceRun{Automaton: rec.Automaton(i), Interval: beat, Timeout: 20 * time.Second})
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err.Error()
	}
	if err := property.CheckMS(&rec.Record, math.MaxInt); err != nil {
		return fmt.Sprintf("%v: %+v", err, outs)
	}
	if vs := property.Check(property.Run{Proposals: core.ProposalSet(props), Outcomes: rounddriver.Outcomes(outs), Promised: true}); len(vs) > 0 {
		return fmt.Sprintf("%v: %+v", vs, outs)
	}
	return ""
}

// TestMuxRunsKeepMS sweeps link-fault-free instances over MuxNodes on every
// way an epoch is opened: each must have a source in every round it
// computed (MS, an obligation of the plane: rounds end by add-then-get), and
// satisfy every property. The cells run concurrently, each on its own hub.
func TestMuxRunsKeepMS(t *testing.T) {
	const beat = 2 * time.Millisecond
	var cells []msCell
	for _, path := range []string{"register", "dial", "delay"} {
		for _, n := range []int{2, 3, 4} {
			for _, ess := range []bool{false, true} {
				cells = append(cells, msCell{n, ess, path})
			}
		}
	}
	failures := make([]string, len(cells))
	var wg sync.WaitGroup
	for i, c := range cells {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if msg := runMSCell(c, beat); msg != "" {
				failures[i] = fmt.Sprintf("%+v: %s", c, msg)
			}
		}()
	}
	wg.Wait()
	for _, f := range failures {
		if f != "" {
			t.Error(f)
		}
	}
}

// holdAt wraps an automaton: its Compute of round at closes entered and
// waits for gate before computing, and its driver drains nothing meanwhile;
// once it has computed, it closes left.
type holdAt struct {
	giraf.Automaton
	at                  int
	entered, gate, left chan struct{}
}

func newHoldAt(a giraf.Automaton, at int) *holdAt {
	return &holdAt{Automaton: a, at: at, entered: make(chan struct{}), gate: make(chan struct{}), left: make(chan struct{})}
}

func (h *holdAt) Compute(k int, in giraf.Inbox) (giraf.Payload, giraf.Decision) {
	if k != h.at {
		return h.Automaton.Compute(k, in)
	}
	close(h.entered)
	<-h.gate
	defer close(h.left)
	return h.Automaton.Compute(k, in)
}

// openGates closes the gates of the holds not yet opened.
func openGates(holds ...*holdAt) {
	for _, h := range holds {
		select {
		case <-h.gate:
		default:
			close(h.gate)
		}
	}
}

// TestMuxLateJoinerKeepsMS: a process that dials an epoch its two peers
// are already running is only a slow process, and runs round 0 on its
// first beat. The peers are held inside round 3 before the joiner dials,
// and released once it computes round 1. The hub makes the joiner's replay
// as late as it can be: it holds the joiner's stream until the joiner's
// first add is logged, and the replay is longer than one write pass
// (maxBatch frames of another epoch lead it), with the peers' frames held
// three beats behind that pass. The joiner's marks still follow the whole
// replay, so every round it computes has a source, and every property
// holds, Termination included. The order of events rests on gates, not on
// sleeps; the three-beat hold only widens the window a mark queued ahead
// of the replay would open.
func TestMuxLateJoinerKeepsMS(t *testing.T) {
	const beat = 10 * time.Millisecond
	for _, ess := range []bool{false, true} {
		if msg := runLateJoiner(ess, beat); msg != "" {
			t.Errorf("ess=%v: %s", ess, msg)
		}
	}
}

// runLateJoiner runs TestMuxLateJoinerKeepsMS's schedule and returns what
// the run broke, or "".
func runLateJoiner(ess bool, beat time.Duration) string {
	const (
		joiner      = 2 // the hub's third session
		fillerEpoch = testEpoch + 1
	)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// fillerLogged closes once the hub logged maxBatch filler frames, and
	// added once it logged the joiner's first add, with its mark queued.
	fillerLogged, added := make(chan struct{}), make(chan struct{})
	fillers := 0
	var once sync.Once
	delivered := 0 // data frames forwarded to the joiner's session
	hub, err := NewHub("127.0.0.1:0",
		WithForwardFault(func(epoch uint64) LinkFault {
			if epoch == fillerEpoch {
				if fillers++; fillers == maxBatch {
					close(fillerLogged)
				}
				return nil
			}
			return func(_, from, _ int) (drop, dup bool) {
				if from == joiner {
					once.Do(func() { close(added) })
				}
				return false, false
			}
		}),
		WithForwardDelay(func(i int) time.Duration {
			if i != joiner {
				return 0
			}
			delivered++
			switch delivered {
			case 1:
				select {
				case <-added:
				case <-ctx.Done():
				}
			case maxBatch + 1:
				return 3 * beat
			}
			return 0
		}))
	if err != nil {
		return err.Error()
	}
	defer hub.Close()
	defer cancel() // opens the delay gate before the hub closes

	var nodes [3]*MuxNode
	for i := range nodes[:2] {
		m, err := DialMux(ctx, MuxConfig{HubAddr: hub.Addr()})
		if err == nil {
			err = m.Register(testEpoch)
		}
		if err != nil {
			return fmt.Sprintf("peer %d: %v", i, err)
		}
		defer m.Close()
		nodes[i] = m
	}
	filler := &muxEpoch{id: fillerEpoch, lost: make(chan struct{})}
	for i := 0; i < maxBatch; i++ {
		if err := nodes[0].send(filler, valueEnvelope(1, int64(i))); err != nil {
			return err.Error()
		}
	}
	<-fillerLogged

	props := core.DistinctProposals(len(nodes))
	holds := make([]*holdAt, len(nodes))
	rec := property.NewRecorder(func(i int) giraf.Automaton {
		var a giraf.Automaton = core.NewES(props[i])
		if ess {
			a = core.NewESS(props[i])
		}
		if i == joiner {
			holds[i] = newHoldAt(a, 1)
			close(holds[i].gate) // signals round 1, holds nothing
		} else {
			holds[i] = newHoldAt(a, 3)
		}
		return holds[i]
	})
	outs := make([]rounddriver.Outcome, len(nodes))
	errs := make([]error, len(nodes))
	var wg sync.WaitGroup
	run := func(i int) {
		aut := rec.Automaton(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i], errs[i] = nodes[i].RunInstance(ctx, testEpoch, InstanceRun{Automaton: aut, Interval: beat, Timeout: 20 * time.Second})
		}()
	}
	run(0)
	run(1)
	<-holds[0].entered
	<-holds[1].entered
	m, err := DialMux(ctx, MuxConfig{HubAddr: hub.Addr()}, testEpoch)
	if err != nil {
		close(holds[0].gate)
		close(holds[1].gate)
		wg.Wait()
		return fmt.Sprintf("joiner: %v", err)
	}
	defer m.Close()
	nodes[joiner] = m
	run(joiner)
	<-holds[joiner].entered
	close(holds[0].gate)
	close(holds[1].gate)
	wg.Wait()

	if err := errors.Join(errs...); err != nil {
		return err.Error()
	}
	if err := property.CheckMS(&rec.Record, math.MaxInt); err != nil {
		return fmt.Sprintf("%v: %+v", err, outs)
	}
	if vs := property.Check(property.Run{Proposals: core.ProposalSet(props), Outcomes: rounddriver.Outcomes(outs), Promised: true}); len(vs) > 0 {
		return fmt.Sprintf("%v: %+v", vs, outs)
	}
	return ""
}

// TestMuxReleasedSessionKeepsMS: the hub releases a node's session in the
// middle of an epoch, and the node resumes as a fresh session — a late
// join. Node 2 reaches the hub through a proxy. Its peers are held inside
// round 3 and node 2 inside round 2 when its link goes down. The hub
// detaches the session; frames of another epoch push the detached queue
// past the high-water mark, and the hub releases it. Once node 2 has
// computed round 2 the link heals: node 2's redial gets a fresh session,
// whose replay is the live log, and its driver re-sends the add it had
// outstanding. Every round each process computes has a source (MS), and
// every property holds, Termination included, under ES and ESS.
func TestMuxReleasedSessionKeepsMS(t *testing.T) {
	const beat = 10 * time.Millisecond
	for _, ess := range []bool{false, true} {
		if msg := runReleased(t, ess, beat); msg != "" {
			t.Errorf("ess=%v: %s", ess, msg)
		}
	}
}

// runReleased runs TestMuxReleasedSessionKeepsMS's schedule and returns
// what the run broke, or "".
func runReleased(t *testing.T, ess bool, beat time.Duration) string {
	const (
		released    = 2 // the hub's third session
		fillerEpoch = testEpoch + 1
	)
	hub, err := NewHub("127.0.0.1:0", WithQueuePolicy(16, time.Millisecond))
	if err != nil {
		return err.Error()
	}
	defer hub.Close()
	proxy := newFlakyProxy(t, hub.Addr())
	ctx := context.Background()
	var nodes [3]*MuxNode
	for i := range nodes {
		cfg := MuxConfig{
			HubAddr:   hub.Addr(),
			Reconnect: ReconnectPolicy{MaxAttempts: 10000, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
		}
		if i == released {
			cfg.HubAddr = proxy.addr()
		}
		m, err := DialMux(ctx, cfg, testEpoch)
		if err != nil {
			return fmt.Sprintf("node %d: %v", i, err)
		}
		defer m.Close()
		nodes[i] = m
	}
	// session reports whether the hub holds the index-th session, and
	// whether it is attached.
	session := func(index int) (held, attached bool) {
		hub.mu.Lock()
		defer hub.mu.Unlock()
		for _, s := range hub.sessions {
			if s.index == index {
				return true, s.conn != nil
			}
		}
		return false, false
	}
	await := func(what string, done func() bool) string {
		for deadline := time.Now().Add(10 * time.Second); !done(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				return what + " never happened"
			}
		}
		return ""
	}

	props := core.DistinctProposals(len(nodes))
	holds := make([]*holdAt, len(nodes))
	rec := property.NewRecorder(func(i int) giraf.Automaton {
		var a giraf.Automaton = core.NewES(props[i])
		if ess {
			a = core.NewESS(props[i])
		}
		at := 3
		if i == released {
			at = 2
		}
		holds[i] = newHoldAt(a, at)
		return holds[i]
	})
	outs := make([]rounddriver.Outcome, len(nodes))
	errs := make([]error, len(nodes))
	var wg sync.WaitGroup
	for i, m := range nodes {
		aut := rec.Automaton(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i], errs[i] = m.RunInstance(ctx, testEpoch, InstanceRun{Automaton: aut, Interval: beat, Timeout: 20 * time.Second})
		}()
	}
	defer openGates(holds...) // on an early return
	for _, h := range holds {
		<-h.entered
	}

	proxy.blackout()
	if msg := await("the hub detaching node 2", func() bool { _, attached := session(released); return !attached }); msg != "" {
		return msg
	}
	filler := &muxEpoch{id: fillerEpoch, lost: make(chan struct{})}
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; ; i++ {
		if held, _ := session(released); !held {
			break
		}
		if time.Now().After(deadline) {
			return "the hub never released node 2's session"
		}
		if err := nodes[0].send(filler, valueEnvelope(1, int64(i))); err != nil {
			return err.Error()
		}
		time.Sleep(time.Millisecond)
	}
	openGates(holds[released])
	<-holds[released].left // its round-3 add goes out into the dead link
	proxy.heal()
	if msg := await("node 2 attaching a fresh session", func() bool { _, attached := session(len(nodes)); return attached }); msg != "" {
		return msg
	}
	openGates(holds...)
	wg.Wait()

	if err := errors.Join(errs...); err != nil {
		return err.Error()
	}
	if err := property.CheckMS(&rec.Record, math.MaxInt); err != nil {
		return fmt.Sprintf("%v: %+v", err, outs)
	}
	if vs := property.Check(property.Run{Proposals: core.ProposalSet(props), Outcomes: rounddriver.Outcomes(outs), Promised: true}); len(vs) > 0 {
		return fmt.Sprintf("%v: %+v", vs, outs)
	}
	if s := nodes[released].Stats(); s.Reconnects == 0 || s.ReplayedFrames == 0 {
		return fmt.Sprintf("node 2 stats %+v: want a reconnect with a replay", s)
	}
	return ""
}
