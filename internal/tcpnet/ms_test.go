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
	// lease), "dial" (registered at DialMux, so it keeps its join grace),
	// or "delay" (registered, on a hub that holds every forward 1.5 beats
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
