package anonconsensus

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"anonconsensus/internal/property"
	"anonconsensus/internal/values"
)

// violations judges decisions against the paper's properties; promised
// reports whether the environment promised Termination.
func violations(ds []Decision, proposals []Value, sc Scenario, promised bool) []*property.Violation {
	return property.Check(property.Run{
		Proposals: values.NewSet(toValues(proposals)...),
		Outcomes:  outcomes(ds),
		Scenario:  sc.toEnv(0),
		Promised:  promised,
	})
}

// unscheduledCrashes returns the processes reported crashed that sc never
// crashes. Termination excuses a crashed process, so a backend that lost a
// session, or dropped it silently, must not pass it off as a crash.
func unscheduledCrashes(ds []Decision, sc Scenario) []int {
	var procs []int
	for i, d := range ds {
		if _, scheduled := sc.Crashes[i]; d.Crashed && !scheduled {
			procs = append(procs, i)
		}
	}
	return procs
}

// conformanceScenarios are the matrix's fault rows for n = 4. Process 0,
// ESS's default stable source, is never crashed. JoinTCP processes share
// nothing but a hub address, so they cannot express a crash schedule or a
// link fault: every row but the fault-free one is n/a for the JoinTCP
// column, which runs only where join is set.
var conformanceScenarios = []struct {
	name string
	sc   Scenario
	join bool
}{
	{"fault-free", Scenario{}, true},
	{"crash-n-1", Scenario{Crashes: map[int]int{1: 2, 2: 2, 3: 2}}, false},
	{"loss-10", Scenario{LossPct: 10}, false},
	{"partition-healed", Scenario{Partitions: []Partition{{From: 1, Until: 4, Cut: 2}}}, false},
	{"partition-never", Scenario{Partitions: []Partition{{From: 1, Cut: 2}}}, false},
}

// conformanceCell is one run of the matrix.
type conformanceCell struct {
	name      string
	proposals []Value
	sc        Scenario
	res       *Result
	err       error
	promised  bool
}

// TestConformance holds every backend to the paper's properties, judged
// once by package property: Agreement (where the scenario keeps reliable
// broadcast), Validity, and Termination where the environment promises it.
// Columns are the sim, live, tcp and tcp-mux transports plus three JoinTCP
// processes on one hub; rows are ES and ESS, GST 0 and 6, the scenarios
// above and two seeds. Every cell runs concurrently at its backend's
// default interval with n = 4 distinct proposals.
func TestConformance(t *testing.T) {
	proposals := []Value{NumValue(1), NumValue(2), NumValue(3), NumValue(4)}
	var cells []*conformanceCell
	var wg sync.WaitGroup
	start := func(name string, proposals []Value, sc Scenario, run func() (*Result, error)) {
		c := &conformanceCell{name: name, proposals: proposals, sc: sc, promised: sc.toEnv(0).LinkFaultFree()}
		cells = append(cells, c)
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.res, c.err = run()
		}()
	}
	for _, tr := range []Transport{NewSimTransport(), NewLiveTransport(), NewTCPTransport(), NewTCPMuxTransport()} {
		t.Cleanup(func() { _ = tr.Close() })
		for _, e := range []Environment{EnvES, EnvESS} {
			for _, gst := range []int{0, 6} {
				for _, row := range conformanceScenarios {
					for seed := int64(1); seed <= 2; seed++ {
						name := fmt.Sprintf("%s/%s/gst%d/%s/seed%d", tr.Name(), e, gst, row.name, seed)
						spec := InstanceSpec{ID: name, Proposals: proposals, Env: e, GST: gst, Seed: seed, Scenario: row.sc}
						start(name, proposals, row.sc, func() (*Result, error) { return tr.Run(context.Background(), spec) })
					}
				}
			}
		}
	}
	for _, e := range []Environment{EnvES, EnvESS} {
		for _, row := range conformanceScenarios {
			if row.join {
				start(fmt.Sprintf("join/%s/%s", e, row.name), proposals[:3], row.sc, func() (*Result, error) {
					return joinTCPRun(proposals[:3], WithEnv(e))
				})
			}
		}
	}
	wg.Wait()
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			if c.err != nil {
				t.Fatal(c.err)
			}
			if vs := violations(c.res.Decisions, c.proposals, c.sc, c.promised); len(vs) > 0 {
				t.Errorf("%v: %+v", vs, c.res.Decisions)
			}
			if ps := unscheduledCrashes(c.res.Decisions, c.sc); len(ps) > 0 {
				t.Errorf("processes %v crashed outside the schedule: %+v", ps, c.res.Decisions)
			}
		})
	}
}

// joinTCPRun runs one JoinTCP process per proposal on a fresh hub and
// collects their decisions, process i at index i.
func joinTCPRun(proposals []Value, opts ...Option) (*Result, error) {
	hub, err := NewTCPHub("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer hub.Close()
	res := &Result{Decisions: make([]Decision, len(proposals))}
	errs := make([]error, len(proposals))
	var wg sync.WaitGroup
	for i, p := range proposals {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res.Decisions[i], errs[i] = JoinTCP(context.Background(), hub.Addr(), p, opts...)
			res.Decisions[i].Proc = i
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}
