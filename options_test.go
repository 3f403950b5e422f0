package anonconsensus

import (
	"context"
	"reflect"
	"testing"
	"time"

	"anonconsensus/internal/core"
	"anonconsensus/internal/env"
	"anonconsensus/internal/sim"
)

func TestOptionValidation(t *testing.T) {
	bad := []struct {
		name string
		opts []Option
	}{
		{"crashed stable source", []Option{
			WithEnv(EnvESS), WithStableSource(1), WithCrashes(map[int]int{1: 3}),
		}},
		{"unknown env", []Option{WithEnv(Environment(42))}},
		{"negative gst", []Option{WithGST(-1)}},
		{"negative stable source", []Option{WithStableSource(-2)}},
		{"negative crash round", []Option{WithCrashes(map[int]int{0: -1})}},
		{"zero crash round", []Option{WithCrashes(map[int]int{0: 0})}},
		{"zero interval", []Option{WithInterval(0)}},
		{"zero timeout", []Option{WithTimeout(0)}},
		{"zero max rounds", []Option{WithMaxRounds(0)}},
		{"negative reconnect delay", []Option{WithReconnect(ReconnectPolicy{BaseDelay: -time.Second})}},
		{"reconnect base over max", []Option{WithReconnect(ReconnectPolicy{BaseDelay: 2 * time.Second, MaxDelay: time.Second})}},
		{"nil option", []Option{nil}},
	}
	for _, tt := range bad {
		t.Run(tt.name, func(t *testing.T) {
			node, err := NewNode(NewSimTransport(), tt.opts...)
			if err == nil {
				node.Close()
				t.Error("invalid option set accepted")
			}
		})
	}
	if _, err := NewNode(nil); err == nil {
		t.Error("nil transport accepted")
	}
}

func TestOptionValidationAtPropose(t *testing.T) {
	node, err := NewNode(NewSimTransport(), WithEnv(EnvESS), WithStableSource(5))
	if err != nil {
		t.Fatal(err) // source index range is only checkable per instance
	}
	defer node.Close()
	// Three proposals: stable source 5 is out of range.
	if err := node.Propose(context.Background(), "bad", props(1, 2, 3)); err == nil {
		t.Error("out-of-range stable source accepted")
	}
	// Crash schedule naming a process outside the ensemble.
	if err := node.Propose(context.Background(), "bad2", props(1, 2, 3),
		WithEnv(EnvES), WithCrashes(map[int]int{7: 1})); err == nil {
		t.Error("out-of-range crash pid accepted")
	}
	// No proposals at all.
	if err := node.Propose(context.Background(), "bad3", nil); err == nil {
		t.Error("empty proposal list accepted")
	}
	// Invalid value.
	if err := node.Propose(context.Background(), "bad4", []Value{""}); err == nil {
		t.Error("invalid proposal accepted")
	}
}

// TestSimTransportMatchesDirectCorePath is the reference the public path is
// held to: Node.Run on NewSimTransport must produce results identical to
// driving core.RunES/RunESS directly, field for field, on fixed seeds.
func TestSimTransportMatchesDirectCorePath(t *testing.T) {
	cases := []directCase{
		{proposals: props(1, 2, 3), env: EnvES, gst: 6, seed: 1},
		{proposals: props(5, 6, 7, 8), env: EnvESS, gst: 8, stableSource: 2, seed: 3, maxRounds: 600},
		{proposals: props(1, 2, 3, 4), env: EnvES, gst: 8, seed: 42, crashes: map[int]int{0: 3}},
	}
	for _, c := range cases {
		opts := []Option{WithEnv(c.env), WithGST(c.gst), WithStableSource(c.stableSource), WithSeed(c.seed), WithCrashes(c.crashes)}
		if c.maxRounds > 0 {
			opts = append(opts, WithMaxRounds(c.maxRounds))
		}
		got, err := RunOnceForTest(NewSimTransport(), c.proposals, opts...)
		if err != nil {
			t.Fatal(err)
		}
		want, err := directCoreRun(c)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("sim transport diverged from the direct core path:\n got %+v\nwant %+v", got, want)
		}
	}
}

// directCase is one fixed-seed run description for directCoreRun.
type directCase struct {
	proposals    []Value
	env          Environment
	gst          int
	stableSource int
	seed         int64
	crashes      map[int]int
	maxRounds    int
}

// directCoreRun drives internal/core directly — policy, RunES/RunESS and
// the status-to-Decision mapping written out by hand — bypassing Node,
// options, InstanceSpec and the sim transport.
func directCoreRun(c directCase) (*Result, error) {
	var policy env.Policy
	if c.env == EnvESS {
		policy = &env.ESS{GST: c.gst, StableSource: c.stableSource, Pre: env.MS{Seed: c.seed}}
	} else {
		policy = &env.ES{GST: c.gst, Pre: env.MS{Seed: c.seed}}
	}
	opts := core.RunOpts{Policy: policy, MaxRounds: c.maxRounds}
	if len(c.crashes) > 0 {
		opts.Scenario = &env.Scenario{Crashes: c.crashes}
	}
	var (
		res *sim.Result
		err error
	)
	if c.env == EnvESS {
		res, err = core.RunESS(toValues(c.proposals), opts)
	} else {
		res, err = core.RunES(toValues(c.proposals), opts)
	}
	if err != nil {
		return nil, err
	}
	out := &Result{Rounds: res.Rounds}
	for i, st := range res.Statuses {
		out.Decisions = append(out.Decisions, Decision{
			Proc:    i,
			Decided: st.Decided,
			Value:   Value(st.Decision),
			Round:   st.DecidedAt,
			Crashed: st.Crashed,
		})
	}
	return out, nil
}
