package weakset

import (
	"testing"
	"time"

	"anonconsensus/internal/env"
	"anonconsensus/internal/values"
)

func TestLiveWeakSetSynchronousProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("slow suite in -short mode")
	}
	interval := 4 * time.Millisecond
	res, err := RunLive(LiveConfig{
		N: 4,
		Ops: []ScheduledOp{
			{Proc: 0, Round: 2, Kind: OpAdd, Value: values.Num(1)},
			{Proc: 1, Round: 3, Kind: OpAdd, Value: values.Num(2)},
			{Proc: 2, Round: 30, Kind: OpGet},
			{Proc: 3, Round: 30, Kind: OpGet},
		},
		Interval: interval,
		Latency:  env.Sync{Interval: interval},
		Duration: 3 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.CompletedAdds()); got != 2 {
		t.Fatalf("%d/2 adds completed: %+v", got, res.Records)
	}
	if len(res.Gets) != 2 {
		t.Fatalf("gets = %d, want 2", len(res.Gets))
	}
	for _, g := range res.Gets {
		if !g.Got.Contains(values.Num(1)) || !g.Got.Contains(values.Num(2)) {
			t.Errorf("late get at p%d missed completed adds: %v", g.Proc, g.Got)
		}
	}
}

func TestLiveWeakSetUnderMSProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("slow suite in -short mode")
	}
	// The moving-source profile: most links are slow, yet Algorithm 4's
	// all-rounds union (Fresh) still completes every add.
	interval := 3 * time.Millisecond
	res, err := RunLive(LiveConfig{
		N: 3,
		Ops: []ScheduledOp{
			{Proc: 0, Round: 2, Kind: OpAdd, Value: values.Num(7)},
			{Proc: 2, Round: 60, Kind: OpGet},
		},
		Interval: interval,
		Latency:  env.MSProfile{N: 3, Interval: interval, Seed: 5},
		Duration: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CompletedAdds()) != 1 {
		t.Fatalf("add incomplete: %+v", res.Records)
	}
	if !res.ContainsValue(values.Num(7)) {
		t.Error("late get missed the completed add")
	}
}

func TestRunLiveValidation(t *testing.T) {
	if _, err := RunLive(LiveConfig{N: 0}); err == nil {
		t.Error("zero N accepted")
	}
	if _, err := RunLive(LiveConfig{N: 2, Ops: []ScheduledOp{{Proc: 9, Round: 1, Kind: OpGet}}}); err == nil {
		t.Error("out-of-range op accepted")
	}
	if _, err := RunLive(LiveConfig{N: 2, Ops: []ScheduledOp{{Proc: 0, Round: 1, Kind: OpAdd, Value: values.Bot}}}); err == nil {
		t.Error("⊥ add accepted")
	}
}
