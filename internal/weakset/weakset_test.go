package weakset

import (
	"fmt"
	"sync"
	"testing"

	"anonconsensus/internal/env"
	"anonconsensus/internal/giraf"
	"anonconsensus/internal/values"
)

func TestCheckerAcceptsLegalHistory(t *testing.T) {
	c := &Checker{}
	c.Record(Op{Kind: OpAdd, Value: values.Num(1), Start: 0, End: 2})
	c.Record(Op{Kind: OpGet, Got: values.NewSet(values.Num(1)), Start: 3, End: 3})
	if err := c.Check(); err != nil {
		t.Error(err)
	}
}

func TestCheckerMissingCompletedAdd(t *testing.T) {
	c := &Checker{}
	c.Record(Op{Kind: OpAdd, Value: values.Num(1), Start: 0, End: 2})
	c.Record(Op{Kind: OpGet, Got: values.NewSet(), Start: 5, End: 5})
	if err := c.Check(); err == nil {
		t.Error("get missing a completed add must fail")
	}
}

func TestCheckerPhantomValue(t *testing.T) {
	c := &Checker{}
	c.Record(Op{Kind: OpGet, Got: values.NewSet(values.Num(9)), Start: 1, End: 1})
	if err := c.Check(); err == nil {
		t.Error("get returning a never-added value must fail")
	}
}

func TestCheckerFutureAdd(t *testing.T) {
	c := &Checker{}
	c.Record(Op{Kind: OpAdd, Value: values.Num(1), Start: 10, End: 12})
	c.Record(Op{Kind: OpGet, Got: values.NewSet(values.Num(1)), Start: 1, End: 2})
	if err := c.Check(); err == nil {
		t.Error("get returning a value added only later must fail")
	}
}

func TestCheckerConcurrentAddMayOrMayNotAppear(t *testing.T) {
	// Add overlaps the get: both visible and invisible outcomes are legal.
	for _, got := range []values.Set{values.NewSet(), values.NewSet(values.Num(1))} {
		c := &Checker{}
		c.Record(Op{Kind: OpAdd, Value: values.Num(1), Start: 5, End: 9})
		c.Record(Op{Kind: OpGet, Got: got, Start: 6, End: 7})
		if err := c.Check(); err != nil {
			t.Errorf("concurrent outcome %v rejected: %v", got, err)
		}
	}
}

func TestMemoryWeakSetConcurrent(t *testing.T) {
	// Hammer the in-memory reference with concurrent adders and getters;
	// afterwards a get must return everything.
	var (
		m  Memory
		wg sync.WaitGroup
	)
	const n = 32
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := m.Add(values.Num(int64(i))); err != nil {
				t.Error(err)
			}
			if _, err := m.Get(); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	got, err := m.Get()
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != n {
		t.Errorf("final get has %d values, want %d", got.Len(), n)
	}
}

func TestMSWeakSetSynchronous(t *testing.T) {
	ops := []ScheduledOp{
		{Proc: 0, Round: 1, Kind: OpAdd, Value: values.Num(7)},
		{Proc: 1, Round: 10, Kind: OpGet},
		{Proc: 2, Round: 10, Kind: OpGet},
	}
	res, err := RunMS(3, ops, env.Synchronous{}, 20, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Checker.Check(); err != nil {
		t.Fatal(err)
	}
	if len(res.CompletedAdds()) != 1 {
		t.Fatalf("add did not complete: %+v", res.Records)
	}
	for _, g := range res.Gets {
		if !g.Got.Contains(values.Num(7)) {
			t.Errorf("get at p%d missed the completed add", g.Proc)
		}
	}
}

func TestMSWeakSetUnderMS(t *testing.T) {
	// Theorem 3: the weak-set works in the plain MS environment — no
	// eventual synchrony, the source keeps moving forever.
	for seed := int64(0); seed < 50; seed++ {
		ops := []ScheduledOp{
			{Proc: 0, Round: 1, Kind: OpAdd, Value: values.Num(1)},
			{Proc: 1, Round: 3, Kind: OpAdd, Value: values.Num(2)},
			{Proc: 2, Round: 5, Kind: OpAdd, Value: values.Num(3)},
			{Proc: 3, Round: 30, Kind: OpGet},
			{Proc: 0, Round: 35, Kind: OpGet},
		}
		res, err := RunMS(4, ops, &env.MS{Seed: seed, MaxDelay: 3}, 60, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Checker.Check(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got := len(res.CompletedAdds()); got != 3 {
			t.Fatalf("seed %d: %d/3 adds completed", seed, got)
		}
	}
}

func TestMSWeakSetQueuedAddsSameProcess(t *testing.T) {
	// Sequential adds from one process run one at a time (the paper's add
	// blocks) but all complete.
	ops := []ScheduledOp{
		{Proc: 0, Round: 1, Kind: OpAdd, Value: values.Num(1)},
		{Proc: 0, Round: 1, Kind: OpAdd, Value: values.Num(2)},
		{Proc: 0, Round: 2, Kind: OpAdd, Value: values.Num(3)},
		{Proc: 1, Round: 40, Kind: OpGet},
	}
	res, err := RunMS(3, ops, &env.MS{Seed: 9, MaxDelay: 2}, 60, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Checker.Check(); err != nil {
		t.Fatal(err)
	}
	recs := res.CompletedAdds()
	if len(recs) != 3 {
		t.Fatalf("%d/3 adds completed", len(recs))
	}
	// One at a time: intervals of p0's adds must not overlap.
	for i := 1; i < len(recs); i++ {
		if recs[i].Started < recs[i-1].Completed {
			t.Errorf("adds overlap: %+v then %+v", recs[i-1], recs[i])
		}
	}
	if !res.Gets[0].Got.Contains(values.Num(3)) {
		t.Error("late get misses queued add")
	}
}

func TestMSWeakSetCrashedAdderMayNotComplete(t *testing.T) {
	// The adder crashes right after enqueueing; its add may never complete
	// but the history must stay legal and other processes' ops unaffected.
	ops := []ScheduledOp{
		{Proc: 0, Round: 1, Kind: OpAdd, Value: values.Num(1)},
		{Proc: 1, Round: 2, Kind: OpAdd, Value: values.Num(2)},
		{Proc: 2, Round: 30, Kind: OpGet},
	}
	res, err := RunMS(3, ops, &env.MS{Seed: 3, MaxDelay: 2}, 50, &env.Scenario{Crashes: map[int]int{0: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Checker.Check(); err != nil {
		t.Fatal(err)
	}
	// p1's add must still complete.
	found := false
	for _, rec := range res.CompletedAdds() {
		if rec.Value == values.Num(2) {
			found = true
		}
	}
	if !found {
		t.Error("surviving process's add did not complete")
	}
}

func TestMSWeakSetAddLatencyBounded(t *testing.T) {
	// Under synchrony an add completes two rounds after it starts.
	ops := []ScheduledOp{{Proc: 0, Round: 1, Kind: OpAdd, Value: values.Num(5)}}
	res, err := RunMS(4, ops, env.Synchronous{}, 20, nil)
	if err != nil {
		t.Fatal(err)
	}
	recs := res.CompletedAdds()
	if len(recs) != 1 {
		t.Fatal("add incomplete")
	}
	if lat := recs[0].Completed - recs[0].Started; lat != 2 {
		t.Errorf("synchronous add latency = %d rounds, want 2", lat)
	}
}

func TestMSWeakSetManyProcessesManyOps(t *testing.T) {
	n := 8
	var ops []ScheduledOp
	for i := 0; i < n; i++ {
		ops = append(ops, ScheduledOp{Proc: i, Round: 1 + i, Kind: OpAdd, Value: values.Num(int64(100 + i))})
		ops = append(ops, ScheduledOp{Proc: i, Round: 60, Kind: OpGet})
	}
	res, err := RunMS(n, ops, &env.MS{Seed: 17, MaxDelay: 4, Shuffle: true}, 80, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Checker.Check(); err != nil {
		t.Fatal(err)
	}
	if got := len(res.CompletedAdds()); got != n {
		t.Fatalf("%d/%d adds completed", got, n)
	}
	for _, g := range res.Gets {
		if g.Got.Len() != n {
			t.Errorf("get at p%d returned %d values, want %d", g.Proc, g.Got.Len(), n)
		}
	}
}

func TestRunMSValidation(t *testing.T) {
	if _, err := RunMS(2, []ScheduledOp{{Proc: 5, Round: 1, Kind: OpGet}}, env.Synchronous{}, 10, nil); err == nil {
		t.Error("out-of-range proc must be rejected")
	}
	if _, err := RunMS(2, []ScheduledOp{{Proc: 0, Round: 1, Kind: OpAdd, Value: values.Bot}}, env.Synchronous{}, 10, nil); err == nil {
		t.Error("adding ⊥ must be rejected")
	}
}

func TestMSWeakSetLatencyGrowsWithDelay(t *testing.T) {
	// T7 shape: add latency grows with the non-source delay bound.
	latAt := func(maxDelay int) int {
		total := 0
		for seed := int64(0); seed < 10; seed++ {
			ops := []ScheduledOp{{Proc: 0, Round: 1, Kind: OpAdd, Value: values.Num(1)}}
			res, err := RunMS(5, ops, &env.MS{Seed: seed, MaxDelay: maxDelay}, 40+10*maxDelay, nil)
			if err != nil {
				t.Fatal(err)
			}
			recs := res.CompletedAdds()
			if len(recs) != 1 {
				t.Fatalf("maxDelay=%d seed=%d: add incomplete", maxDelay, seed)
			}
			total += recs[0].Completed - recs[0].Started
		}
		return total
	}
	small, large := latAt(1), latAt(6)
	if small > large {
		t.Errorf("latency should not shrink with delay: sum@1=%d sum@6=%d", small, large)
	}
}

func ExampleMemory() {
	var m Memory
	_ = m.Add(values.Num(1))
	_ = m.Add(values.Num(2))
	got, _ := m.Get()
	fmt.Println(got)
	// Output: {000000000001, 000000000002}
}

func TestMSProcBlockedFlag(t *testing.T) {
	ops := []ScheduledOp{{Proc: 0, Round: 1, Kind: OpAdd, Value: values.Num(5)}}
	blockedSeen := false
	procs := make([]*MSProc, 1)
	// Drive manually through the sim driver; inspect via records instead:
	res, err := RunMS(1, ops, env.Synchronous{}, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = procs
	recs := res.CompletedAdds()
	if len(recs) != 1 {
		t.Fatal("add incomplete")
	}
	// Blocked is true strictly between Started and Completed; validate via
	// a fresh proc stepped by hand.
	p := NewMSProc()
	p.EnqueueAdd(values.Num(1))
	if p.Blocked() {
		t.Error("not blocked before first compute")
	}
	gp := giraf.NewProc(p)
	gp.EndOfRound() // init
	gp.EndOfRound() // compute 1: add starts
	if p.Blocked() {
		blockedSeen = true
	}
	if !blockedSeen {
		t.Error("add never showed as blocked")
	}
}
