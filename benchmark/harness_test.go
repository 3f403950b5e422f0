package main

import (
	"context"
	"math"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"anonconsensus"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentileHandComputed(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ p, want float64 }{{0, 10}, {50, 30}, {90, 46}, {100, 50}, {25, 20}, {62.5, 35}} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("single sample: got %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); !near(got, 2.5) {
		t.Errorf("median of unsorted even-length input = %v, want 2.5", got)
	}
}

func TestSegmentMedianIgnoresOneStall(t *testing.T) {
	// Five segments of four samples; the third holds a stall. Per-segment
	// medians are 1.5, 2.5, 500.5, 2.5, 3.5: the reported value is the
	// middle one and the stall only shows as the upper end of the spread.
	xs := []float64{1, 2, 1, 2, 2, 3, 2, 3, 1000, 1, 1000, 1, 2, 3, 2, 3, 3, 4, 3, 4}
	mid, lo, hi := segmentMedian(xs, 5, 50)
	if !near(mid, 2.5) || !near(lo, 1.5) || !near(hi, 500.5) {
		t.Errorf("segmentMedian = %v (%v .. %v), want 2.5 (1.5 .. 500.5)", mid, lo, hi)
	}
	// Fewer samples than segments: each sample is a segment.
	if mid, lo, hi := segmentMedian([]float64{5, 1, 9}, 5, 90); mid != 5 || lo != 1 || hi != 9 {
		t.Errorf("short input: %v (%v .. %v)", mid, lo, hi)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if !near(q1, 2.75) || !near(med, 5.5) || !near(q3, 8.25) {
		t.Errorf("quartiles = %v %v %v", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, med, q3 = quartiles([]float64{4, 1, 2})
	if !near(q1, 1) || !near(med, 2) || !near(q3, 4) {
		t.Errorf("quartiles of three = %v %v %v", q1, med, q3)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestGeneratorDeterministicPerSeed(t *testing.T) {
	classes := []class{es4, ess3, es8c}
	draw := func(seed int64, stream int) []op {
		g := newGenerator(seed, stream, classes)
		out := make([]op, 2000)
		for i := range out {
			out[i] = g.next()
		}
		return out
	}
	a, b := draw(7, 0), draw(7, 0)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed and stream produced different ops")
	}
	if reflect.DeepEqual(a, draw(8, 0)) || reflect.DeepEqual(a, draw(7, 1)) {
		t.Fatal("different seed or stream produced the same ops")
	}
	counts := make([]int, len(classes))
	for _, o := range a {
		counts[o.class]++
		if len(o.proposals) != classes[o.class].n {
			t.Fatalf("class %s op has %d proposals", classes[o.class].name, len(o.proposals))
		}
	}
	// Weights 3:1:1 over 2000 draws: 1200, 400, 400 within five sigma.
	for i, want := range []float64{1200, 400, 400} {
		if math.Abs(float64(counts[i])-want) > 110 {
			t.Errorf("class %s drawn %d times, want about %v", classes[i].name, counts[i], want)
		}
	}
	big := newGenerator(1, 0, []class{es256}).next()
	seen := map[anonconsensus.Value]bool{}
	for _, p := range big.proposals {
		seen[p] = true
	}
	if len(seen) != 256 {
		t.Errorf("es256 proposals: %d distinct values, want 256", len(seen))
	}
}

func TestArrivalsRateAndOrder(t *testing.T) {
	const rate, window = 150.0, 20 * time.Second
	a := arrivals(3, rate, window)
	if !reflect.DeepEqual(a, arrivals(3, rate, window)) {
		t.Fatal("same seed produced different schedules")
	}
	if reflect.DeepEqual(a, arrivals(4, rate, window)) {
		t.Fatal("different seeds produced the same schedule")
	}
	if got := float64(len(a)) / window.Seconds(); math.Abs(got-rate)/rate > 0.02 {
		t.Errorf("mean rate %v, want %v within 2%%", got, rate)
	}
	gaps := make([]float64, 0, len(a))
	for i := range a {
		if a[i] < 0 || a[i] >= window || (i > 0 && a[i] < a[i-1]) {
			t.Fatalf("arrival %d at %v is out of order or outside the window", i, a[i])
		}
		if i > 0 {
			gaps = append(gaps, (a[i] - a[i-1]).Seconds())
		}
	}
	// Exponential gaps: the standard deviation equals the mean.
	var m, ss float64
	for _, g := range gaps {
		m += g / float64(len(gaps))
	}
	for _, g := range gaps {
		ss += (g - m) * (g - m)
	}
	if cv := math.Sqrt(ss/float64(len(gaps))) / m; cv < 0.9 || cv > 1.1 {
		t.Errorf("gap coefficient of variation %v, want about 1 (Poisson)", cv)
	}
}

// nullWorkload drives the harness's own plumbing over a transport that
// decides instantly.
func nullWorkload(clients int, rate float64) *workload {
	return &workload{
		name:      "null",
		transport: func() anonconsensus.Transport { return nullTransport{} },
		nodeOpts:  []anonconsensus.Option{anonconsensus.WithMaxInFlight(2)},
		classes:   []class{es4},
		clients:   clients,
		rate:      rate,
	}
}

func TestSpanChildrenSumToClientOp(t *testing.T) {
	open := nullWorkload(0, 2000)
	open.beat = 2 * time.Millisecond
	for _, w := range []*workload{nullWorkload(2, 0), open} {
		s, _, err := openSession(w, 1, true, warmupOps)
		if err != nil {
			t.Fatal(err)
		}
		win, err := s.measure(1, 100*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		defer win.release()
		sum := summarize(w, win, true)
		if err := s.node.Close(); err != nil {
			t.Fatal(err)
		}
		if sum.failed() != 0 || sum.attempted < 10 {
			t.Fatalf("null workload: %d attempted, %d failed", sum.attempted, sum.failed())
		}
		for _, name := range []string{"node.propose_us", "node.queue_us", "node.wakeup_us", "transport.run_ms"} {
			if m, ok := sum.layers.byKey[name]; !ok || m.Value < 0 {
				t.Errorf("%s = %v (present %v), want a non-negative mean", name, m.Value, ok)
			}
		}
		// Every op's stamps, taken on two goroutines (the client's and the
		// Node worker's, inside the decorator), must come out in blocking-path
		// order: no child span is negative and the last ends with client.op.
		lines := spanLines(win, sum.attempted)
		if len(lines) != sum.attempted*6 {
			t.Fatalf("spanLines wrote %d spans for %d ops, want 6 each", len(lines), sum.attempted)
		}
		for op := 0; op < sum.attempted; op++ {
			parent, children := lines[op*6], lines[op*6+1:op*6+6]
			at := parent.StartNS
			for _, c := range children {
				if c.Parent != "client.op" || c.StartNS != at || c.EndNS < c.StartNS {
					t.Fatalf("op %d: span %s [%d, %d] does not continue the tiling at %d", op, c.Name, c.StartNS, c.EndNS, at)
				}
				at = c.EndNS
			}
			if at != parent.EndNS {
				t.Fatalf("op %d: children end at %d, client.op at %d", op, at, parent.EndNS)
			}
		}
	}
}

func TestJudgeFlagsViolations(t *testing.T) {
	o := &op{proposals: []anonconsensus.Value{"a", "b"}}
	decided := func(vals ...anonconsensus.Value) *anonconsensus.Result {
		res := &anonconsensus.Result{}
		for i, v := range vals {
			res.Decisions = append(res.Decisions, anonconsensus.Decision{Proc: i, Decided: v != "", Value: v, Round: i + 3})
		}
		return res
	}
	if out, fail := judge(o, decided("b", "b"), nil); fail != opOK || out.value != "b" || out.round != 4 {
		t.Errorf("agreeing run: %+v, %s", out, failNames[fail])
	}
	for name, res := range map[string]*anonconsensus.Result{
		"agreement": decided("a", "b"), "validity": decided("c", "c"), "undecided": decided("a", ""),
	} {
		if _, fail := judge(o, res, nil); fail != failViolated {
			t.Errorf("%s violation judged %s", name, failNames[fail])
		}
	}
	if _, fail := judge(o, nil, anonconsensus.ErrOverloaded); fail != failShed {
		t.Errorf("shed op judged %s", failNames[fail])
	}
}

func TestSuiteReportRoundTrips(t *testing.T) {
	sum := &windowSummary{attempted: 3, segLo: map[string]float64{"p50_ms": 1}, segHi: map[string]float64{"p50_ms": 2}}
	sum.fails[opOK], sum.fails[failDeadline] = 2, 1
	r := newRunResult(&workloads[0], 9, 2*time.Second, false, sum)
	r.set.add("p50_ms", 1.25, "ms")
	r.Digest = "00ff"
	want := &suiteReport{Env: currentEnvironment(), Seed: 9, Seconds: 2, Runs: []*runResult{r},
		Probes: map[string]metric{"wire.delta_ratio": {0.15, "ratio"}}}
	path := filepath.Join(t.TempDir(), "report.json")
	if err := want.write(path); err != nil {
		t.Fatal(err)
	}
	got, err := readSuiteReport(path)
	if err != nil {
		t.Fatal(err)
	}
	r.set = metricSet{} // print order is not part of the file
	if !reflect.DeepEqual(got, want) {
		t.Errorf("report changed in a write/read round trip:\n got %+v\nwant %+v", got.Runs[0], want.Runs[0])
	}
	if r.Failed != 1 || r.Correct || r.Fails["deadline"] != 1 {
		t.Errorf("failed op not carried into the result: %+v", r)
	}
}

func TestJudgeMetricVerdicts(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		name          string
		a, b          []float64
		lowerIsBetter bool
		want          string
	}{
		{"same", steady, steady, true, verdictPass},
		{"slower latency", steady, []float64{120, 121, 119, 120, 122}, true, verdictRegressed},
		{"faster latency", steady, []float64{80, 81, 79, 80, 82}, true, verdictPass},
		{"lower throughput", steady, []float64{80, 81, 79, 80, 82}, false, verdictRegressed},
		{"noisy", steady, []float64{60, 140, 100, 75, 125}, true, verdictUnresolved},
		{"noisy but every run better", []float64{160, 240, 200, 175, 225}, []float64{60, 140, 100, 75, 125}, true, verdictPass},
	} {
		if got, _, _, _ := judgeMetric(c.a, c.b, c.lowerIsBetter, 0.10); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// splitTransport makes one chosen Run call return a split decision; every
// other call decides like nullTransport.
type splitTransport struct {
	nullTransport
	calls   *atomic.Int32
	splitAt int32
}

func (t splitTransport) Run(ctx context.Context, spec anonconsensus.InstanceSpec) (*anonconsensus.Result, error) {
	res, err := t.nullTransport.Run(ctx, spec)
	if t.calls.Add(1) == t.splitAt {
		res.Decisions[0].Value = spec.Proposals[1]
	}
	return res, err
}

// A single violating instance makes the run incorrect, on a wall-clock
// transport as on the simulator: nothing is retried or discarded.
func TestViolationFailsTheRun(t *testing.T) {
	for _, beat := range []time.Duration{0, 2 * time.Millisecond} {
		var calls atomic.Int32
		w := nullWorkload(1, 0)
		w.beat = beat
		w.transport = func() anonconsensus.Transport {
			return splitTransport{calls: &calls, splitAt: 20} // past the 8 warm-up instances
		}
		r, err := runEndToEnd(w, 1, scale{window: 50 * time.Millisecond, setups: 1, warmups: warmupOps, digestDiv: 1})
		if err != nil {
			t.Fatal(err)
		}
		if r.Correct || r.Failed != 1 || r.Fails["violated"] != 1 || !(r.Metrics["fail_ratio"].Value > 0) {
			t.Errorf("beat %v: correct %v, failed %d %v, fail_ratio %v; want one violation reported",
				beat, r.Correct, r.Failed, r.Fails, r.Metrics["fail_ratio"].Value)
		}
	}
}
