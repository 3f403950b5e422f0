package anonconsensus

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"anonconsensus/internal/workload"
)

// ArrivalProcess selects the inter-arrival distribution of the open-loop
// workload generator. All three are normalized to WorkloadSpec.Rate
// proposals per second on average; they differ in burstiness (Gamma and
// Weibull with shape < 1 are burstier than Poisson, > 1 smoother).
type ArrivalProcess int

// Supported arrival processes.
const (
	// PoissonArrivals: exponential inter-arrival times, the classic
	// memoryless open-loop load. The default.
	PoissonArrivals ArrivalProcess = iota + 1
	// GammaArrivals: Gamma inter-arrival times with WorkloadSpec.Shape.
	GammaArrivals
	// WeibullArrivals: Weibull inter-arrival times with WorkloadSpec.Shape.
	WeibullArrivals
)

// WorkloadClass is one client population of the mix: every generated
// proposal belongs to exactly one class, drawn with probability
// proportional to Weight, and runs that class's consensus configuration.
type WorkloadClass struct {
	// Name labels the class in reports (non-empty, [A-Za-z0-9_-] only).
	Name string
	// Weight is the class's relative share of the traffic (≥ 1).
	Weight int
	// Env is the synchrony environment (EnvES or EnvESS, default EnvES);
	// it selects the algorithm the class's instances run.
	Env Environment
	// N is the ensemble size (anonymous processes per instance).
	N int
	// GST is the stabilization round.
	GST int
	// StableSource is the eventual source (EnvESS only).
	StableSource int
	// Scenario overlays a fault scenario on every instance of the class;
	// each proposal draws its own fault pattern from its per-op seed. The
	// zero Scenario is fault-free.
	Scenario Scenario
	// MaxRounds bounds each instance (0 = backend default).
	MaxRounds int
}

// WorkloadSpec describes one open-loop workload: the arrival process and
// the client mix. Seed, Ops, Rate and Classes are required; the zero value
// of every other knob selects a default. The Node the workload drives
// brings its own pool, queue and admission configuration.
type WorkloadSpec struct {
	// Seed fixes everything the generator draws: arrival times, class
	// picks, and every instance's adversary seed.
	Seed int64
	// Ops is the number of proposals to generate.
	Ops int
	// Rate is the mean arrival rate in proposals per second. Open-loop
	// means arrivals keep coming at this rate no matter how the service
	// plane is doing — the load does not slow down because the server is
	// struggling, which is exactly how overload happens in production.
	Rate float64
	// Arrival is the inter-arrival process (default PoissonArrivals);
	// Shape parameterizes Gamma/Weibull (default 2).
	Arrival ArrivalProcess
	Shape   float64
	// Classes is the client mix (at least one).
	Classes []WorkloadClass
}

// internal converts the public spec to the workload plane's form.
func (s WorkloadSpec) internal() (workload.Spec, error) {
	out := workload.Spec{Seed: s.Seed, Ops: s.Ops, Rate: s.Rate, Shape: s.Shape}
	switch s.Arrival {
	case 0:
	case PoissonArrivals:
		out.Arrival = workload.Poisson
	case GammaArrivals:
		out.Arrival = workload.Gamma
	case WeibullArrivals:
		out.Arrival = workload.Weibull
	default:
		return workload.Spec{}, fmt.Errorf("anonconsensus: unknown arrival process %d", int(s.Arrival))
	}
	for _, c := range s.Classes {
		ic := workload.Class{
			Name: c.Name, Weight: c.Weight, N: c.N, GST: c.GST,
			StableSource: c.StableSource, MaxRounds: c.MaxRounds,
		}
		switch c.Env {
		case EnvES, 0:
			ic.Alg = workload.ES
		case EnvESS:
			ic.Alg = workload.ESS
		default:
			return workload.Spec{}, fmt.Errorf("anonconsensus: class %q: unknown environment %d", c.Name, int(c.Env))
		}
		// The class scenario is a template: its seed is overridden per
		// proposal, so the zero seed here never reaches an instance.
		ic.Scenario = c.Scenario.toEnv(0)
		out.Classes = append(out.Classes, ic)
	}
	return out, nil
}

// WorkloadResult is one executed workload: every proposal's outcome and
// decision latency, with the report derived from them.
type WorkloadResult struct {
	inner *workload.Result
}

// WriteReport renders the SLO table: per-class and total p50/p95/p99
// decision latency, throughput, shed rate, agreement, and Jain's fairness
// index over weight-normalized completions.
func (r *WorkloadResult) WriteReport(w io.Writer) error { return r.inner.Report().Render(w) }

// WorkloadSummary is the run-level slice of the report, for callers that
// want numbers rather than a rendered table.
type WorkloadSummary struct {
	// Ops counts all generated proposals; Done the ones served to
	// completion; Shed the ones the node turned away with ErrOverloaded
	// (admission bucket or full queue); Errored the rest, whose Propose or
	// Wait failed.
	Ops, Done, Shed, Errored int
	// P50, P95, P99 are decision-latency percentiles over the served
	// proposals.
	P50, P95, P99 time.Duration
	// Throughput is served proposals per second over the makespan.
	Throughput float64
	// ShedPct is the percentage of proposals shed.
	ShedPct float64
	// Fairness is Jain's index over the classes' weight-normalized
	// completions (1 = every class got exactly its configured share).
	Fairness float64
	// Makespan is the instant the last served proposal completed.
	Makespan time.Duration
}

// Summary extracts the run-level numbers from the report.
func (r *WorkloadResult) Summary() WorkloadSummary {
	rep := r.inner.Report()
	tot := rep.Total
	sum := WorkloadSummary{
		Ops: tot.Ops, Done: tot.Done, Shed: tot.Shed, Errored: tot.Errored,
		P50:        time.Duration(tot.P50US) * time.Microsecond,
		P95:        time.Duration(tot.P95US) * time.Microsecond,
		P99:        time.Duration(tot.P99US) * time.Microsecond,
		Throughput: tot.Throughput,
		Fairness:   rep.Fairness,
		Makespan:   time.Duration(rep.MakespanUS) * time.Microsecond,
	}
	if tot.Ops > 0 {
		sum.ShedPct = 100 * float64(tot.Shed) / float64(tot.Ops)
	}
	return sum
}

// RunWorkload drives a running Node — any backend, including the TCP-mux
// service — with the spec's open-loop traffic and measures real decision
// latencies. The arrival schedule and per-proposal seeds are a pure
// function of the spec; the measurements are wall-clock.
//
// Each arrival is proposed at its scheduled instant regardless of how the
// node is coping (open loop); a Propose shed with ErrOverloaded is
// recorded as shed (the node does not report which stage — bucket or
// queue — shed it), any other failure as errored. If ctx is cancelled the
// remaining unissued proposals are recorded as errored and the partial
// result returned.
func RunWorkload(ctx context.Context, node *Node, spec WorkloadSpec) (*WorkloadResult, error) {
	if node == nil {
		return nil, fmt.Errorf("anonconsensus: RunWorkload: nil node")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	ispec, err := spec.internal()
	if err != nil {
		return nil, err
	}
	arrivals, err := workload.Generate(ispec)
	if err != nil {
		return nil, err
	}
	res := &WorkloadResult{inner: &workload.Result{Spec: ispec, Records: make([]workload.Record, len(arrivals))}}
	records := res.inner.Records
	for i, a := range arrivals {
		records[i].Arrival = a
	}
	var wg sync.WaitGroup
	start := time.Now()
	for i := range arrivals {
		if d := time.Duration(arrivals[i].TimeUS)*time.Microsecond - time.Since(start); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-ctx.Done():
				t.Stop()
				for j := i; j < len(records); j++ {
					records[j].Outcome = workload.Errored
				}
				wg.Wait()
				return res, nil
			case <-t.C:
			}
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			runLiveOp(ctx, node, &ispec.Classes[arrivals[i].Class], &records[i], i)
		}(i)
	}
	wg.Wait()
	return res, nil
}

// runLiveOp proposes one arrival to the node, waits for its outcome, and
// fills in its record (rec is this goroutine's own slot; its Arrival is
// already set).
func runLiveOp(ctx context.Context, node *Node, c *workload.Class, rec *workload.Record, i int) {
	opts := []Option{WithGST(c.GST), WithSeed(rec.Seed)}
	if c.Alg == workload.ESS {
		opts = append(opts, WithEnv(EnvESS), WithStableSource(c.StableSource))
	} else {
		opts = append(opts, WithEnv(EnvES))
	}
	if c.MaxRounds > 0 {
		opts = append(opts, WithMaxRounds(c.MaxRounds))
	}
	if !c.Scenario.Empty() {
		opts = append(opts, WithScenario(scenarioFromEnv(c.Scenario)))
	}
	proposals := make([]Value, c.N)
	for p := range proposals {
		proposals[p] = NumValue(int64(p))
	}
	id := fmt.Sprintf("wl%d-%d", i, rec.Seed)
	begin := time.Now()
	if err := node.Propose(ctx, id, proposals, opts...); err != nil {
		if errors.Is(err, ErrOverloaded) {
			rec.Outcome = workload.Shed
		} else {
			rec.Outcome = workload.Errored
		}
		return
	}
	res, err := node.Wait(ctx, id)
	lat := time.Since(begin).Microseconds()
	if err != nil {
		rec.Outcome = workload.Errored
		// The wait aborted but the instance may still be registered; reap
		// it in the background so cancelled workloads do not leak IDs
		// (mirrors Node.Run's ownership rule).
		go func() { _, _ = node.Wait(context.Background(), id) }()
		return
	}
	rec.Outcome = workload.OK
	rec.LatUS = lat
	var agreedVal Value
	agreed, decided := true, 0
	for _, d := range res.Decisions {
		if !d.Decided {
			continue
		}
		if decided == 0 {
			agreedVal = d.Value
		} else if d.Value != agreedVal {
			agreed = false
		}
		decided++
	}
	rec.Agreed = agreed && decided > 0
}
