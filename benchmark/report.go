package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

// scale sets how much work one run does; -smoke shrinks every part.
type scale struct {
	window    time.Duration // measuring time of one window
	setups    int           // how many times set-up is repeated and timed, at least
	setupTime time.Duration // quick set-ups are repeated until they add up to this (maxSetups at most)
	warmups   int           // sequential decisions that end each set-up
	digestDiv int           // divisor applied to each workload's digestOps
	probes    time.Duration // suite: total time for the timed layer probes
}

const maxSetups = 1000

// runResult is one run of one workload, as -out records it and -compare
// reads it back.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Traced    bool              `json:"traced"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Fails     map[string]int    `json:"fails,omitempty"`
	Correct   bool              `json:"correct"`
	Invalid   string            `json:"invalid,omitempty"` // why the numbers cannot be trusted, if so
	Digest    string            `json:"result_digest,omitempty"`
	Samples   int               `json:"latency_samples"`
	Metrics   map[string]metric `json:"metrics"`
	// SegmentLo/Hi: the per-segment extremes behind each segment-median
	// metric — the spread inside this one run.
	SegmentLo map[string]float64 `json:"segment_lo,omitempty"`
	SegmentHi map[string]float64 `json:"segment_hi,omitempty"`

	set metricSet // Metrics (the same map) with their print order
}

// newRunResult counts the ops of every window the run measured (a traced
// run has two: the untraced reference and the traced one); segment spreads,
// the sample count and the validity verdict are the last window's.
func newRunResult(w *workload, seed int64, window time.Duration, traced bool, sums ...*windowSummary) *runResult {
	last := sums[len(sums)-1]
	r := &runResult{
		Workload: w.name, Seed: seed, Seconds: window.Seconds(), Traced: traced,
		Samples: last.fails[opOK], SegmentLo: last.segLo, SegmentHi: last.segHi, Invalid: last.invalid,
		Metrics: map[string]metric{},
	}
	r.set.byKey = r.Metrics
	for _, sum := range sums {
		r.Attempted += sum.attempted
		r.Failed += sum.failed()
		for kind, n := range sum.fails {
			if kind != int(opOK) && n > 0 {
				if r.Fails == nil {
					r.Fails = map[string]int{}
				}
				r.Fails[failNames[kind]] += n
			}
		}
	}
	r.Correct = r.Failed == 0
	r.set.add("fail_ratio", float64(r.Failed)/float64(r.Attempted), "ratio")
	return r
}

func (r *runResult) print(out io.Writer) {
	kind := "end to end"
	if r.Traced {
		kind = "traced"
	}
	fmt.Fprintf(out, "%s (%s, seed %d, %.2f s window): attempted %d, failed %d %v, %d latency samples\n",
		r.Workload, kind, r.Seed, r.Seconds, r.Attempted, r.Failed, r.Fails, r.Samples)
	for _, name := range r.set.names {
		m := r.set.byKey[name]
		fmt.Fprintf(out, "  %-34s %14.4f %-7s", name, m.Value, m.Unit)
		if lo, ok := r.SegmentLo[name]; ok && !r.Traced {
			fmt.Fprintf(out, " segments %.4f .. %.4f", lo, r.SegmentHi[name])
		}
		fmt.Fprintln(out)
	}
	if r.Digest != "" {
		fmt.Fprintf(out, "  %-34s %s\n", "result_digest", r.Digest)
	}
	if !r.Correct {
		fmt.Fprintln(out, "  INCORRECT: at least one op failed its check")
	}
	if r.Invalid != "" {
		fmt.Fprintf(out, "  INVALID: %s\n", r.Invalid)
	}
}

func heapAfterGC() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// measured is what is left of a session once its window has been
// measured, summarised and the session closed.
type measured struct {
	sum           *windowSummary
	heads         [][]outcome
	spans         []spanLine
	heapMB        float64 // retained after two forced GCs, before Close
	eventsDropped int64
	goroutines    int // after Close
}

// measureAndClose measures one window on an open session and closes it.
// goroutinesBefore is the count before the session was opened: if Close
// does not bring it back, the run fails.
func measureAndClose(s *session, seed int64, window time.Duration, goroutinesBefore int) (*measured, error) {
	win, err := s.measure(seed, window)
	if err != nil {
		s.node.Close()
		return nil, err
	}
	sum := summarize(s.w, win, s.traced)
	m := &measured{sum: sum, heads: win.heads}
	if s.traced {
		m.spans = spanLines(win, maxSpanOps)
	}
	win.release()
	if sum.fails[opOK] == 0 {
		s.node.Close()
		return nil, fmt.Errorf("%s: none of %d ops decided (%v)", s.w.name, sum.attempted, sum.fails)
	}
	m.heapMB = heapAfterGC()
	m.eventsDropped = s.node.Stats().EventsDropped
	if err := s.node.Close(); err != nil {
		return nil, fmt.Errorf("%s: closing the node: %w", s.w.name, err)
	}
	m.goroutines = settleGoroutines(goroutinesBefore)
	if m.goroutines > goroutinesBefore+goroutineSlack {
		return nil, fmt.Errorf("%s: goroutine leak: %d before the run, %d after Close", s.w.name, goroutinesBefore, m.goroutines)
	}
	return m, nil
}

// runEndToEnd is the untraced run: it times set-up (repeatedly), measures
// one window, checks every outcome and reports the end-to-end metrics.
func runEndToEnd(w *workload, seed int64, sc scale) (*runResult, error) {
	goroutinesBefore := runtime.NumGoroutine()
	// Quick set-ups are repeated beyond sc.setups: the simulator's takes
	// about a millisecond, too little to time five times. The last
	// session is the one the window runs on.
	var s *session
	var setups []float64
	for total := time.Duration(0); len(setups) < sc.setups || (total < sc.setupTime && len(setups) < maxSetups); {
		if s != nil {
			if err := s.node.Close(); err != nil {
				return nil, err
			}
		}
		var took time.Duration
		var err error
		if s, took, err = openSession(w, seed, false, sc.warmups); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		total += took
	}
	m, err := measureAndClose(s, seed, sc.window, goroutinesBefore)
	if err != nil {
		return nil, err
	}
	r := newRunResult(w, seed, sc.window, false, m.sum)
	r.set.add("setup_s", median(setups), "s")
	r.set.merge(m.sum.endToEnd)
	r.set.add("heap_end_mb", m.heapMB, "MB")
	if w.digestOps > 0 {
		if r.Digest, err = replayDigest(w, seed, sc.warmups, max(1, w.digestOps/sc.digestDiv), m.heads); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// runTraced is the traced run: an untraced reference window, then the
// same window again with the transport decorator and per-op spans. The
// per-layer metrics come from the traced window, the process.* ones from
// the reference (so tracing's own allocations stay out of them), and the
// difference between the two is the tracing overhead. Spans go to spanDir
// once all timing is over.
func runTraced(w *workload, seed int64, sc scale, spanDir string) (*runResult, error) {
	goroutinesBefore := runtime.NumGoroutine()
	var both [2]*measured
	for i, traced := range []bool{false, true} {
		s, _, err := openSession(w, seed, traced, sc.warmups)
		if err != nil {
			return nil, err
		}
		if both[i], err = measureAndClose(s, seed, sc.window, goroutinesBefore); err != nil {
			return nil, err
		}
	}
	ref, traced := both[0], both[1]
	sum := traced.sum
	r := newRunResult(w, seed, sc.window, true, ref.sum, sum)
	for _, name := range sum.layers.names {
		from := sum
		if strings.HasPrefix(name, "process.") {
			from = ref.sum
		}
		m := from.layers.byKey[name]
		r.set.add(name, m.Value, m.Unit)
	}
	r.set.add("node.events_dropped", float64(traced.eventsDropped), "count")
	r.set.add("process.goroutines_end", float64(traced.goroutines), "count")
	r.set.add("process.peak_rss_mb", peakRSSMB(), "MB")
	overhead := func(name string, sign float64) float64 {
		base := ref.sum.endToEnd.byKey[name].Value
		return sign * (sum.endToEnd.byKey[name].Value - base) / base * 100
	}
	r.set.add("trace.overhead_pct", overhead("p50_ms", 1), "%")
	r.set.add("trace.tput_overhead_pct", overhead("decisions_per_s", -1), "%")
	if err := writeSpans(spanDir, w.name, traced.spans); err != nil {
		return nil, err
	}
	return r, nil
}

// suiteReport is what -out writes: where the runs were taken, every run,
// and the layer probes.
type suiteReport struct {
	Env     environment       `json:"env"`
	Seed    int64             `json:"seed"`
	Seconds float64           `json:"seconds"`
	Runs    []*runResult      `json:"runs"`
	Probes  map[string]metric `json:"probes,omitempty"`
}

func (s *suiteReport) write(path string) error {
	data, err := json.MarshalIndent(s, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readSuiteReport(path string) (*suiteReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s suiteReport
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}
