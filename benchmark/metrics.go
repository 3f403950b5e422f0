package main

import (
	"fmt"
	"io"
	"slices"
	"time"
)

// metric is one named measurement as the driver's result line carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet keeps metrics by name and remembers the order they were
// added, which is the order reports print them in.
type metricSet struct {
	names []string
	byKey map[string]metric
}

func (ms *metricSet) add(name string, value float64, unit string) {
	if ms.byKey == nil {
		ms.byKey = make(map[string]metric)
	}
	if _, dup := ms.byKey[name]; !dup {
		ms.names = append(ms.names, name)
	}
	ms.byKey[name] = metric{Value: value, Unit: unit}
}

func (ms *metricSet) merge(other metricSet) {
	for _, name := range other.names {
		m := other.byKey[name]
		ms.add(name, m.Value, m.Unit)
	}
}

func (ms *metricSet) print(w io.Writer, indent string) {
	for _, name := range ms.names {
		m := ms.byKey[name]
		fmt.Fprintf(w, "%s%-34s %14.4f %s\n", indent, name, m.Value, m.Unit)
	}
}

// latencySegments is the number of consecutive op segments behind the
// reported p50_ms and p90_ms (see segmentMedian); a closed loop's
// throughput is the median over throughputSegments such segments.
const (
	latencySegments    = 5
	throughputSegments = 10
)

// lagLimitBeats is how late (segment-median p99, in round-timer beats)
// the open-loop dispatcher may run before the window is marked invalid.
// One beat would be the natural limit, but it is below this class of
// host's timer overshoot (time.Sleep returns 2–5 ms late at p99 on the
// 2-core reference VM, with scheduling gaps of 5–40 ms several times a
// second), so the limit is the protocol's own patience for one round:
// the pacing gate of anonnet and tcpnet waits at most 8 quiet beats.
const lagLimitBeats = 8

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// windowSummary is everything a report needs from a window once the op
// records themselves have been released.
type windowSummary struct {
	attempted int
	fails     [len(failNames)]int // by failKind; [opOK] counts decisions
	endToEnd  metricSet           // without setup_s and heap_end_mb, which the caller owns
	layers    metricSet           // client.*, loadgen.*, process.*; node.* and transport.* when traced
	// segLo/segHi are the smallest and largest per-segment value behind
	// each segment-median metric: the spread one run saw inside itself.
	segLo, segHi map[string]float64
	// invalid says why the window's numbers cannot be trusted ("" if they
	// can): the load generator ran late, or ran out of record store.
	invalid string
}

func (s *windowSummary) failed() int { return s.attempted - s.fails[opOK] }

// summarize turns a window's op records into named metrics.
func summarize(w *workload, win *window, traced bool) *windowSummary {
	sum := &windowSummary{attempted: len(win.recs), segLo: map[string]float64{}, segHi: map[string]float64{}}
	var latency, lag []float64
	perClass := make([][]float64, len(w.classes))
	var rounds float64
	for _, r := range win.recs {
		sum.fails[r.fail]++
		lag = append(lag, ms(time.Duration(r.proposeStart-r.due)))
		if r.fail != opOK {
			continue
		}
		l := ms(r.latency())
		latency = append(latency, l)
		perClass[r.class] = append(perClass[r.class], l)
		rounds += float64(r.round)
	}
	decided := float64(sum.fails[opOK])

	// decisions_per_s: an open loop completes what was offered, so its
	// goodput is decisions over the window (stretched if a backlog ran
	// past its end); a closed loop's capacity is the median rate over
	// consecutive op segments, so that one stall cannot move it.
	if w.rate > 0 {
		sum.endToEnd.add("decisions_per_s", decided/max(win.length, win.wall).Seconds(), "1/s")
	} else {
		rates := sortedCopy(segmentRates(win, throughputSegments))
		sum.endToEnd.add("decisions_per_s", percentile(rates, 50), "1/s")
		sum.segLo["decisions_per_s"], sum.segHi["decisions_per_s"] = rates[0], rates[len(rates)-1]
	}
	for _, q := range []struct {
		name string
		p    float64
	}{{"p50_ms", 50}, {"p90_ms", 90}} {
		mid, lo, hi := segmentMedian(latency, latencySegments, q.p)
		sum.endToEnd.add(q.name, mid, "ms")
		sum.segLo[q.name], sum.segHi[q.name] = lo, hi
	}
	sum.endToEnd.add("cpu_ms_per_decision", ms(win.cpu)/decided, "ms")

	if traced {
		sum.spans(w, win)
	}
	sum.layers.add("transport.rounds_per_decision", rounds/decided, "rounds")
	sorted := sortedCopy(latency)
	sum.layers.add("client.p99_ms", percentile(sorted, 99), "ms")
	for ci, c := range w.classes {
		sum.layers.add("client.p50_ms."+c.name, median(perClass[ci]), "ms")
	}
	lagP99, _, _ := segmentMedian(lag, latencySegments, 99)
	if limit := ms(lagLimitBeats * w.beat); w.beat > 0 && lagP99 > limit {
		sum.invalid = fmt.Sprintf("load generator ran late: loadgen.lag_p99_ms %.3f exceeds %d beats (%.0f ms)", lagP99, lagLimitBeats, limit)
	}
	if win.truncated && sum.invalid == "" {
		sum.invalid = fmt.Sprintf("a client ran more than %d ops per second and filled its record store: the window is shorter than asked", maxClosedRate)
	}
	sum.layers.add("loadgen.lag_p99_ms", lagP99, "ms")
	sum.layers.add("loadgen.lag_max_ms", slices.Max(lag), "ms")
	sum.layers.add("process.allocs_per_decision", float64(win.mallocs)/decided, "count")
	sum.layers.add("process.gc_pause_ms", ms(win.gcPause), "ms")
	return sum
}

// segmentRates splits a closed loop's ops (chronological by Propose call)
// into equal-count consecutive segments and returns each segment's
// decisions per second: a segment lasts from its first op's Propose call
// to the next segment's, the last one to the last op's return.
func segmentRates(win *window, segments int) []float64 {
	recs := win.recs
	segments = min(segments, len(recs))
	rates := make([]float64, segments)
	for s := range rates {
		from, to := s*len(recs)/segments, (s+1)*len(recs)/segments
		end := win.start + int64(win.wall)
		if to < len(recs) {
			end = recs[to].due
		}
		decided := 0
		for _, r := range recs[from:to] {
			if r.fail == opOK {
				decided++
			}
		}
		rates[s] = float64(decided) / time.Duration(end-recs[from].due).Seconds()
	}
	return rates
}

// spans derives the traced run's per-layer times from each decided op's
// tiling of client.op (opRec.spanBounds). A span's figure is its mean
// duration per op — means of the children add up to the mean of the
// parent — taken inside each of latencySegments consecutive op segments,
// of which the median is reported, so one stall cannot move it.
func (sum *windowSummary) spans(w *workload, win *window) {
	var decided []*opRec
	for _, r := range win.recs {
		if r.fail == opOK {
			decided = append(decided, r)
		}
	}
	segments := min(latencySegments, len(decided))
	var child [len(spanNames)][]float64 // per span, per segment: mean ns
	var adapter, beats []float64
	for s := 0; s < segments; s++ {
		seg := decided[s*len(decided)/segments : (s+1)*len(decided)/segments]
		var total [len(spanNames)]float64
		var adapterNS, beatCount float64
		for _, r := range seg {
			b := r.spanBounds()
			for c := range total {
				total[c] += float64(b[c+1] - b[c])
			}
			if r.elapsed > 0 {
				adapterNS += float64(r.runEnd - r.runStart - r.elapsed)
				beatCount += float64(r.elapsed) / float64(w.beat) / float64(r.round)
			}
		}
		for c := range total {
			child[c] = append(child[c], total[c]/float64(len(seg)))
		}
		adapter = append(adapter, adapterNS/float64(len(seg)))
		beats = append(beats, beatCount/float64(len(seg)))
	}
	sum.layers.add("node.propose_us", median(child[1])/1e3, "us")
	sum.layers.add("node.queue_us", median(child[2])/1e3, "us")
	sum.layers.add("node.wakeup_us", median(child[4])/1e3, "us")
	sum.layers.add("transport.run_ms", median(child[3])/1e6, "ms")
	if w.beat > 0 {
		// The simulator reports no Elapsed, so these two exist only on
		// the wall-clock transports.
		sum.layers.add("transport.adapter_us", median(adapter)/1e3, "us")
		sum.layers.add("transport.beats_per_round", median(beats), "beats")
	}
}
