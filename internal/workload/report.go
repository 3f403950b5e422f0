package workload

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Outcome classifies what the Node did with one proposal.
type Outcome int

// Proposal outcomes.
const (
	// OK: the proposal was admitted and its instance ran to completion.
	OK Outcome = iota + 1
	// Shed: the Node fast-rejected the proposal with ErrOverloaded — its
	// admission bucket was empty or its queue full (the Node does not say
	// which). The open-loop client never blocks, so either is a shed.
	Shed
	// Errored: the proposal was neither served nor shed — its Propose or
	// Wait failed, or a cancelled run never issued it.
	Errored
)

// Record is one proposal's fate: its arrival, the Node's outcome, and —
// for served proposals — its decision latency and agreement.
type Record struct {
	Arrival
	// Outcome is what the Node did with the proposal.
	Outcome Outcome
	// LatUS is the decision latency, Propose to Wait's return, in
	// microseconds (0 unless OK).
	LatUS int64
	// Agreed reports that at least one process decided and every decider
	// decided the same value (false unless OK).
	Agreed bool
}

// Result is one executed workload: its spec and every proposal's record,
// in arrival order.
type Result struct {
	Spec    Spec
	Records []Record
}

// ClassStats aggregates one class's (or the whole run's) records.
type ClassStats struct {
	// Name is the class name ("all" for the run-level row); Weight its
	// configured share (0 for the run-level row).
	Name   string
	Weight int
	// Ops counts the class's arrivals; Done the proposals served to
	// completion; Shed/Errored the other outcomes.
	Ops, Done, Shed, Errored int
	// P50US/P95US/P99US are nearest-rank decision-latency percentiles over
	// the served proposals, in microseconds (0 when nothing was served).
	P50US, P95US, P99US int64
	// Throughput is served proposals per second over the run's makespan.
	Throughput float64
	// AgreedPct is the percentage of served instances whose deciders all
	// agreed (100 for fault-free classes).
	AgreedPct int
}

// shedPct renders the class's total shed percentage.
func (c *ClassStats) shedPct() float64 {
	if c.Ops == 0 {
		return 0
	}
	return 100 * float64(c.Shed) / float64(c.Ops)
}

// Report is the SLO summary of one workload Result: run-level totals, one
// row per class, and the weight-normalized fairness index.
type Report struct {
	Total ClassStats
	// PerClass has one entry per Spec.Classes, in spec order.
	PerClass []ClassStats
	// MakespanUS is the measured instant the last served proposal
	// completed.
	MakespanUS int64
	// Fairness is Jain's fairness index over the classes'
	// weight-normalized completion counts: 1 means every class got
	// exactly its configured share of the served traffic, 1/m means one
	// of m classes got everything. 0 when nothing was served.
	Fairness float64
}

// Report aggregates the result's records into the SLO summary.
func (r *Result) Report() *Report {
	rep := &Report{}
	rep.PerClass = make([]ClassStats, len(r.Spec.Classes))
	for i := range r.Spec.Classes {
		rep.PerClass[i].Name = r.Spec.Classes[i].Name
		rep.PerClass[i].Weight = r.Spec.Classes[i].Weight
	}
	rep.Total.Name = "all"
	for i := range r.Records {
		rec := &r.Records[i]
		if rec.Outcome == OK {
			if end := rec.TimeUS + rec.LatUS; end > rep.MakespanUS {
				rep.MakespanUS = end
			}
		}
	}
	lats := make([]int64, 0, len(r.Records))
	fill := func(cs *ClassStats, match func(*Record) bool) {
		lats = lats[:0]
		agreed := 0
		for i := range r.Records {
			rec := &r.Records[i]
			if !match(rec) {
				continue
			}
			cs.Ops++
			switch rec.Outcome {
			case OK:
				cs.Done++
				lats = append(lats, rec.LatUS)
				if rec.Agreed {
					agreed++
				}
			case Shed:
				cs.Shed++
			case Errored:
				cs.Errored++
			}
		}
		if cs.Done > 0 {
			cs.P50US = percentileUS(lats, 50)
			cs.P95US = percentileUS(lats, 95)
			cs.P99US = percentileUS(lats, 99)
			cs.AgreedPct = 100 * agreed / cs.Done
			if rep.MakespanUS > 0 {
				cs.Throughput = float64(cs.Done) / (float64(rep.MakespanUS) / 1e6)
			}
		}
	}
	fill(&rep.Total, func(*Record) bool { return true })
	for ci := range rep.PerClass {
		ci := ci
		fill(&rep.PerClass[ci], func(rec *Record) bool { return rec.Class == ci })
	}
	rep.Fairness = jain(rep.PerClass)
	return rep
}

// jain computes Jain's fairness index over the classes' weight-normalized
// completion counts.
func jain(classes []ClassStats) float64 {
	var sum, sumSq float64
	m := 0
	for i := range classes {
		if classes[i].Weight < 1 {
			continue
		}
		x := float64(classes[i].Done) / float64(classes[i].Weight)
		sum += x
		sumSq += x * x
		m++
	}
	if m == 0 || sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(m) * sumSq)
}

// percentileUS returns the p-th nearest-rank percentile of xs (sorted
// in-place).
func percentileUS(xs []int64, p int) int64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	rank := (p*len(xs) + 99) / 100
	if rank < 1 {
		rank = 1
	}
	if rank > len(xs) {
		rank = len(xs)
	}
	return xs[rank-1]
}

// ms renders a microsecond quantity as fixed-precision milliseconds.
func ms(us int64) string { return fmt.Sprintf("%.2f", float64(us)/1000) }

// Render writes the report as a fixed-width table, a pure function of the
// report.
func (rep *Report) Render(w io.Writer) error {
	header := []string{"class", "weight", "ops", "ok", "shed%", "thr/s", "p50ms", "p95ms", "p99ms", "agree%"}
	row := func(cs *ClassStats) []string {
		weight := "-"
		if cs.Weight > 0 {
			weight = fmt.Sprint(cs.Weight)
		}
		return []string{
			cs.Name, weight, fmt.Sprint(cs.Ops), fmt.Sprint(cs.Done),
			fmt.Sprintf("%.1f", cs.shedPct()), fmt.Sprintf("%.1f", cs.Throughput),
			ms(cs.P50US), ms(cs.P95US), ms(cs.P99US),
			fmt.Sprintf("%d", cs.AgreedPct),
		}
	}
	rows := [][]string{row(&rep.Total)}
	for i := range rep.PerClass {
		rows = append(rows, row(&rep.PerClass[i]))
	}
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		return strings.TrimRight(strings.Join(parts, "  "), " ")
	}
	if _, err := fmt.Fprintln(w, line(header)); err != nil {
		return err
	}
	rule := make([]string, len(header))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	if _, err := fmt.Fprintln(w, line(rule)); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintln(w, line(r)); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "(makespan %.2fs, fairness %.3f — Jain's index over weight-normalized completions)\n",
		float64(rep.MakespanUS)/1e6, rep.Fairness)
	return err
}
