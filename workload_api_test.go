package anonconsensus

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"
)

func apiWorkloadSpec() WorkloadSpec {
	return WorkloadSpec{
		Seed: 11,
		Ops:  80,
		Rate: 500,
		Classes: []WorkloadClass{
			{Name: "bulk", Weight: 3, Env: EnvES, N: 4, GST: 2},
			{Name: "interactive", Weight: 1, Env: EnvESS, N: 3, GST: 2, StableSource: 0},
		},
	}
}

// runAgainstNode drives a real Node (sim backend service) open-loop with
// the API spec at 4000 ops/s.
func runAgainstNode(t *testing.T, ops int) (*WorkloadResult, NodeStats) {
	t.Helper()
	node, err := NewNode(NewSimTransport(), WithMaxInFlight(4), WithQueueDepth(16))
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	spec := apiWorkloadSpec()
	spec.Ops = ops
	spec.Rate = 4000
	res, err := RunWorkload(context.Background(), node, spec)
	if err != nil {
		t.Fatal(err)
	}
	return res, node.Stats()
}

// TestRunWorkloadAgainstNode checks that every proposal is recorded and
// the node admitted exactly the served ones.
func TestRunWorkloadAgainstNode(t *testing.T) {
	res, stats := runAgainstNode(t, 40)
	sum := res.Summary()
	if sum.Ops != 40 || sum.Done == 0 {
		t.Fatalf("live run served nothing: %+v", sum)
	}
	if sum.Errored > 0 {
		t.Fatalf("unexpected errored proposals: %+v", sum)
	}
	if stats.Admitted != int64(sum.Done) {
		t.Fatalf("node admitted %d, workload served %d", stats.Admitted, sum.Done)
	}
}

// TestRunWorkloadReportAndSummary checks a real-Node run's report
// columns, a summary that partitions the ops, and ordered percentiles.
func TestRunWorkloadReportAndSummary(t *testing.T) {
	res, _ := runAgainstNode(t, 80)
	var buf bytes.Buffer
	if err := res.WriteReport(&buf); err != nil {
		t.Fatal(err)
	}
	for _, col := range []string{"class", "p50ms", "p99ms", "agree%", "fairness"} {
		if !strings.Contains(buf.String(), col) {
			t.Errorf("report missing %q:\n%s", col, buf.String())
		}
	}
	sum := res.Summary()
	if sum.Ops != 80 || sum.Done == 0 || sum.Done+sum.Shed+sum.Errored != sum.Ops {
		t.Fatalf("summary does not partition the ops: %+v", sum)
	}
	if sum.P99 < sum.P95 || sum.P95 < sum.P50 || sum.P50 <= 0 {
		t.Fatalf("implausible percentiles: %+v", sum)
	}
}

// TestRunWorkloadShedsUnderAdmission pins the live shed path: a node with
// a starved token bucket records shed outcomes, not errors.
func TestRunWorkloadShedsUnderAdmission(t *testing.T) {
	node, err := NewNode(NewSimTransport(), WithMaxInFlight(2), WithAdmission(1.0/3600, 5))
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	spec := apiWorkloadSpec()
	spec.Ops = 30
	spec.Rate = 10000
	res, err := RunWorkload(context.Background(), node, spec)
	if err != nil {
		t.Fatal(err)
	}
	sum := res.Summary()
	if sum.Done == 0 || sum.Shed == 0 {
		t.Fatalf("want both served and shed proposals, got %+v", sum)
	}
	if sum.Done > 5 {
		t.Fatalf("burst 5 bucket served %d", sum.Done)
	}
	if sum.Errored != 0 {
		t.Fatalf("sheds recorded as errors: %+v", sum)
	}
}

// TestRunWorkloadCancellation pins the cancelled-run contract: the
// remaining proposals are recorded as err and the partial result returns
// promptly.
func TestRunWorkloadCancellation(t *testing.T) {
	node, err := NewNode(NewSimTransport())
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	spec := apiWorkloadSpec()
	spec.Ops = 50
	spec.Rate = 10 // 5s of schedule — the cancel must cut it short
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := RunWorkload(ctx, node, spec)
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 3*time.Second {
		t.Fatal("cancelled run did not stop early")
	}
	sum := res.Summary()
	if sum.Ops != 50 || sum.Errored == 0 {
		t.Fatalf("cancelled run did not record the unissued tail: %+v", sum)
	}
}

// TestWorkloadSpecConversionErrors pins the public validation surface.
func TestWorkloadSpecConversionErrors(t *testing.T) {
	node, err := NewNode(NewSimTransport())
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	spec := apiWorkloadSpec()
	spec.Arrival = ArrivalProcess(42)
	if _, err := RunWorkload(context.Background(), node, spec); err == nil {
		t.Error("unknown arrival process accepted")
	}
	spec = apiWorkloadSpec()
	spec.Classes[0].Env = Environment(9)
	if _, err := RunWorkload(context.Background(), node, spec); err == nil {
		t.Error("unknown class environment accepted")
	}
	spec = apiWorkloadSpec()
	spec.Ops = 0
	if _, err := RunWorkload(context.Background(), node, spec); err == nil {
		t.Error("zero ops accepted")
	}
	if _, err := RunWorkload(context.Background(), nil, apiWorkloadSpec()); err == nil {
		t.Error("nil node accepted")
	}
}
