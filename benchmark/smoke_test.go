package main

import (
	"testing"
	"time"
)

// smokeScale is -smoke at the manifest's run_seconds of 20: 1/50 of the
// window, one set-up with one warm-up op, 1/50 of the digest ops.
var smokeScale = scale{window: 400 * time.Millisecond, setups: 1, warmups: 1, digestDiv: 50}

// TestSmokeAllWorkloads is a functional pass over all five workloads at
// 1/50 scale: every op must pass its checks, and every end-to-end metric
// BENCHMARK.json lists must come out.
func TestSmokeAllWorkloads(t *testing.T) {
	man, err := readManifest()
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(man.Workloads), len(workloads))
	}
	for i := range workloads {
		w := &workloads[i]
		if man.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the harness", i, man.Workloads[i].Name, w.name)
		}
		t.Run(w.name, func(t *testing.T) {
			r, err := runEndToEnd(w, 5, smokeScale)
			if err != nil {
				t.Fatal(err)
			}
			if r.Failed != 0 || !r.Correct || r.Attempted == 0 {
				t.Errorf("attempted %d, failed %d %v", r.Attempted, r.Failed, r.Fails)
			}
			for _, m := range man.EndToEnd {
				got, ok := r.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || !(got.Value > 0) {
					t.Errorf("end-to-end metric %s: got %+v (present %v), want a positive value in %s", m.Name, got, ok, m.Unit)
				}
			}
			if (w.digestOps > 0) != (r.Digest != "") {
				t.Errorf("result_digest %q on a workload with digestOps %d", r.Digest, w.digestOps)
			}
			if w.name == "sim_closed" { // the cheap one: an op of sim_bign takes 80 ms
				again, err := replayDigest(w, 5, 1, w.digestOps/smokeScale.digestDiv, nil)
				if err != nil {
					t.Fatal(err)
				}
				if again != r.Digest {
					t.Errorf("result_digest %s then %s with the same seed", r.Digest, again)
				}
			}
		})
	}
}

// TestPerLayerMetricsMatchManifest runs a traced smoke run and the layer
// probes and checks that together they produce every per-layer metric
// BENCHMARK.json lists, in the listed unit.
func TestPerLayerMetricsMatchManifest(t *testing.T) {
	man, err := readManifest()
	if err != nil {
		t.Fatal(err)
	}
	sc := smokeScale
	sc.window = 100 * time.Millisecond // the names are checked here, not the numbers
	r, err := runTraced(workloadByName("sim_closed"), 5, sc, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if r.Failed != 0 || r.Invalid != "" {
		t.Errorf("traced run: failed %d, invalid %q", r.Failed, r.Invalid)
	}
	probes, err := runProbes(50 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	r.set.merge(probes)
	for _, m := range man.PerLayer {
		got, ok := r.set.byKey[m.Name]
		if !ok || got.Unit != m.Unit {
			t.Errorf("per-layer metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
		}
	}
}
