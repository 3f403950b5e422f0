package main

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func baseOptions() options {
	return options{
		backend: "sim", seed: 1, ops: 60, rate: 400,
		arrival: "poisson", shape: 2, classes: "es:4:3,ess:3:1", gst: 2,
		servers: 4, queue: 8, admit: "300:16",
	}
}

// liveOptions is one live class at 4 ms beats, the shape of the live
// end-to-end cases below.
func liveOptions(classes string, gst, ops int) options {
	o := baseOptions()
	o.backend, o.classes, o.gst, o.ops, o.admit = "live", classes, gst, ops, ""
	o.interval = 4 * time.Millisecond
	return o
}

// totalRow runs anonload and returns the report's run-level row, keyed by
// column header.
func totalRow(t *testing.T, o options) map[string]string {
	t.Helper()
	var buf bytes.Buffer
	if err := run(&buf, o); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(buf.String(), "\n")
	header := strings.Fields(lines[0])
	for _, line := range lines {
		cells := strings.Fields(line)
		if len(cells) == len(header) && cells[0] == "all" {
			row := make(map[string]string, len(header))
			for i, h := range header {
				row[h] = cells[i]
			}
			return row
		}
	}
	t.Fatalf("report has no run-level row:\n%s", buf.String())
	return nil
}

// wantRow asserts every proposal was served or shed as given, and every
// served instance reached agreement.
func wantRow(t *testing.T, row map[string]string, ok, shedPct string) {
	t.Helper()
	if row["ok"] != ok || row["shed%"] != shedPct || row["agree%"] != "100" {
		t.Fatalf("report row %v: want ok=%s shed%%=%s agree%%=100", row, ok, shedPct)
	}
}

func TestParseClasses(t *testing.T) {
	cs, err := parseClasses("es:4:3,ess:3:1", 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 2 || cs[0].N != 4 || cs[0].Weight != 3 || cs[1].Weight != 1 {
		t.Fatalf("parsed %+v", cs)
	}
	if cs[0].Name == cs[1].Name {
		t.Fatal("derived class names collide")
	}
	if cs[0].Scenario.Crashes != nil || cs[1].StableSource != 0 {
		t.Fatalf("no -crash must mean fault-free classes with source 0: %+v", cs)
	}
	for _, bad := range []string{"", "es", "es:4", "es:4:3:9", "maybe:4:3", "es:x:3", "es:0:3", "es:4:0"} {
		if _, err := parseClasses(bad, 2, nil); err == nil {
			t.Errorf("parseClasses(%q) accepted", bad)
		}
	}
	// The ESS source must be correct: it skips the crashed processes.
	cs, err = parseClasses("ess:4:1,es:4:1", 2, crashFlags{0: 2, 1: 5})
	if err != nil {
		t.Fatal(err)
	}
	if cs[0].StableSource != 2 || cs[1].StableSource != 0 {
		t.Errorf("sources = %d, %d; want 2 (lowest spared) and 0 (ES)", cs[0].StableSource, cs[1].StableSource)
	}
	for _, c := range cs {
		if c.Scenario.Crashes[0] != 2 || c.Scenario.Crashes[1] != 5 {
			t.Errorf("class %s lost the crash schedule: %v", c.Name, c.Scenario.Crashes)
		}
	}
}

func TestCrashFlagsParsing(t *testing.T) {
	c := crashFlags{}
	if err := c.Set("3:7"); err != nil {
		t.Fatal(err)
	}
	if err := c.Set("0:2"); err != nil {
		t.Fatal(err)
	}
	if c[3] != 7 || c[0] != 2 {
		t.Errorf("parsed = %v", c)
	}
	for _, bad := range []string{"", "3", "x:1", "1:y", ":"} {
		if err := c.Set(bad); err == nil {
			t.Errorf("Set(%q) accepted", bad)
		}
	}
	if c.String() == "" {
		t.Error("String must render")
	}
}

func TestParseAdmitAndArrival(t *testing.T) {
	if rate, burst, err := parseAdmit("300:16"); err != nil || rate != 300 || burst != 16 {
		t.Errorf("parseAdmit(300:16) = %v, %v, %v", rate, burst, err)
	}
	for _, bad := range []string{"", "normal", "pois"} {
		if _, err := parseArrival(bad); err == nil {
			t.Errorf("parseArrival(%q) accepted", bad)
		}
	}
}

func TestAdmitFlagParsing(t *testing.T) {
	if rate, burst, err := parseAdmit("0.5:1"); err != nil || rate != 0.5 || burst != 1 {
		t.Errorf("parseAdmit(0.5:1) = %v, %v, %v", rate, burst, err)
	}
	if rate, burst, err := parseAdmit(""); err != nil || rate != 0 || burst != 0 {
		t.Errorf("empty -admit must mean disabled, got %v, %v, %v", rate, burst, err)
	}
	for _, bad := range []string{"300", "x:1", "1:y", ":", "-1:5", "5:0"} {
		if _, _, err := parseAdmit(bad); err == nil {
			t.Errorf("parseAdmit(%q) accepted", bad)
		}
	}
}

func TestNodeBackendRun(t *testing.T) {
	o := baseOptions()
	o.ops = 30
	o.rate = 3000
	o.admit = ""
	wantRow(t, totalRow(t, o), "30", "0.0")
}

func TestRunLiveEndToEnd(t *testing.T) {
	wantRow(t, totalRow(t, liveOptions("es:3:1", 2, 1)), "1", "0.0")
}

// TestRunLiveMultiInstanceSession runs several instances over one live Node.
func TestRunLiveMultiInstanceSession(t *testing.T) {
	if testing.Short() {
		t.Skip("multiple live instances in -short mode")
	}
	wantRow(t, totalRow(t, liveOptions("es:3:1", 2, 3)), "3", "0.0")
}

func TestRunLiveESSWithCrash(t *testing.T) {
	o := liveOptions("ess:4:1", 3, 1)
	o.crashes = crashFlags{0: 2}
	wantRow(t, totalRow(t, o), "1", "0.0")
}

// TestRunLiveServiceMode drives the service shape end to end: a worker
// pool runs instances concurrently while the token bucket sheds the
// overflow — shed proposals must not fail the run.
func TestRunLiveServiceMode(t *testing.T) {
	if testing.Short() {
		t.Skip("multiple live instances in -short mode")
	}
	// Burst 2 at a negligible refill rate: of 4 proposals arriving within
	// a few milliseconds, 2 are admitted and 2 shed.
	o := liveOptions("es:3:1", 2, 4)
	o.rate, o.admit = 1000, "0.001:2"
	wantRow(t, totalRow(t, o), "2", "50.0")
}

// TestRunMuxServiceMode is the service shape over the multiplexed TCP
// plane: every instance runs as its own epoch on one hub, the worker pool
// runs them concurrently and the token bucket sheds the overflow.
func TestRunMuxServiceMode(t *testing.T) {
	if testing.Short() {
		t.Skip("multiplexed TCP service in -short mode")
	}
	// Burst 3 at a negligible refill rate: of 5 proposals arriving within
	// a few milliseconds, 3 are admitted and 2 shed.
	o := liveOptions("es:3:1", 2, 5)
	o.backend, o.rate, o.admit = "mux", 1000, "0.001:3"
	wantRow(t, totalRow(t, o), "3", "40.0")
}

func TestRunRejectsBadFlags(t *testing.T) {
	bad := map[string]func(*options){
		"unknown backend": func(o *options) { o.backend = "warp" },
		"unknown arrival": func(o *options) { o.arrival = "uniform" },
		"zero ops":        func(o *options) { o.ops = 0 },
		"crash outside n": func(o *options) { o.classes, o.crashes = "es:3:1", crashFlags{9: 2} },
	}
	for name, mutate := range bad {
		o := baseOptions()
		mutate(&o)
		if err := run(&bytes.Buffer{}, o); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestRunRejectsUnknownEnv(t *testing.T) {
	if err := run(&bytes.Buffer{}, liveOptions("banana:3:1", 2, 1)); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestRunRejectsZeroInstances(t *testing.T) {
	if err := run(&bytes.Buffer{}, liveOptions("es:3:1", 2, 0)); err == nil {
		t.Error("zero ops accepted")
	}
}

func TestRunRejectsBadAdmit(t *testing.T) {
	o := liveOptions("es:3:1", 2, 1)
	o.admit = "nope"
	if err := run(&bytes.Buffer{}, o); err == nil {
		t.Error("malformed -admit accepted")
	}
}
