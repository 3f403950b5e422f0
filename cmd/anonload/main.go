// Command anonload drives a consensus Node with seeded open-loop traffic
// (Poisson, Gamma or Weibull arrivals, multi-class mixes) and prints the
// SLO report — p50/p95/p99 decision latency, throughput, shed rate,
// agreement and per-class fairness.
//
// Usage:
//
//	anonload -ops 200 -rate 400                                  # sim backend
//	anonload -servers 4 -admit 300:16                            # pool + token bucket
//	anonload -backend live -classes es:4:1 -ops 3                # live in-process network
//	anonload -backend live -classes ess:5:1 -gst 4 -crash 0:2 -ops 3
//	anonload -backend live -classes es:5:1 -ops 12 -servers 6 -admit 100:8
//	anonload -backend mux -classes es:3:1 -ops 20 -rate 200     # TCP hub, one connection per process
//
// -servers is the Node's worker pool, -queue its backlog and -admit
// rate:burst its token bucket: proposals the Node sheds are counted in the
// report, not fatal. -crash pid:round (repeatable) crashes that process in
// every instance of every class.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"anonconsensus"
)

// crashFlags collects repeated -crash pid:round flags.
type crashFlags map[int]int

func (c crashFlags) String() string { return fmt.Sprint(map[int]int(c)) }

func (c crashFlags) Set(s string) error {
	parts := strings.SplitN(s, ":", 2)
	if len(parts) != 2 {
		return fmt.Errorf("want pid:round, got %q", s)
	}
	pid, err := strconv.Atoi(parts[0])
	if err != nil {
		return fmt.Errorf("bad pid in %q: %w", s, err)
	}
	round, err := strconv.Atoi(parts[1])
	if err != nil {
		return fmt.Errorf("bad round in %q: %w", s, err)
	}
	c[pid] = round
	return nil
}

func main() {
	o := options{crashes: crashFlags{}}
	flag.StringVar(&o.backend, "backend", "sim", "node backend: sim (deterministic simulator), live (in-process network) or mux (TCP hub, every instance an epoch over one connection per process)")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed (fixes arrivals, class mix and adversary seeds)")
	flag.IntVar(&o.ops, "ops", 200, "number of proposals")
	flag.Float64Var(&o.rate, "rate", 400, "mean arrival rate, proposals/sec")
	flag.StringVar(&o.arrival, "arrival", "poisson", "arrival process: poisson, gamma or weibull")
	flag.Float64Var(&o.shape, "shape", 2, "gamma/weibull shape parameter")
	flag.StringVar(&o.classes, "classes", "es:4:3,ess:3:1", "client mix: comma-separated alg:n:weight")
	flag.IntVar(&o.gst, "gst", 2, "stabilization round for every class")
	flag.IntVar(&o.servers, "servers", 4, "node worker pool size (instances in flight)")
	flag.IntVar(&o.queue, "queue", 64, "node queue depth")
	flag.StringVar(&o.admit, "admit", "", "admission token bucket, rate:burst (empty = off)")
	flag.DurationVar(&o.interval, "interval", 0,
		"live round interval (0 = the transport's default)")
	flag.Var(o.crashes, "crash", "crash schedule pid:round for every instance (repeatable)")
	flag.Parse()
	if err := run(os.Stdout, o); err != nil {
		fmt.Fprintln(os.Stderr, "anonload:", err)
		os.Exit(1)
	}
}

// options carries the parsed flags (kept as one bag so tests can call run
// directly).
type options struct {
	backend  string
	seed     int64
	ops      int
	rate     float64
	arrival  string
	shape    float64
	classes  string
	gst      int
	servers  int
	queue    int
	admit    string
	interval time.Duration
	crashes  crashFlags
}

// parseArrival maps the flag token to the public enum.
func parseArrival(s string) (anonconsensus.ArrivalProcess, error) {
	switch s {
	case "poisson":
		return anonconsensus.PoissonArrivals, nil
	case "gamma":
		return anonconsensus.GammaArrivals, nil
	case "weibull":
		return anonconsensus.WeibullArrivals, nil
	default:
		return 0, fmt.Errorf("unknown arrival process %q (want poisson, gamma or weibull)", s)
	}
}

// parseClasses parses the -classes mix: comma-separated alg:n:weight
// entries, e.g. "es:4:3,ess:3:1". Class names are derived ("c0-es"). Every
// class carries the crash schedule, and an ESS class's eventual source is
// the lowest process the schedule spares, since the source must be correct.
func parseClasses(s string, gst int, crashes crashFlags) ([]anonconsensus.WorkloadClass, error) {
	if s == "" {
		return nil, fmt.Errorf("empty -classes")
	}
	var out []anonconsensus.WorkloadClass
	for i, entry := range strings.Split(s, ",") {
		parts := strings.Split(entry, ":")
		if len(parts) != 3 {
			return nil, fmt.Errorf("class %q: want alg:n:weight", entry)
		}
		c := anonconsensus.WorkloadClass{GST: gst}
		switch parts[0] {
		case "es":
			c.Env = anonconsensus.EnvES
		case "ess":
			c.Env = anonconsensus.EnvESS
		default:
			return nil, fmt.Errorf("class %q: unknown algorithm %q (want es or ess)", entry, parts[0])
		}
		n, err := strconv.Atoi(parts[1])
		if err != nil || n < 1 {
			return nil, fmt.Errorf("class %q: bad ensemble size %q", entry, parts[1])
		}
		w, err := strconv.Atoi(parts[2])
		if err != nil || w < 1 {
			return nil, fmt.Errorf("class %q: bad weight %q", entry, parts[2])
		}
		c.N, c.Weight = n, w
		c.Name = fmt.Sprintf("c%d-%s", i, parts[0])
		if len(crashes) > 0 {
			c.Scenario.Crashes = crashes
		}
		for c.Env == anonconsensus.EnvESS && c.StableSource < n-1 && crashes[c.StableSource] > 0 {
			c.StableSource++
		}
		out = append(out, c)
	}
	return out, nil
}

// parseAdmit parses rate:burst ("" = disabled).
func parseAdmit(s string) (rate float64, burst int, err error) {
	if s == "" {
		return 0, 0, nil
	}
	parts := strings.SplitN(s, ":", 2)
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("want rate:burst, got %q", s)
	}
	rate, err = strconv.ParseFloat(parts[0], 64)
	if err != nil || rate <= 0 {
		return 0, 0, fmt.Errorf("bad admission rate %q", parts[0])
	}
	burst, err = strconv.Atoi(parts[1])
	if err != nil || burst < 1 {
		return 0, 0, fmt.Errorf("bad admission burst %q", parts[1])
	}
	return rate, burst, nil
}

func run(w io.Writer, o options) error {
	arrival, err := parseArrival(o.arrival)
	if err != nil {
		return err
	}
	classList, err := parseClasses(o.classes, o.gst, o.crashes)
	if err != nil {
		return err
	}
	admitRate, admitBurst, err := parseAdmit(o.admit)
	if err != nil {
		return fmt.Errorf("-admit: %w", err)
	}
	var transport anonconsensus.Transport
	switch o.backend {
	case "sim":
		transport = anonconsensus.NewSimTransport()
	case "live":
		transport = anonconsensus.NewLiveTransport()
	case "mux":
		transport = anonconsensus.NewTCPMuxTransport()
	default:
		return fmt.Errorf("unknown backend %q (want sim, live or mux)", o.backend)
	}
	nodeOpts := []anonconsensus.Option{
		anonconsensus.WithMaxInFlight(o.servers),
		anonconsensus.WithQueueDepth(o.queue),
	}
	if o.interval != 0 {
		nodeOpts = append(nodeOpts, anonconsensus.WithInterval(o.interval))
	}
	if admitRate > 0 {
		nodeOpts = append(nodeOpts, anonconsensus.WithAdmission(admitRate, admitBurst))
	}
	node, err := anonconsensus.NewNode(transport, nodeOpts...)
	if err != nil {
		return err
	}
	res, err := anonconsensus.RunWorkload(context.Background(), node, anonconsensus.WorkloadSpec{
		Seed: o.seed, Ops: o.ops, Rate: o.rate,
		Arrival: arrival, Shape: o.shape, Classes: classList,
	})
	if cerr := node.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return res.WriteReport(w)
}
