// Package anonconsensus is a Go implementation of "Fault-Tolerant
// Consensus in Unknown and Anonymous Networks" (Delporte-Gallet,
// Fauconnier, Tielmann; ICDCS 2009): crash-tolerant consensus, shared
// weak-sets and register emulations for networks where processes have no
// identities and do not know how many peers exist.
//
// # Sessions: Node over a Transport
//
// The primary API is a long-lived Node running a sequence of consensus
// instances over one Transport:
//
//	node, err := anonconsensus.NewNode(anonconsensus.NewLiveTransport(),
//		anonconsensus.WithEnv(anonconsensus.EnvES),
//		anonconsensus.WithGST(5))
//	defer node.Close()
//	res, err := node.Run(ctx, "epoch-1", proposals)
//
// Propose enqueues instances without blocking on their runs, Decisions
// streams outcomes instance by instance as each run completes (one event
// per deciding process), Wait collects a single instance's Result, and
// every run is cancellable through its context.Context. Options (WithEnv, WithGST, WithSeed, WithCrashes,
// WithStableSource, WithInterval, WithTimeout, WithMaxRounds, and the
// scenario plane below) set session defaults and can be overridden per
// instance.
//
// # Fault scenarios
//
// Beyond the synchrony environment, every run can carry a composable fault
// Scenario: a validated crash schedule, per-link message loss and
// duplication rates, and round-ranged partitions that split the ring until
// they heal. WithScenario sets the whole overlay; WithLoss,
// WithDuplication, WithPartition and WithCrashes dial individual
// dimensions; RandomScenario derives a reproducible seeded adversary.
// Fault draws are deterministic hash functions of the run seed: on the
// deterministic simulator a scenario'd spec replays exactly and a sim
// Node's sweeps stay byte-identical at any WithMaxInFlight; the live
// in-process backend makes the same per-(round, link) decisions in real
// time, and so does the TCP hub, which reads each frame's round from its
// header and indexes processes by connection order. The wall-clock
// backends still time deliveries by the scheduler, so their runs are
// reproducible in distribution, not byte-for-byte. Loss and partitions deliberately
// break the model's reliable-broadcast assumption — exploring how the
// algorithms degrade (split-brain blocks under a never-healing partition,
// falling agreement rates under loss) is what the plane is for; see the
// README scenario cookbook and experiment S1.
//
// Three transports realize the paper's environments on different
// substrates behind the one interface:
//
//   - NewLiveTransport: a live in-process network — one goroutine per
//     anonymous process, in-memory broadcast with configurable link
//     latencies realizing ES (eventually synchronous) and ESS (eventually
//     stable source) physically, with drifting local round timers.
//
//   - NewSimTransport: the deterministic lockstep simulator with seeded
//     adversarial schedules, crash injection and machine-checked
//     environment properties — the engine behind the reproduction
//     experiments (README lists them: tables T1–T10, figures F1–F3).
//     Identical specs give identical Results.
//
//   - NewTCPTransport: real TCP through an anonymous broadcast hub;
//     frames carry no sender identity and the hub relays without
//     annotating origin. NewTCPMuxTransport is the same plane kept for
//     the transport's life: one hub, one connection per process, every
//     instance an epoch. NewTCPHub and JoinTCP expose the same substrate
//     for genuinely distributed deployments (see cmd/anonnode).
//
// # Shared memory side
//
// NewWeakSet / NewRegister expose the paper's shared-memory results: the
// weak-set data structure (§5), the regular register built from it
// (Proposition 1), and NewOFConsensus the cited obstruction-free
// consensus.
//
// The algorithm internals live under internal/: see internal/core for
// Algorithms 2 and 3 (including the pseudo leader election), internal/env
// for the unified environment/adversary model (round-delay policies,
// wall-clock latency profiles and fault scenarios — one model shared by
// all backends), internal/weakset, internal/register, internal/msemu and
// internal/fd for the substrate results, and DESIGN.md for the full
// inventory.
//
// # Verification
//
// TESTING.md maps every test plane to its make targets and CI jobs. The
// conformance matrix (TestConformance) holds every backend to the paper's
// properties, judged by the one checker in internal/property. The
// static-analysis plane (make lint) runs the tools/detlint determinism &
// aliasing suite: deterministic packages are machine-checked against map
// iteration order, wall clocks, global randomness, aliased slice/map
// returns and untracked goroutines, with //detlint:<keyword> <reason>
// comments as the audited escape hatch.
package anonconsensus
