# Developer entry points. CI runs the same targets.

# bash for the recipes' here-strings; pipefail so a failing stage of a
# recipe's pipeline fails the target instead of being masked by the last one.
SHELL       := /bin/bash
.SHELLFLAGS := -o pipefail -ec

GO        ?= go
FUZZTIME  ?= 10s

# Pinned external lint tools, installed on demand via `go run mod@version`
# (requires network/module-proxy access; the hermetic `make lint` does not).
STATICCHECK_MOD ?= honnef.co/go/tools/cmd/staticcheck@2025.1.1
GOVULNCHECK_MOD ?= golang.org/x/vuln/cmd/govulncheck@v1.1.4

.PHONY: test race flake build vet lint lint-external bench bench-harness perf fuzz-smoke scenarios-smoke explore-smoke chaos-smoke mux-smoke load-smoke loc

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint is the hermetic static-analysis plane: go vet plus the detlint
# determinism & aliasing suite (tools/detlint, driven by cmd/detlint).
# It needs nothing beyond the standard library and must pass clean on
# every commit; see TESTING.md "Static-analysis plane" for the analyzer
# list and the //detlint:<keyword> <reason> escape hatch.
lint: vet
	$(GO) run ./cmd/detlint ./...

# lint-external runs the pinned third-party checkers. `go run mod@version`
# resolves them through the module proxy, so unlike `make lint` this
# target needs network access the first time; CI runs it on every push.
lint-external:
	$(GO) run $(STATICCHECK_MOD) ./...
	$(GO) run $(GOVULNCHECK_MOD) ./...

test:
	$(GO) test ./...

# race runs the short suite under the race detector; CI runs it on every
# push so the trial plane's concurrency stays race-checked.
race:
	$(GO) test -race -short ./...

# flake makes nondeterministic failures structurally visible: the
# wall-clock packages — the ones whose tests race real timers, sockets and
# the scheduler — run FLAKE_COUNT times each, with one pass-rate line per
# package and a non-zero exit if any run of any package failed. A flake
# is a bug with a root cause, not noise to retry past. The root package's
# conformance matrix (every backend against the paper's properties) and
# its TCP chaos tests (a node's link cut mid-run on both TCP shapes) run
# the same way, so a flake there shows up as its pass rate. Each
# package's `go test -json` stream is kept under $(FLAKE_DIR), and
# tools/flakelog prints the whole log of every failed run, so a one-off
# failure leaves its message.
FLAKE_COUNT ?= 20
FLAKE_PKGS  ?= ./internal/msemu ./internal/anonnet ./internal/tcpnet ./internal/netchaos ./internal/rounddriver
FLAKE_DIR   ?= .bench_build/flake
flake:
	@mkdir -p $(FLAKE_DIR); $(GO) build -o $(FLAKE_DIR)/flakelog ./tools/flakelog; \
	status=0; for pkg in $(FLAKE_PKGS) '. -run ^TestConformance$$' '. -run ^TestTCPChaos'; do \
		log=$(FLAKE_DIR)/$$(tr -c 'a-zA-Z0-9\n' '_' <<<"$$pkg").json; \
		$(GO) test -count=$(FLAKE_COUNT) -json $$pkg > $$log 2>&1 || status=1; \
		$(FLAKE_DIR)/flakelog -pkg "$$pkg" -count $(FLAKE_COUNT) < $$log || status=1; \
	done; exit $$status

# loc prints the Go line counts that ROADMAP.md and CHANGES.md quote: every
# Go file in the tree, the non-test ones, and the non-test ones outside
# benchmark/ and tools/ (the library and its commands), which is the figure
# a simplicity change is judged by.
LOC_FILES := find . \( -path ./.git -o -path ./.bench_build \) -prune -o -name '*.go' -print
loc:
	@all=$$($(LOC_FILES) | xargs cat | wc -l); \
	src=$$($(LOC_FILES) | grep -v '_test\.go$$' | xargs cat | wc -l); \
	lib=$$($(LOC_FILES) | grep -v '_test\.go$$' | grep -v '^\./\(benchmark\|tools\)/' | xargs cat | wc -l); \
	echo "Go lines: $$all in all, $$src non-test, $$lib non-test outside benchmark/ and tools/"

# bench-harness vets and tests the repo benchmark (benchmark/, its own
# module compiled against internal/...): a change to a package the harness
# builds on breaks it here, not in the driver's post-merge run. It edits
# nothing under benchmark/.
bench-harness:
	$(GO) vet -C benchmark ./...
	$(GO) test -C benchmark ./...

# bench prints the in-package layer benchmarks (the ones beside their code
# under internal/) for a developer looking at one layer. Nothing records or
# gates their output: time belongs to the benchmark/ harness (make perf),
# allocations to the testing.AllocsPerRun pins inside `go test ./...`.
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./internal/...

# perf regenerates the recording PERFORMANCE.md quotes: the whole repo
# benchmark with five interleaved run sets (header with commit, Go version,
# CPU and nproc; the end-to-end runs; the layer probes at full length; one
# traced run per workload), then the recording compared with itself, which
# prints each workload's medians and IQRs. It writes the header, the
# comparison and the layer probes, verbatim, between PERFORMANCE.md's
# "make perf" markers. About a quarter of an hour.
PERF_DIR := .bench_build
perf:
	mkdir -p $(PERF_DIR)
	bash benchmark/run.sh -sets 5 -out $(PERF_DIR)/perf.json | tee $(PERF_DIR)/perf-suite.txt
	bash benchmark/run.sh -compare $(PERF_DIR)/perf.json $(PERF_DIR)/perf.json | tee $(PERF_DIR)/perf-compare.txt
	{ echo '```'; head -1 $(PERF_DIR)/perf-suite.txt; echo; cat $(PERF_DIR)/perf-compare.txt; echo; \
	  sed -n '/^layer probes$$/,/^$$/p' $(PERF_DIR)/perf-suite.txt | sed '$$d'; echo '```'; } > $(PERF_DIR)/perf-block.txt
	awk -v block=$(PERF_DIR)/perf-block.txt \
	  '/^<!-- make perf: end -->/ { while ((getline l < block) > 0) print l; skip = 0 } !skip { print } /^<!-- make perf: begin -->/ { skip = 1 }' \
	  PERFORMANCE.md > $(PERF_DIR)/PERFORMANCE.md
	mv $(PERF_DIR)/PERFORMANCE.md PERFORMANCE.md

# fuzz-smoke gives each native fuzz target a short budget; CI runs it on
# every push so codec and framing regressions surface before a long fuzz
# campaign would. FuzzReadFrames reads frame streams through a 16-byte
# bufio.Reader, the way the hub and the mux read their connections. FuzzCounters checks the hash-consed histories and the
# immutable sorted counter table against the string-keyed reference model,
# and FuzzSetOps the sorted-slice value sets against a map-based one. Both wire envelope targets drive the one frame codec
# (DecodeDeltaEnvelopeEpoch): FuzzDecodeEnvelope pins the payload codec's
# round-trip, FuzzDecodeDeltaEnvelope the refs, fingerprints and header peek.
# FuzzSharedRoundParity runs small simulated configurations against a
# reference run that delivers every envelope by its own Receive call, so it
# also compares the late deliveries a round-local run counts against the
# queued ones, with delay bounds that grow the delivery ring.
# FuzzPayloadContract checks the payload contract on random ES, ESS and Ω
# payloads and their parts: fingerprint and encoded size agree with the key.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzSetCodec$$' -fuzztime $(FUZZTIME) ./internal/values
	$(GO) test -run '^$$' -fuzz '^FuzzPairCodec$$' -fuzztime $(FUZZTIME) ./internal/values
	$(GO) test -run '^$$' -fuzz '^FuzzCounters$$' -fuzztime $(FUZZTIME) ./internal/values
	$(GO) test -run '^$$' -fuzz '^FuzzSetOps$$' -fuzztime $(FUZZTIME) ./internal/values
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeEnvelope$$' -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeDeltaEnvelope$$' -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzReadFrame$$' -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzReadFrames$$' -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzScenario$$' -fuzztime $(FUZZTIME) ./internal/env
	$(GO) test -run '^$$' -fuzz '^FuzzTrace$$' -fuzztime $(FUZZTIME) ./internal/explore
	$(GO) test -run '^$$' -fuzz '^FuzzSharedRoundParity$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzPayloadContract$$' -fuzztime $(FUZZTIME) ./internal/core

# scenarios-smoke renders the S1 scenario sweep on the shrunken grid: a
# fast end-to-end pass over the fault plane (loss, duplication, partitions,
# random adversary) that CI runs on every push.
scenarios-smoke:
	$(GO) run ./cmd/anonsim -exp S1 -quick

# chaos-smoke is the live plane's resilience pass, run by CI on every
# push: the netchaos package (seeded sever/stall/half-close/blackout
# schedules plus the chaos consensus property test), the tcpnet
# reconnect / session-resumption / heartbeat / hub kill+restart /
# Hello-only admission / released-session tests, the root-level chaos
# tests that cut one node's link mid-run on both TCP shapes (a slot cut
# for good is replaced, and its old session released), the held-rounds
# sweep (every link held for up to 64 beats in two rounds), the MS
# sweeps (a source in every round of every link-fault-free run: anonnet's
# ES/ESS profiles, and MuxNodes on every way an epoch is opened) and the
# conformance matrix — all under the race detector, in short mode, well
# under a minute.
chaos-smoke:
	$(GO) test -race -short -count=1 ./internal/netchaos
	$(GO) test -race -short -count=1 -run 'Reconnect|HubRestart|NeverHeals|Heartbeat|Overwhelm|Hello|NonHello|Release|^TestMuxRunsKeepMS$$' ./internal/tcpnet
	$(GO) test -race -short -count=1 -run '^(TestHeldRoundsKeepAgreement|TestProfilesKeepMS)$$' ./internal/anonnet
	$(GO) test -race -short -count=1 -run 'TestTCPChaos|^TestConformance$$' .

# mux-smoke is the multi-tenant service plane's quick pass, run by CI on
# every push, all under the race detector: the Propose/Wait/Forget/Close
# stress at several WithMaxInFlight widths, pooled-sim determinism
# (recycled engines byte-identical to fresh ones), admission control
# (token bucket + queue overflow shed as ErrOverloaded), the TCP
# multiplexing acceptance tests (many epochs over one hub and one
# connection per process, epoch-scoped retirement and replay, reconnect
# resumption, a resumed joiner's 2049-frame replay burst reaching its
# round driver whole (TestMuxResumeBurstReachesDriver), round 0 on the
# first beat however an epoch is opened, a late joiner and a session
# released mid-epoch keeping MS (TestMuxLateJoinerKeepsMS,
# TestMuxReleasedSessionKeepsMS), and the cursor a node reports beside
# each add (TestMuxReportsCursorBesideEachAdd)), the hub's batched byte
# path (its fan-out allocation pin, batches that stay whole and in order
# between heartbeats, no bytes lost behind a Welcome), the forgetting hub
# (TestHubForgets…: session queues trimmed behind each node's reported
# cursor, hostile reports clamped, nodes closed for good released,
# resumption across a trim, retired epochs as a low-water mark), the
# JoinTCP joiners (processes that may attach to an instance already under
# way), and the sustained-load scaling assertion — a k=8 pool must beat
# the sequential session at least 2× on the timer-bound live backend,
# which holds on any core count.
mux-smoke:
	$(GO) test -race -count=1 -run 'TestNodeStress|TestNodePool|TestNodeCloseMidFlight|TestSimPoolDeterminism|TestAdmission|TestEventDrop|TestTCPMux|TestJoinTCP|TestServiceThroughputScales' .
	$(GO) test -race -short -count=1 -run 'TestMux|TestRetireEpoch|TestEpoch|TestHubFanOut|TestHubWriteLoop|TestHubForgets' ./internal/tcpnet ./internal/wire

# load-smoke is the open-loop workload plane's quick pass, run by CI on
# every push: the workload package (generator, report) and the public
# RunWorkload/stats-invariant tests under the race detector, then one
# live anonload run with a process crashing in every instance and one run
# over the multiplexed TCP plane (every instance an epoch on one hub),
# each of which must exit 0.
load-smoke:
	$(GO) test -race -count=1 ./internal/workload
	$(GO) test -race -count=1 -run 'TestRunWorkload|TestWorkloadSpec|TestStatsInvariants|TestEnqueueAbort|TestNeverStarted|TestEventAccounting' .
	$(GO) run ./cmd/anonload -backend live -ops 20 -rate 200 -classes es:3:1 -crash 0:2
	$(GO) run ./cmd/anonload -backend mux -ops 20 -rate 200 -classes es:3:1

# explore-smoke is the exploration plane's quick pass, run by CI on every
# push: the exhaustive n=2 space (X1 quick), 10k randomized PCT-style
# trials with the random adversary on 60% of them, and the explore package
# under the race detector.
explore-smoke:
	$(GO) run ./cmd/anonsim -exp X1 -quick
	$(GO) run ./cmd/anonsim -explore -n 4 -trials 10000 -seed 1 -scenarios 60
	$(GO) test -race ./internal/explore
