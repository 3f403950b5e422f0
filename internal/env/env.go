// Package env is the unified environment/adversary model: one description
// of "what the network does to the algorithm" shared by every backend.
//
// The paper's algorithms are parameterized by an environment — which links
// are timely in which round (MS, ES, ESS of §2.3), when stabilization
// happens, who crashes. Historically the repository encoded that model
// twice: internal/sim carried the round-delay policies for the lockstep
// simulator and internal/anonnet carried wall-clock latency profiles with
// the same MS/ES/ESS logic re-derived. This package owns both realizations:
//
//   - Policy (with DelayFn and SourceReporter) is the round-granularity
//     contract the deterministic simulator schedules deliveries with;
//     Synchronous, MS, ES, ESS, Async, AlternatingMS and Scripted implement
//     the paper's environments plus the adversarial and hand-scripted ones.
//
//   - LatencyModel is the wall-clock contract of the real-time runtimes
//     (anonnet, and by analogy tcpnet); Sync, MSProfile, ESProfile,
//     ESSProfile and AsyncProfile realize the same environments as link
//     latencies relative to a round interval.
//
//   - Scenario composes the fault dimensions the environments alone do not
//     model: a validated crash schedule, per-link message loss and
//     duplication rates, and round-ranged partitions. A Scenario is pure
//     data plus deterministic hash-based predicates, so every backend —
//     lockstep simulator, goroutine runtime, TCP hub — injects identical
//     fault decisions for identical seeds, and batched runs stay
//     byte-identical at any parallelism.
//
// internal/sim and internal/anonnet re-export these types under their
// historical names as thin aliases; new code should construct environments
// and scenarios from this package directly.
package env

import "math/rand"

// sourceFor derives a deterministic source for a given policy seed and
// stream label, so distinct policies never share streams. The stream labels
// are part of the repository's determinism contract: fixed-seed goldens pin
// the schedules they produce. The source keeps math/rand's exact stream and
// seeds only the words a policy's few draws read; the policies draw from it
// directly with intn.
func sourceFor(seed int64, stream string) *lazySource {
	h := int64(1469598103934665603)
	for _, b := range []byte(stream) {
		h ^= int64(b)
		h *= 1099511628211
	}
	s := new(lazySource)
	s.Seed(seed ^ h)
	return s
}

// rngFor is sourceFor's stream behind a *rand.Rand, for callers that draw
// through its other methods.
func rngFor(seed int64, stream string) *rand.Rand { return rand.New(sourceFor(seed, stream)) }

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func pickAny(xs []int) int {
	if len(xs) == 0 {
		return 0
	}
	return xs[0]
}
