package wire

import (
	"testing"

	"anonconsensus/internal/giraf"
	"anonconsensus/internal/values"
)

// raceEnabled is set by race_test.go: the race detector's instrumentation
// moves locals to the heap, so the allocation pins hold only without it.
var raceEnabled bool

// steadyDelta is the steady state of an n=16 instance on a 0xD6 epoch
// stream, the frame the benchmark's wire probes time: a round-k envelope of
// 16 ES payloads (process i's set is {0..i}) re-broadcast after the first
// send, so all 16 travel as references and none in full.
func steadyDelta(t *testing.T) giraf.Envelope {
	t.Helper()
	sets := make([]values.Set, 16)
	for i := range sets {
		elems := make([]values.Value, i+1)
		for j := range elems {
			elems[j] = values.Num(int64(j))
		}
		sets[i] = values.NewSet(elems...)
	}
	tracker := giraf.NewDeltaTracker()
	_ = tracker.Shrink(fullEnvelope(1, sets...))
	delta := tracker.Shrink(fullEnvelope(2, sets...))
	if len(delta.Refs) != 16 || len(delta.Payloads) != 0 {
		t.Fatalf("steady envelope has %d refs and %d full payloads, want 16 and 0", len(delta.Refs), len(delta.Payloads))
	}
	return delta
}

// TestDeltaEnvelopeAllocBudget pins the frame codec's allocations on the
// steady-state 16-reference envelope, the allocation twin of the
// benchmark's wire.delta_encode_ns / wire.delta_decode_ns probes. The
// budgets are the measured counts: encoding 4 allocs/op (the growth steps
// of the 277-byte frame buffer), decoding 6 (the body reader and five
// doublings of the references slice; fingerprints are read straight out of
// the frame).
func TestDeltaEnvelopeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	delta := steadyDelta(t)
	frame, err := EncodeDeltaEnvelopeEpoch(delta, 1)
	if err != nil {
		t.Fatal(err)
	}
	const encodeBudget, decodeBudget = 4, 6
	encode := testing.AllocsPerRun(200, func() {
		if _, err := EncodeDeltaEnvelopeEpoch(delta, 1); err != nil {
			t.Fatal(err)
		}
	})
	if encode > encodeBudget {
		t.Errorf("EncodeDeltaEnvelopeEpoch: %v allocs/op, budget %d", encode, encodeBudget)
	}
	decode := testing.AllocsPerRun(200, func() {
		if _, _, err := DecodeDeltaEnvelopeEpoch(frame); err != nil {
			t.Fatal(err)
		}
	})
	if decode > decodeBudget {
		t.Errorf("DecodeDeltaEnvelopeEpoch: %v allocs/op, budget %d", decode, decodeBudget)
	}
}
