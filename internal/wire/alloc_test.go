package wire

import (
	"testing"

	"anonconsensus/internal/giraf"
	"anonconsensus/internal/values"
)

// raceEnabled is set by race_test.go: the race detector's instrumentation
// moves locals to the heap, so the allocation pins hold only without it.
var raceEnabled bool

// stairSets are the 16 ES payload sets of an n=16 instance in which
// process i's set is {0..i}.
func stairSets() []values.Set {
	sets := make([]values.Set, 16)
	for i := range sets {
		elems := make([]values.Value, i+1)
		for j := range elems {
			elems[j] = values.Num(int64(j))
		}
		sets[i] = values.NewSet(elems...)
	}
	return sets
}

// steadyDelta is the steady state of an n=16 instance on a 0xD6 epoch
// stream, the frame the benchmark's wire probes time: a round-k envelope of
// the 16 stair sets re-broadcast after the first send, so all 16 travel as
// references and none in full.
func steadyDelta(t *testing.T) giraf.Envelope {
	t.Helper()
	sets := stairSets()
	tracker := giraf.NewDeltaTracker()
	_ = tracker.Shrink(fullEnvelope(1, sets...))
	delta := tracker.Shrink(fullEnvelope(2, sets...))
	if len(delta.Refs) != 16 || len(delta.Payloads) != 0 {
		t.Fatalf("steady envelope has %d refs and %d full payloads, want 16 and 0", len(delta.Refs), len(delta.Payloads))
	}
	return delta
}

// TestDeltaEnvelopeAllocBudget pins the frame codec's allocations on two
// frames: the steady-state 16-reference envelope, the allocation twin of
// the benchmark's wire.delta_encode_ns / wire.delta_decode_ns probes, and
// the first frame of the same stream, where all 16 stair sets travel in
// full. The budgets are the measured counts. Encoding the steady frame
// costs 4 (the growth steps of the 277-byte frame buffer); decoding it 1,
// the references slice, sized from the count (fingerprints are read
// straight out of the frame, and the body reader stays on the stack).
// Encoding the full frame costs 22: the buffer's growth steps and one
// Sorted copy per set. Decoding it costs 184: one string per value (136),
// per set its storage (two allocations, one for the singleton) and its
// boxing as a payload (47 for the 16 sets), and the payload slice, sized
// from the count.
func TestDeltaEnvelopeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	full := giraf.NewDeltaTracker().Shrink(fullEnvelope(1, stairSets()...))
	if len(full.Payloads) != 16 {
		t.Fatalf("first envelope has %d full payloads, want 16", len(full.Payloads))
	}
	for _, tc := range []struct {
		name                       string
		env                        giraf.Envelope
		encodeBudget, decodeBudget float64
	}{
		{"steady", steadyDelta(t), 4, 1},
		{"full", full, 22, 184},
	} {
		frame, err := EncodeDeltaEnvelopeEpoch(tc.env, 1)
		if err != nil {
			t.Fatal(err)
		}
		encode := testing.AllocsPerRun(200, func() {
			if _, err := EncodeDeltaEnvelopeEpoch(tc.env, 1); err != nil {
				t.Fatal(err)
			}
		})
		if encode > tc.encodeBudget {
			t.Errorf("%s: EncodeDeltaEnvelopeEpoch: %v allocs/op, budget %v", tc.name, encode, tc.encodeBudget)
		}
		decode := testing.AllocsPerRun(200, func() {
			if _, _, err := DecodeDeltaEnvelopeEpoch(frame); err != nil {
				t.Fatal(err)
			}
		})
		if decode > tc.decodeBudget {
			t.Errorf("%s: DecodeDeltaEnvelopeEpoch: %v allocs/op, budget %v", tc.name, decode, tc.decodeBudget)
		}
	}
}
