package core

import (
	"testing"

	"anonconsensus/internal/env"
	"anonconsensus/internal/giraf"
	"anonconsensus/internal/values"
)

// TestDominanceSkipEngages pins where MergesSkipped counts: the deliveries
// a shared round absorbed. A fault-free synchronous ES run with two camps
// shares its rounds once the camps' sets stop colliding, so some but not
// all deliveries are absorbed; the same run under a partition that never
// comes into force delivers every envelope per receiver and absorbs none.
func TestDominanceSkipEngages(t *testing.T) {
	props := SplitProposals(16, 2)
	res, err := RunES(props, RunOpts{Policy: env.Synchronous{}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllCorrectDecided() {
		t.Fatal("run did not decide")
	}
	if res.Metrics.MergesSkipped == 0 {
		t.Error("no delivery was ever absorbed by a shared round in a converging synchronous run")
	}
	if res.Metrics.MergesSkipped >= res.Metrics.Deliveries {
		t.Errorf("shared deliveries %d must stay below deliveries %d (the two-camp round is not shared)",
			res.Metrics.MergesSkipped, res.Metrics.Deliveries)
	}
	never := &env.Scenario{Partitions: []env.Partition{{From: 1000, Until: 1001, Cut: 1}}}
	res, err = RunES(props, RunOpts{Policy: env.Synchronous{}, Scenario: never})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllCorrectDecided() || res.Metrics.MergesSkipped != 0 {
		t.Errorf("under a never-active partition: decided %v, shared deliveries %d, want true and 0",
			res.AllCorrectDecided(), res.Metrics.MergesSkipped)
	}
}

// TestPayloadEncodedSizeContract pins PayloadEncodedSize() ==
// len(PayloadKey()) for every payload type the simulator accounts, so the
// envelopeBytes fast path cannot drift from the canonical encoding.
func TestPayloadEncodedSizeContract(t *testing.T) {
	set := values.NewSet("a", "bb", "⊥")
	payloads := []giraf.Payload{
		SetPayload{Proposed: set},
		SetPayload{Proposed: values.NewSet()},
		MakeESSPayload(set, values.History{}, values.Counters{}),
	}
	for _, p := range payloads {
		if got, want := p.PayloadEncodedSize(), len(p.PayloadKey()); got != want {
			t.Errorf("%T: PayloadEncodedSize() = %d, len(PayloadKey()) = %d", p, got, want)
		}
	}
}
