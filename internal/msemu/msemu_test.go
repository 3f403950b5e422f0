package msemu

import (
	"strings"
	"testing"

	"anonconsensus/internal/core"
	"anonconsensus/internal/giraf"
	"anonconsensus/internal/register"
	"anonconsensus/internal/values"
	"anonconsensus/internal/weakset"
)

func esFactory(props []values.Value) func(i int) giraf.Automaton {
	return func(i int) giraf.Automaton { return core.NewES(props[i]) }
}

func TestEnvelopeCodecRoundTrip(t *testing.T) {
	env := giraf.Envelope{
		Round: 7,
		Payloads: []giraf.Payload{
			core.SetPayload{Proposed: values.NewSet(values.Num(1), values.Num(2))},
			core.SetPayload{Proposed: values.NewSet(values.Bot)},
		},
	}
	enc := encodeEnvelope(SetCodec{}, env)
	got, err := decodeEnvelope(SetCodec{}, enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Round != 7 || len(got.Payloads) != 2 {
		t.Fatalf("decoded %+v", got)
	}
	for i := range env.Payloads {
		if got.Payloads[i].PayloadKey() != env.Payloads[i].PayloadKey() {
			t.Errorf("payload %d key mismatch", i)
		}
	}
}

func TestEnvelopeCodecRejectsJunk(t *testing.T) {
	for _, raw := range []values.Value{"", "envl!", "envl!x!", "nope!3!", "envl!3!9:short"} {
		if _, err := decodeEnvelope(SetCodec{}, raw); err == nil {
			t.Errorf("decodeEnvelope(%q) succeeded", string(raw))
		}
	}
}

func TestEmulatedEnvironmentSatisfiesMS(t *testing.T) {
	// Theorem 4: GIRAF over a weak-set yields an MS environment.
	props := core.DistinctProposals(4)
	res, err := Run(Config{
		N:         4,
		Automaton: esFactory(props),
		Codec:     SetCodec{},
		Set:       &weakset.Memory{},
		MaxRounds: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errs) > 0 {
		t.Fatalf("process errors: %v", res.Errs)
	}
	if err := res.CheckMS(); err != nil {
		t.Fatal(err)
	}
	if len(res.Views) == 0 {
		t.Fatal("no round views recorded")
	}
}

func TestEmulatedRunPreservesConsensusSafety(t *testing.T) {
	// Whatever the emulated schedule does, decisions must satisfy
	// Agreement and Validity (liveness is NOT guaranteed in MS — that is
	// the FLP corollary).
	props := core.SplitProposals(5, 3)
	res, err := Run(Config{
		N:         5,
		Automaton: esFactory(props),
		Codec:     SetCodec{},
		Set:       &weakset.Memory{},
		MaxRounds: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errs) > 0 {
		t.Fatalf("process errors: %v", res.Errs)
	}
	if !decisionsSafe(res, props) {
		t.Errorf("unsafe decisions on emulated run: %+v", res.Outcomes)
	}
	if err := res.CheckMS(); err != nil {
		t.Fatal(err)
	}
}

func TestEmulationOverRegisterStack(t *testing.T) {
	// The full reduction: ABD quorum registers (known network) → Prop. 2
	// weak-set → Algorithm 5 MS emulation → anonymous GIRAF processes.
	// This is the constructive content of "registers emulate MS", which
	// imports FLP into the MS environment.
	const n = 3
	// One ABD cluster per slot: a cluster is ONE register, and Prop. 2
	// needs n single-writer registers. Handing out n Writer handles onto
	// one cluster makes each Add clobber its peers' sets — the
	// anonymous-writer failure §5 introduces the weak-set to avoid.
	slots := make([]weakset.Slot, n)
	for i := range slots {
		cluster := register.NewABD(5)
		defer cluster.Close()
		slots[i] = cluster.Writer(i + 1)
	}
	// Each emulated process must add through its own SWMR handle.
	swmr := weakset.NewFromSWMR(slots)
	handles := make([]weakset.WeakSet, n)
	for i := range handles {
		handles[i] = swmr.Handle(i)
	}
	props := core.DistinctProposals(n)
	res, err := Run(Config{
		N:         n,
		Automaton: esFactory(props),
		Codec:     SetCodec{},
		SetFor:    func(i int) weakset.WeakSet { return handles[i] },
		MaxRounds: 15,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errs) > 0 {
		t.Fatalf("process errors: %v", res.Errs)
	}
	if err := res.CheckMS(); err != nil {
		t.Fatal(err)
	}
}

func TestRunValidation(t *testing.T) {
	base := Config{
		N:         2,
		Automaton: esFactory(core.DistinctProposals(2)),
		Codec:     SetCodec{},
		Set:       &weakset.Memory{},
		MaxRounds: 5,
	}
	for name, mutate := range map[string]func(*Config){
		"zero N":        func(c *Config) { c.N = 0 },
		"nil automaton": func(c *Config) { c.Automaton = nil },
		"nil codec":     func(c *Config) { c.Codec = nil },
		"nil set":       func(c *Config) { c.Set = nil },
		"zero rounds":   func(c *Config) { c.MaxRounds = 0 },
	} {
		t.Run(name, func(t *testing.T) {
			cfg := base
			mutate(&cfg)
			if _, err := Run(cfg); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}

func TestCheckMSDetectsViolation(t *testing.T) {
	// Hand-built views where no payload reached every inbox.
	res := &Result{Views: []RoundView{
		{Proc: 0, Round: 1, Inbox: map[string]bool{"a": true}, OwnPayload: "a"},
		{Proc: 1, Round: 1, Inbox: map[string]bool{"b": true}, OwnPayload: "b"},
	}}
	if err := res.CheckMS(); err == nil {
		t.Error("violation not detected")
	}
}

func TestCheckMSNamesSmallestViolatingRound(t *testing.T) {
	// Rounds 2 and 5 both lack a source; the report must name round 2
	// every time, whatever the map iteration order.
	var views []RoundView
	for _, round := range []int{5, 1, 2} {
		views = append(views,
			RoundView{Proc: 0, Round: round, Inbox: map[string]bool{"a": true, "b": round == 1}, OwnPayload: "a"},
			RoundView{Proc: 1, Round: round, Inbox: map[string]bool{"b": true}, OwnPayload: "b"})
	}
	res := &Result{Views: views}
	for i := 0; i < 50; i++ {
		err := res.CheckMS()
		if err == nil || !strings.Contains(err.Error(), "round 2:") {
			t.Fatalf("check %d: %v, want round 2 named", i, err)
		}
	}
}
