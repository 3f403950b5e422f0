package msemu

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"anonconsensus/internal/core"
	"anonconsensus/internal/env"
	"anonconsensus/internal/giraf"
	"anonconsensus/internal/property"
	"anonconsensus/internal/values"
	"anonconsensus/internal/weakset"
)

// scenarioSet wraps the shared weak-set with env.Scenario-driven faults for
// one process, mirroring the register/weakset property suites on the
// emulation plane: a duplication draw re-executes the operation (idempotent
// for set semantics), a loss draw fails it with a transient error before it
// takes effect — which makes the affected process abort its Algorithm 5
// loop, i.e. crash mid-round, the fault the emulation must tolerate. Draws
// are deterministic in (scenario seed, per-process op counter).
type scenarioSet struct {
	inner weakset.WeakSet
	sc    *env.Scenario
	proc  int

	mu  sync.Mutex
	ops int
}

func (s *scenarioSet) nextOp() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ops++
	return s.ops
}

func (s *scenarioSet) Add(v values.Value) error {
	op := s.nextOp()
	if s.sc.Drops(op, s.proc, 0) {
		return fmt.Errorf("scenario set: add lost (op %d, proc %d)", op, s.proc)
	}
	if err := s.inner.Add(v); err != nil {
		return err
	}
	if s.sc.Duplicates(op, s.proc, 0) {
		return s.inner.Add(v)
	}
	return nil
}

func (s *scenarioSet) Get() (values.Set, error) {
	op := s.nextOp()
	if s.sc.Drops(op, s.proc, 1) {
		return values.Set{}, fmt.Errorf("scenario set: get lost (op %d, proc %d)", op, s.proc)
	}
	if s.sc.Duplicates(op, s.proc, 1) {
		if _, err := s.inner.Get(); err != nil {
			return values.Set{}, err
		}
	}
	return s.inner.Get()
}

func esFactoryProp(props []values.Value) func(i int) giraf.Automaton {
	return func(i int) giraf.Automaton { return core.NewES(props[i]) }
}

// TestQuickEmulationSafeUnderDuplication: with duplicated (but never lost)
// weak-set operations the emulation must stay fully intact — the MS
// property holds on every recorded round, decisions satisfy Agreement and
// Validity, and no process errors.
func TestQuickEmulationSafeUnderDuplication(t *testing.T) {
	f := func(seed int64, dupRaw, nRaw uint8) bool {
		n := 2 + int(nRaw%4)
		sc := &env.Scenario{Seed: seed, DupPct: 20 + int(dupRaw%81)}
		props := core.SplitProposals(n, 2)
		shared := &weakset.Memory{}
		res, err := Run(Config{
			N:         n,
			Automaton: esFactoryProp(props),
			Codec:     SetCodec{},
			SetFor: func(i int) weakset.WeakSet {
				return &scenarioSet{inner: shared, sc: sc, proc: i}
			},
			MaxRounds: 30,
		})
		if err != nil || len(res.Errs) > 0 {
			return false
		}
		if res.CheckMS() != nil {
			return false
		}
		return decisionsSafe(res, props)
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(71))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestQuickEmulationSafeUnderLoss: lost weak-set operations abort the
// affected processes mid-round — crash faults. The survivors' decisions
// must still satisfy Agreement and Validity (reliable broadcast holds for
// everything that *was* delivered; an aborted process is just a crash), and
// every error must be a loss, never a corruption.
func TestQuickEmulationSafeUnderLoss(t *testing.T) {
	f := func(seed int64, lossRaw, dupRaw uint8) bool {
		n := 4
		sc := &env.Scenario{
			Seed:    seed,
			LossPct: 1 + int(lossRaw%30), // 1–30%
			DupPct:  int(dupRaw % 41),    // 0–40%
		}
		props := core.SplitProposals(n, 3)
		shared := &weakset.Memory{}
		res, err := Run(Config{
			N:         n,
			Automaton: esFactoryProp(props),
			Codec:     SetCodec{},
			SetFor: func(i int) weakset.WeakSet {
				return &scenarioSet{inner: shared, sc: sc, proc: i}
			},
			MaxRounds: 30,
		})
		if err != nil {
			return false
		}
		return decisionsSafe(res, props)
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(72))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// decisionsSafe checks Agreement and Validity over whatever decisions the
// run produced.
func decisionsSafe(res *Result, props []values.Value) bool {
	return len(property.Check(property.Run{Proposals: core.ProposalSet(props), Outcomes: res.Outcomes})) == 0
}
