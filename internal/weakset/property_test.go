package weakset

import (
	"math/rand"
	"testing"
	"testing/quick"

	"anonconsensus/internal/env"
	"anonconsensus/internal/values"
)

// TestQuickMSWeakSetSpecUnderRandomSchedules fuzzes both the operation
// schedule and the environment: whatever MS schedule and op placement the
// generator picks, the recorded history must satisfy the §5 specification.
func TestQuickMSWeakSetSpecUnderRandomSchedules(t *testing.T) {
	f := func(seed uint32, nRaw uint8, opSeeds []uint8) bool {
		n := 2 + int(nRaw%5)
		if len(opSeeds) > 10 {
			opSeeds = opSeeds[:10]
		}
		var ops []ScheduledOp
		for i, raw := range opSeeds {
			op := ScheduledOp{
				Proc:  int(raw) % n,
				Round: 1 + int(raw%23),
			}
			if i%3 == 0 {
				op.Kind = OpGet
			} else {
				op.Kind = OpAdd
				op.Value = values.Num(int64(raw % 7))
			}
			ops = append(ops, op)
		}
		res, err := RunMS(n, ops, &env.MS{
			Seed:           int64(seed),
			MaxDelay:       1 + int(seed%4),
			Shuffle:        seed%2 == 0,
			ExtraTimelyPct: int(seed % 50),
		}, 80, nil)
		if err != nil {
			return false
		}
		return res.Checker.Check() == nil
	}
	cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(51))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestQuickMSWeakSetAddsCompleteWithCrashes: adds by surviving processes
// must always complete even under random crash schedules.
func TestQuickMSWeakSetAddsComplete(t *testing.T) {
	f := func(seed uint32, crashRaw uint8) bool {
		const n = 4
		victim := int(crashRaw) % n
		adder := (victim + 1) % n // always a survivor
		ops := []ScheduledOp{
			{Proc: adder, Round: 1, Kind: OpAdd, Value: values.Num(9)},
		}
		crashes := &env.Scenario{Crashes: map[int]int{victim: 1 + int(crashRaw%8)}}
		res, err := RunMS(n, ops, &env.MS{Seed: int64(seed), MaxDelay: 3}, 80, crashes)
		if err != nil {
			return false
		}
		return len(res.CompletedAdds()) == 1 && res.Checker.Check() == nil
	}
	cfg := &quick.Config{MaxCount: 120, Rand: rand.New(rand.NewSource(52))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
