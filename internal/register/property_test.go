package register

import (
	"math/rand"
	"testing"
	"testing/quick"

	"anonconsensus/internal/values"
)

// TestQuickSequentialHistoriesLinearizable: any non-overlapping history
// where reads return the latest write is linearizable by construction; the
// checker must accept all of them.
func TestQuickSequentialHistoriesLinearizable(t *testing.T) {
	f := func(opsRaw []uint8) bool {
		if len(opsRaw) > 14 {
			opsRaw = opsRaw[:14]
		}
		var (
			ops  []HistOp
			last values.Value
			now  int64
		)
		for _, raw := range opsRaw {
			op := HistOp{Start: now, End: now + 1}
			if raw%2 == 0 {
				op.IsWrite = true
				op.Value = values.Num(int64(raw % 9))
				last = op.Value
			} else {
				op.Value = last
			}
			ops = append(ops, op)
			now += 2
		}
		return CheckLinearizable(ops) == nil
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(61))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestQuickStaleSequentialReadsRejected: corrupting one sequential read to
// a stale (previously overwritten, distinct) value must break
// linearizability.
func TestQuickStaleSequentialReadsRejected(t *testing.T) {
	f := func(a, b uint8) bool {
		v1 := values.Num(int64(a % 50))
		v2 := values.Num(int64(a%50) + 50) // guaranteed distinct
		_ = b
		ops := []HistOp{
			{IsWrite: true, Value: v1, Start: 0, End: 1},
			{IsWrite: true, Value: v2, Start: 2, End: 3},
			{IsWrite: false, Value: v1, Start: 4, End: 5}, // stale
		}
		return CheckLinearizable(ops) != nil
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(62))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestQuickRegularFromWeakSetSequential: the Prop-1 register behaves like a
// plain register for sequential use, for arbitrary write sequences.
func TestQuickRegularFromWeakSetSequential(t *testing.T) {
	f := func(writes []uint8) bool {
		var ws wsMemory
		r := NewFromWeakSet(&ws)
		var last values.Value
		for _, raw := range writes {
			v := values.Num(int64(raw))
			if err := r.Write(v); err != nil {
				return false
			}
			last = v
			got, err := r.Read()
			if err != nil || got != last {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(63))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// wsMemory is a tiny local linearizable weak-set to avoid importing
// weakset in a file dedicated to register properties (the real integration
// is covered in fromweakset_test.go).
type wsMemory struct {
	set values.Set
}

func (m *wsMemory) Add(v values.Value) error { m.set.Add(v); return nil }
func (m *wsMemory) Get() (values.Set, error) { return m.set, nil }
