// Package weakset implements the weak-set shared data structure (paper §5,
// originally from Delporte-Gallet & Fauconnier [4]).
//
// A weak-set S holds a set of values and offers two operations: add(v) and
// get. Its specification (§5):
//
//   - every get returns all values whose add completed before the get
//     started;
//   - no value is returned whose add had not started before the get ended;
//   - adds concurrent with a get may or may not be visible.
//
// Unlike a register, a weak-set lets anonymous processes share information
// without overwriting each other, which is why the paper uses it as the
// register generalization for unknown and anonymous networks.
//
// The package provides:
//
//   - MSProc: Algorithm 4, a weak-set in the MS environment (GIRAF-driven);
//   - Memory: a linearizable in-memory reference implementation;
//   - FromSWMR (Prop. 2) and FromFinite (Prop. 3): weak-sets from registers;
//   - Checker: an operation-interval checker for the weak-set spec.
package weakset

import (
	"fmt"
	"sort"
	"sync"

	"anonconsensus/internal/values"
)

// WeakSet is the abstract data type.
type WeakSet interface {
	// Add inserts v and returns when the insertion has completed (i.e. the
	// value is guaranteed visible to all subsequent gets).
	Add(v values.Value) error
	// Get returns a snapshot containing at least every value whose Add
	// completed before Get was invoked.
	Get() (values.Set, error)
}

// Memory is a linearizable in-memory weak-set: the reference implementation
// used as the substrate for the MS emulation (Algorithm 5) and in tests.
// In a known network it would be realized from atomic registers (Props. 2
// and 3); package register provides those constructions.
//
// The zero value is ready to use.
type Memory struct {
	mu  sync.Mutex
	set values.Set
}

var _ WeakSet = (*Memory)(nil)

// Add implements WeakSet.
func (m *Memory) Add(v values.Value) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.set.Add(v)
	return nil
}

// Get implements WeakSet.
func (m *Memory) Get() (values.Set, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.set, nil
}

// ---------------------------------------------------------------------------
// Specification checking

// OpKind distinguishes recorded operations.
type OpKind int

// Operation kinds.
const (
	OpAdd OpKind = iota + 1
	OpGet
)

// Op is one recorded weak-set operation with its real-time (or round-time)
// interval.
type Op struct {
	Kind  OpKind
	Value values.Value // the added value (OpAdd)
	Got   values.Set   // the returned snapshot (OpGet)
	Start int64        // inclusive
	End   int64        // inclusive; End ≥ Start
}

// Checker validates a history of weak-set operations against the §5
// specification. It is driven by tests of every implementation.
type Checker struct {
	ops []Op
}

// Record appends an operation to the history.
func (c *Checker) Record(op Op) {
	c.ops = append(c.ops, op)
}

// Len returns the number of recorded operations.
func (c *Checker) Len() int { return len(c.ops) }

// Check returns an error describing the first specification violation, or
// nil if the history is legal.
func (c *Checker) Check() error {
	adds := make([]Op, 0, len(c.ops))
	gets := make([]Op, 0, len(c.ops))
	for _, op := range c.ops {
		switch op.Kind {
		case OpAdd:
			adds = append(adds, op)
		case OpGet:
			gets = append(gets, op)
		default:
			return fmt.Errorf("weakset: unknown op kind %d", op.Kind)
		}
	}
	sort.Slice(adds, func(i, j int) bool { return adds[i].Start < adds[j].Start })
	for _, g := range gets {
		// (1) Every value whose add completed before the get started must
		// be present.
		for _, a := range adds {
			if a.End < g.Start && !g.Got.Contains(a.Value) {
				return fmt.Errorf("weakset: get [%d,%d] missing %v whose add completed at %d",
					g.Start, g.End, a.Value, a.End)
			}
		}
		// (2) No value whose add started after the get ended may appear.
		for _, v := range g.Got.Sorted() {
			earliest, ok := earliestAddStart(adds, v)
			if !ok {
				return fmt.Errorf("weakset: get [%d,%d] returned %v that was never added",
					g.Start, g.End, v)
			}
			if earliest > g.End {
				return fmt.Errorf("weakset: get [%d,%d] returned %v whose first add started at %d",
					g.Start, g.End, v, earliest)
			}
		}
	}
	return nil
}

func earliestAddStart(adds []Op, v values.Value) (int64, bool) {
	for _, a := range adds {
		if a.Value == v {
			return a.Start, true // adds sorted by start
		}
	}
	return 0, false
}
