package weakset

import (
	"fmt"
	"sync"

	"anonconsensus/internal/values"
)

// Slot is the register interface the register-based weak-set constructions
// consume (satisfied by register.Memory, register.ABD, ...). Declared here,
// consumer-side, to keep the dependency one-directional.
type Slot interface {
	Write(v values.Value) error
	Read() (values.Value, error)
}

// FromSWMR is Proposition 2: a weak-set for a *known* set of processes
// built from single-writer multiple-reader registers, one per process.
// Process i keeps its accumulated value set in its own register; a get
// reads all registers and unions them.
//
// Handle returns the per-process front-end; only process i may add through
// handle i (the single-writer discipline).
type FromSWMR struct {
	slots []Slot
}

// NewFromSWMR builds the construction over the given per-process registers.
// Each process needs a register of its own: one register passed for two
// processes would let their writes overwrite each other's adds, so it
// panics, as an empty slice does. Slots are compared by ==, so their
// dynamic types must be comparable (pointers, as every register here is).
func NewFromSWMR(slots []Slot) *FromSWMR {
	if len(slots) == 0 {
		panic("weakset.NewFromSWMR: no registers")
	}
	owner := make(map[Slot]int, len(slots))
	for i, s := range slots {
		if j, ok := owner[s]; ok {
			panic(fmt.Sprintf("weakset.NewFromSWMR: processes %d and %d share one register", j, i))
		}
		owner[s] = i
	}
	return &FromSWMR{slots: slots}
}

// Handle returns process i's front-end.
func (f *FromSWMR) Handle(i int) *SWMRHandle {
	if i < 0 || i >= len(f.slots) {
		panic(fmt.Sprintf("weakset: handle %d outside [0,%d)", i, len(f.slots)))
	}
	return &SWMRHandle{f: f, id: i}
}

// SWMRHandle is one process's view of the FromSWMR weak-set.
type SWMRHandle struct {
	f  *FromSWMR
	id int

	mu  sync.Mutex
	own values.Set // the values this process has added
}

var _ WeakSet = (*SWMRHandle)(nil)

// Add implements WeakSet: extend the local set and write it to the
// process's own register. When Write returns, the value is visible to every
// subsequent Get (register termination + validity).
func (h *SWMRHandle) Add(v values.Value) error {
	h.mu.Lock()
	h.own.Add(v)
	snapshot := h.own
	h.mu.Unlock()
	if err := h.f.slots[h.id].Write(values.EncodeSet(snapshot)); err != nil {
		return fmt.Errorf("weakset: writing own register: %w", err)
	}
	return nil
}

// Get implements WeakSet: union all processes' registers.
func (h *SWMRHandle) Get() (values.Set, error) {
	out := values.NewSet()
	for i, slot := range h.f.slots {
		raw, err := slot.Read()
		if err != nil {
			return values.Set{}, fmt.Errorf("weakset: reading register %d: %w", i, err)
		}
		if raw == "" {
			continue // never written
		}
		set, err := values.DecodeSet(raw)
		if err != nil {
			return values.Set{}, fmt.Errorf("weakset: register %d holds junk: %w", i, err)
		}
		out.AddAll(set)
	}
	return out, nil
}

// FromFinite is Proposition 3: a weak-set over a *finite value domain*
// built from one multi-writer multi-reader register per possible value,
// holding a presence flag. It needs no process identities at all, which is
// why the paper can use it in anonymous systems.
type FromFinite struct {
	domain []values.Value
	slots  map[values.Value]Slot
}

var _ WeakSet = (*FromFinite)(nil)

// present is the flag stored in a value's register once the value is added.
const present = values.Value("1")

// NewFromFinite builds the construction: newSlot is called once per domain
// value to allocate its register.
func NewFromFinite(domain []values.Value, newSlot func(v values.Value) Slot) *FromFinite {
	if len(domain) == 0 {
		panic("weakset.NewFromFinite: empty domain")
	}
	f := &FromFinite{domain: append([]values.Value(nil), domain...), slots: make(map[values.Value]Slot, len(domain))}
	for _, v := range f.domain {
		if !v.Valid() {
			panic(fmt.Sprintf("weakset.NewFromFinite: invalid domain value %q", string(v)))
		}
		if _, dup := f.slots[v]; dup {
			panic(fmt.Sprintf("weakset.NewFromFinite: duplicate domain value %q", string(v)))
		}
		f.slots[v] = newSlot(v)
	}
	return f
}

// Add implements WeakSet: raise the value's presence flag.
func (f *FromFinite) Add(v values.Value) error {
	slot, ok := f.slots[v]
	if !ok {
		return fmt.Errorf("weakset: value %v outside the finite domain", v)
	}
	if err := slot.Write(present); err != nil {
		return fmt.Errorf("weakset: raising flag for %v: %w", v, err)
	}
	return nil
}

// Get implements WeakSet: collect every value whose flag is raised.
func (f *FromFinite) Get() (values.Set, error) {
	out := values.NewSet()
	for _, v := range f.domain {
		raw, err := f.slots[v].Read()
		if err != nil {
			return values.Set{}, fmt.Errorf("weakset: reading flag for %v: %w", v, err)
		}
		if raw == present {
			out.Add(v)
		}
	}
	return out, nil
}
