package weakset

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"anonconsensus/internal/values"
)

// memSlot is a minimal atomic register for tests (mirrors register.Memory
// without the import cycle).
type memSlot struct {
	mu  sync.Mutex
	val values.Value
}

func (m *memSlot) Write(v values.Value) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.val = v
	return nil
}

func (m *memSlot) Read() (values.Value, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.val, nil
}

func newSWMR(n int) *FromSWMR {
	slots := make([]Slot, n)
	for i := range slots {
		slots[i] = &memSlot{}
	}
	return NewFromSWMR(slots)
}

func TestFromSWMRBasic(t *testing.T) {
	f := newSWMR(3)
	h0, h1 := f.Handle(0), f.Handle(1)

	if err := h0.Add(values.Num(1)); err != nil {
		t.Fatal(err)
	}
	if err := h1.Add(values.Num(2)); err != nil {
		t.Fatal(err)
	}
	got, err := f.Handle(2).Get()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(values.NewSet(values.Num(1), values.Num(2))) {
		t.Errorf("get = %v", got)
	}
}

func TestFromSWMRCompletedAddVisible(t *testing.T) {
	// The weak-set property: once Add returns, every Get sees the value.
	f := newSWMR(4)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := f.Handle(i)
			for j := 0; j < 8; j++ {
				v := values.Num(int64(10*i + j))
				if err := h.Add(v); err != nil {
					t.Error(err)
					return
				}
				got, err := h.Get()
				if err != nil {
					t.Error(err)
					return
				}
				if !got.Contains(v) {
					t.Errorf("own completed add %v invisible", v)
					return
				}
			}
		}()
	}
	wg.Wait()
	got, err := f.Handle(0).Get()
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 32 {
		t.Errorf("final size %d, want 32", got.Len())
	}
}

func TestFromSWMRSpecChecker(t *testing.T) {
	f := newSWMR(2)
	c := &Checker{}
	clock := int64(0)
	tick := func() int64 { clock++; return clock }

	h := f.Handle(0)
	s := tick()
	if err := h.Add(values.Num(1)); err != nil {
		t.Fatal(err)
	}
	c.Record(Op{Kind: OpAdd, Value: values.Num(1), Start: s, End: tick()})
	s = tick()
	got, err := f.Handle(1).Get()
	if err != nil {
		t.Fatal(err)
	}
	c.Record(Op{Kind: OpGet, Got: got, Start: s, End: tick()})
	if err := c.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestFromFiniteBasic(t *testing.T) {
	domain := []values.Value{values.Num(1), values.Num(2), values.Num(3)}
	f := NewFromFinite(domain, func(values.Value) Slot { return &memSlot{} })

	if err := f.Add(values.Num(2)); err != nil {
		t.Fatal(err)
	}
	got, err := f.Get()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(values.NewSet(values.Num(2))) {
		t.Errorf("get = %v", got)
	}
}

func TestFromFiniteRejectsOutOfDomain(t *testing.T) {
	f := NewFromFinite([]values.Value{values.Num(1)}, func(values.Value) Slot { return &memSlot{} })
	if err := f.Add(values.Num(9)); err == nil {
		t.Error("out-of-domain add must fail")
	}
}

func TestFromFiniteAnonymousConcurrentAdds(t *testing.T) {
	// No identities involved: many goroutines add the same values; flags
	// are idempotent.
	domain := make([]values.Value, 8)
	for i := range domain {
		domain[i] = values.Num(int64(i))
	}
	f := NewFromFinite(domain, func(values.Value) Slot { return &memSlot{} })
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := f.Add(values.Num(int64(g % 8))); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	got, err := f.Get()
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 8 {
		t.Errorf("got %d values, want 8", got.Len())
	}
}

func TestFromFiniteValidation(t *testing.T) {
	for name, fn := range map[string]func(){
		"empty domain": func() { NewFromFinite(nil, func(values.Value) Slot { return &memSlot{} }) },
		"invalid value": func() {
			NewFromFinite([]values.Value{values.Bot}, func(values.Value) Slot { return &memSlot{} })
		},
		"duplicate value": func() {
			NewFromFinite([]values.Value{values.Num(1), values.Num(1)}, func(values.Value) Slot { return &memSlot{} })
		},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("must panic")
				}
			}()
			fn()
		})
	}
}

func TestFromSWMRHandleValidation(t *testing.T) {
	f := newSWMR(2)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range handle must panic")
		}
	}()
	f.Handle(5)
}

// TestFromSWMRRejectsSharedRegister: Proposition 2 needs one single-writer
// register per process. Two processes writing one register would each
// overwrite the other's adds, so the constructor refuses the wiring.
func TestFromSWMRRejectsSharedRegister(t *testing.T) {
	shared := &memSlot{}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "processes 0 and 2") {
			t.Errorf("recovered %v, want a panic naming processes 0 and 2", r)
		}
	}()
	NewFromSWMR([]Slot{shared, &memSlot{}, shared})
}
