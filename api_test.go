package anonconsensus

import (
	"testing"
	"time"
)

func TestSimulateES(t *testing.T) {
	res, err := RunOnceForTest(NewSimTransport(), []Value{NumValue(1), NumValue(2), NumValue(3)},
		WithEnv(EnvES), WithGST(6), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	v, ok := res.Agreed()
	if !ok {
		t.Fatalf("no agreement: %+v", res.Decisions)
	}
	if v != NumValue(1) && v != NumValue(2) && v != NumValue(3) {
		t.Errorf("decided non-proposal %q", v)
	}
}

func TestSimulateESS(t *testing.T) {
	res, err := RunOnceForTest(NewSimTransport(), []Value{NumValue(5), NumValue(6), NumValue(7), NumValue(8)},
		WithEnv(EnvESS), WithGST(8), WithStableSource(2), WithSeed(3), WithMaxRounds(600))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Agreed(); !ok {
		t.Fatalf("no agreement: %+v", res.Decisions)
	}
}

func TestSimulateWithCrashes(t *testing.T) {
	res, err := RunOnceForTest(NewSimTransport(), []Value{NumValue(1), NumValue(2), NumValue(3), NumValue(4)},
		WithEnv(EnvES), WithGST(8), WithCrashes(map[int]int{0: 3}))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Decisions[0].Crashed {
		t.Error("process 0 should be crashed")
	}
	if _, ok := res.Agreed(); !ok {
		t.Fatal("survivors must agree")
	}
}

func TestSimulateDeterministic(t *testing.T) {
	run := func() (*Result, error) {
		return RunOnceForTest(NewSimTransport(), []Value{NumValue(1), NumValue(2), NumValue(3)},
			WithEnv(EnvES), WithGST(10), WithSeed(42))
	}
	a, err := run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := run()
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Decisions {
		if a.Decisions[i] != b.Decisions[i] {
			t.Fatalf("nondeterministic: %+v vs %+v", a.Decisions[i], b.Decisions[i])
		}
	}
}

func TestSolveLiveES(t *testing.T) {
	res, err := RunOnceForTest(NewLiveTransport(), []Value{NumValue(10), NumValue(20), NumValue(30)},
		WithEnv(EnvES), WithGST(4), WithInterval(5*time.Millisecond), WithTimeout(15*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Agreed(); !ok {
		t.Fatalf("live run did not agree: %+v", res.Decisions)
	}
	if res.Elapsed <= 0 {
		t.Error("elapsed not recorded")
	}
	if len(res.Decisions) != 3 {
		t.Errorf("want one Decision per process (3), got %d", len(res.Decisions))
	}
}

func TestConfigValidation(t *testing.T) {
	tests := []struct {
		name      string
		proposals []Value
		opts      []Option
	}{
		{"no proposals", nil, nil},
		{"empty proposal", []Value{""}, nil},
		{"bad env", []Value{"a"}, []Option{WithEnv(Environment(9))}},
		{"bad source", []Value{"a"}, []Option{WithEnv(EnvESS), WithStableSource(5)}},
		{"crashed source", []Value{"a", "b"}, []Option{
			WithEnv(EnvESS), WithStableSource(0), WithCrashes(map[int]int{0: 1}),
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := RunOnceForTest(NewSimTransport(), tt.proposals, tt.opts...); err == nil {
				t.Error("invalid config accepted on the sim transport")
			}
			if _, err := RunOnceForTest(NewLiveTransport(), tt.proposals, tt.opts...); err == nil {
				t.Error("invalid config accepted on the live transport")
			}
		})
	}
}

func TestEnvironmentString(t *testing.T) {
	if EnvES.String() != "ES" || EnvESS.String() != "ESS" {
		t.Error("environment names wrong")
	}
	if Environment(9).String() == "" {
		t.Error("unknown environment must still render")
	}
}

func TestWeakSetAPI(t *testing.T) {
	s := NewWeakSet()
	if err := s.Add("banana"); err != nil {
		t.Fatal(err)
	}
	if err := s.Add("apple"); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(""); err == nil {
		t.Error("empty value accepted")
	}
	got, err := s.Get()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "apple" || got[1] != "banana" {
		t.Errorf("Get = %v", got)
	}
}

func TestRegisterAPI(t *testing.T) {
	r := NewRegister()
	if _, ok, _ := r.Read(); ok {
		t.Error("unwritten register reports ok")
	}
	if err := r.Write("v1"); err != nil {
		t.Fatal(err)
	}
	if err := r.Write(""); err == nil {
		t.Error("empty write accepted")
	}
	v, ok, err := r.Read()
	if err != nil || !ok || v != "v1" {
		t.Errorf("Read = %q,%v,%v", v, ok, err)
	}
}

func TestAgreedEdgeCases(t *testing.T) {
	r := &Result{Decisions: []Decision{{Proc: 0, Decided: false}}}
	if _, ok := r.Agreed(); ok {
		t.Error("undecided process must block agreement")
	}
	r = &Result{Decisions: []Decision{
		{Proc: 0, Decided: true, Value: "a"},
		{Proc: 1, Decided: true, Value: "b"},
	}}
	if _, ok := r.Agreed(); ok {
		t.Error("divergent decisions must not agree")
	}
	r = &Result{Decisions: []Decision{
		{Proc: 0, Crashed: true},
		{Proc: 1, Decided: true, Value: "a"},
	}}
	if v, ok := r.Agreed(); !ok || v != "a" {
		t.Error("crashed processes must not block agreement")
	}
}

func TestOFConsensusAPI(t *testing.T) {
	c := NewOFConsensus()
	if _, ok := c.Decided(); ok {
		t.Error("fresh instance reports decided")
	}
	v, ok, err := c.Propose("alpha", 10)
	if err != nil || !ok || v != "alpha" {
		t.Fatalf("solo propose = %q,%v,%v", v, ok, err)
	}
	// A later conflicting proposer must land on the decided value.
	w, ok, err := c.Propose("beta", 10)
	if err != nil || !ok {
		t.Fatal(err)
	}
	if w != "alpha" {
		t.Errorf("second proposer decided %q, want alpha", w)
	}
	if got, ok := c.Decided(); !ok || got != "alpha" {
		t.Errorf("Decided = %q,%v", got, ok)
	}
	if _, _, err := c.Propose("", 10); err == nil {
		t.Error("empty proposal accepted")
	}
	if _, _, err := c.Propose("x", 0); err == nil {
		t.Error("zero rounds accepted")
	}
}

func TestSolveLiveESS(t *testing.T) {
	res, err := RunOnceForTest(NewLiveTransport(), []Value{NumValue(1), NumValue(2), NumValue(3)},
		WithEnv(EnvESS), WithGST(4), WithStableSource(1), WithInterval(5*time.Millisecond), WithTimeout(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Agreed(); !ok {
		t.Fatalf("live ESS run did not agree: %+v", res.Decisions)
	}
}
