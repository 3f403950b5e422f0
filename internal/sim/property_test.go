package sim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"anonconsensus/internal/env"
)

// Property tests over machine-generated schedules: every MS-family policy
// must produce runs that its own checker accepts, and the checkers must be
// consistent with each other (ES ⊆ ESS ⊆ MS as guarantees).

func tracedRun(t *testing.T, n, rounds int, pol env.Policy, crashes map[int]int) *Trace {
	t.Helper()
	res, err := Run(Config{
		N:           n,
		Automaton:   floodFactory(0),
		Policy:      pol,
		Scenario:    &env.Scenario{Crashes: crashes},
		MaxRounds:   rounds,
		RecordTrace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.Trace
}

func TestQuickMSPolicyAlwaysSatisfiesMS(t *testing.T) {
	f := func(seed uint32, nRaw, delayRaw, rotRaw, timelyRaw, crashRaw uint8) bool {
		n := 1 + int(nRaw%7)
		crashes := map[int]int{}
		if n > 1 {
			crashes[int(crashRaw)%n] = 1 + int(crashRaw%9)
		}
		tr := tracedRun(t, n, 25, &env.MS{
			Seed:           int64(seed),
			MaxDelay:       1 + int(delayRaw%5),
			RotationPeriod: int(rotRaw % 4),
			Shuffle:        seed%2 == 0,
			Alternate:      seed%7 == 0,
			ExtraTimelyPct: int(timelyRaw % 80),
		}, crashes)
		return tr.CheckMS() == nil
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(21))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickESPolicyAlwaysSatisfiesES(t *testing.T) {
	f := func(seed uint32, nRaw, gstRaw uint8) bool {
		n := 1 + int(nRaw%6)
		gst := int(gstRaw % 16)
		tr := tracedRun(t, n, 30, &env.ES{GST: gst, Pre: env.MS{Seed: int64(seed)}}, nil)
		return tr.CheckES(gst) == nil
	}
	cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(22))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickESSPolicyAlwaysSatisfiesESS(t *testing.T) {
	f := func(seed uint32, nRaw, gstRaw, postRaw uint8) bool {
		n := 1 + int(nRaw%6)
		gst := int(gstRaw % 16)
		src := int(seed) % n
		tr := tracedRun(t, n, 30, &env.ESS{
			GST:           gst,
			StableSource:  src,
			Pre:           env.MS{Seed: int64(seed)},
			PostTimelyPct: int(postRaw % 70),
		}, nil)
		return tr.CheckESS(gst, src) == nil
	}
	cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(23))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickCheckerHierarchy(t *testing.T) {
	// ES from round g implies ESS(g, s) for every sender s, implies MS.
	f := func(seed uint32, nRaw, gstRaw uint8) bool {
		n := 2 + int(nRaw%4)
		gst := int(gstRaw % 10)
		tr := tracedRun(t, n, 25, &env.ES{GST: gst, Pre: env.MS{Seed: int64(seed)}}, nil)
		if tr.CheckES(gst) != nil {
			return false
		}
		if tr.CheckMS() != nil {
			return false
		}
		for s := 0; s < n; s++ {
			if tr.CheckESS(gst, s) != nil {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(24))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickSynchronousAlwaysEverything(t *testing.T) {
	f := func(nRaw, crashRaw uint8) bool {
		n := 1 + int(nRaw%8)
		crashes := map[int]int{}
		if n > 2 {
			crashes[int(crashRaw)%n] = 1 + int(crashRaw%5)
		}
		tr := tracedRun(t, n, 15, env.Synchronous{}, crashes)
		if tr.CheckMS() != nil || tr.CheckES(1) != nil {
			return false
		}
		// Every non-crashed process is a stable source under synchrony.
		for s := 0; s < n; s++ {
			if _, crashed := crashes[s]; crashed {
				continue
			}
			if tr.CheckESS(1, s) != nil {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(25))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
