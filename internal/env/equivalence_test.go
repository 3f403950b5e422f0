package env

import (
	"testing"
	"time"
)

// The latency profiles moved here from internal/anonnet (which now aliases
// them) and the policies from internal/sim. These tests pin the moved
// implementations against independent re-implementations of the original
// formulas, so the refactor provably did not change any schedule: for
// identical seeds every link of every round gets the identical delay.

// refHash64 is a byte-for-byte copy of the pre-refactor anonnet hash64.
func refHash64(seed int64, round, from, to int) uint64 {
	h := uint64(1469598103934665603) ^ uint64(seed)
	for _, x := range [3]int{round, from, to} {
		h ^= uint64(uint32(x))
		h *= 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

func refFrac(d time.Duration, num, den int64) time.Duration {
	return time.Duration(int64(d) * num / den)
}

// refMSDelay reproduces the original anonnet MSProfile.Delay.
func refMSDelay(n int, interval time.Duration, seed int64, period, round, from, to int) time.Duration {
	if period <= 0 {
		period = 1
	}
	if from == (round/period)%n {
		return refFrac(interval, 1, 5)
	}
	jitter := refHash64(seed, round, from, to) % 2000
	return refFrac(interval, 3, 2) + refFrac(interval, int64(jitter), 1000)
}

func TestProfileEquivalenceWithPreRefactorFormulas(t *testing.T) {
	const n = 5
	const interval = 10 * time.Millisecond
	for _, seed := range []int64{0, 1, 42, -7} {
		ms := MSProfile{N: n, Interval: interval, Seed: seed}
		es := ESProfile{N: n, Interval: interval, Seed: seed, GST: 6}
		ess := ESSProfile{N: n, Interval: interval, Seed: seed, GST: 6, Source: 2}
		async := AsyncProfile{Interval: interval, Seed: seed}
		sync := Sync{Interval: interval}
		for round := 0; round < 20; round++ {
			for from := 0; from < n; from++ {
				for to := 0; to < n; to++ {
					if got, want := ms.Delay(round, from, to), refMSDelay(n, interval, seed, 1, round, from, to); got != want {
						t.Fatalf("MSProfile seed=%d (%d,%d,%d): %v != %v", seed, round, from, to, got, want)
					}
					// ESProfile: MS chaos before GST, interval/5 after.
					want := refMSDelay(n, interval, seed, 1, round, from, to)
					if round >= 6 {
						want = refFrac(interval, 1, 5)
					}
					if got := es.Delay(round, from, to); got != want {
						t.Fatalf("ESProfile seed=%d (%d,%d,%d): %v != %v", seed, round, from, to, got, want)
					}
					// ESSProfile: MS chaos before GST; after, source fast,
					// everyone else slow on the seed+1 jitter stream.
					if round < 6 {
						want = refMSDelay(n, interval, seed, 1, round, from, to)
					} else if from == 2 {
						want = refFrac(interval, 1, 5)
					} else {
						j := refHash64(seed+1, round, from, to) % 2000
						want = refFrac(interval, 3, 2) + refFrac(interval, int64(j), 1000)
					}
					if got := ess.Delay(round, from, to); got != want {
						t.Fatalf("ESSProfile seed=%d (%d,%d,%d)", seed, round, from, to)
					}
					// AsyncProfile: interval + jitter, never fast.
					j := refHash64(seed, round, from, to) % 2000
					if got, want := async.Delay(round, from, to), interval+refFrac(interval, int64(j), 1000); got != want {
						t.Fatalf("AsyncProfile seed=%d (%d,%d,%d)", seed, round, from, to)
					}
					if got := sync.Delay(round, from, to); got != refFrac(interval, 1, 5) {
						t.Fatalf("Sync (%d,%d,%d): %v", round, from, to, got)
					}
				}
			}
		}
	}
}

func TestProfileRotationPeriod(t *testing.T) {
	p := MSProfile{N: 3, Interval: time.Millisecond, Seed: 4, Period: 2}
	for round := 0; round < 12; round++ {
		src := (round / 2) % 3
		if got := p.Delay(round, src, (src+1)%3); got != refFrac(p.Interval, 1, 5) {
			t.Errorf("round %d: source %d not fast (%v)", round, src, got)
		}
	}
}

// TestPolicyScheduleEquivalence pins the moved MS policy against the
// original's documented behavior: the round-robin source is timely to
// everyone, every other delay falls in [1, MaxDelay], and two policies
// with the same seed draw identical delay matrices.
func TestPolicyScheduleEquivalence(t *testing.T) {
	const n = 6
	senders := []int{0, 1, 2, 3, 4, 5}
	a := &MS{Seed: 9, MaxDelay: 4}
	b := &MS{Seed: 9, MaxDelay: 4}
	for round := 1; round <= 40; round++ {
		da := rowsOf(a.Schedule(round, senders, n), senders, n)
		db := rowsOf(b.Schedule(round, senders, n), senders, n)
		srcA, ok := a.Source(round)
		if !ok {
			t.Fatalf("round %d: no source noted", round)
		}
		if want := senders[round%len(senders)]; srcA != want {
			t.Fatalf("round %d: source %d, want round-robin %d", round, srcA, want)
		}
		for from := 0; from < n; from++ {
			for to := 0; to < n; to++ {
				x, y := da[from][to], db[from][to]
				if x != y {
					t.Fatalf("round %d (%d,%d): same seed diverged (%d vs %d)", round, from, to, x, y)
				}
				if from == srcA && x != 0 {
					t.Fatalf("round %d: source %d delayed %d to %d", round, from, x, to)
				}
				if from != srcA && (x < 1 || x > 4) {
					t.Fatalf("round %d (%d,%d): delay %d outside [1,4]", round, from, to, x)
				}
			}
		}
	}
}
