package env

import "testing"

// TestUniformDelayAgreesWithSchedule: a round a policy declares uniform
// gives every (sender, receiver) pair the declared delay, and ES declares
// no round before GST.
func TestUniformDelayAgreesWithSchedule(t *testing.T) {
	const n = 5
	senders := []int{0, 1, 2, 3, 4}
	for _, tc := range []struct {
		name  string
		pol   Policy
		first int // first declared round
	}{
		{"Synchronous", Synchronous{}, 1},
		{"ES", &ES{GST: 4, Pre: MS{Seed: 3}}, 4},
		{"ES GST 0", &ES{Pre: MS{Seed: 3}}, 1},
	} {
		u := tc.pol.(UniformReporter)
		for round := 1; round <= 8; round++ {
			delays := rowsOf(tc.pol.Schedule(round, senders, n), senders, n)
			d0, ok := u.UniformDelay(round)
			if ok != (round >= tc.first) {
				t.Errorf("%s round %d: declared uniform = %v, want %v", tc.name, round, ok, round >= tc.first)
			}
			if !ok {
				continue
			}
			for s := 0; s < n; s++ {
				for r := 0; r < n; r++ {
					if s != r && int(delays[s][r]) != d0 {
						t.Errorf("%s round %d: delay(%d,%d) = %d, declared %d", tc.name, round, s, r, delays[s][r], d0)
					}
				}
			}
		}
	}
}
