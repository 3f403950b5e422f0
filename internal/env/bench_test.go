package env

import (
	"fmt"
	"testing"
)

var benchSink int

// BenchmarkMSSchedule is the env layer of the benchmark ladder: one
// pre-GST round as the simulator pays for it — MS.Schedule drawing the
// round's delay matrix for n broadcasters, then the engine's n² DelayFn
// reads.
func BenchmarkMSSchedule(b *testing.B) {
	for _, n := range []int{16, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			senders := make([]int, n)
			for i := range senders {
				senders[i] = i
			}
			m := &MS{Seed: 1}
			m.Schedule(0, senders, n) // seeds the RNG and the source log
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				delay := m.Schedule(i+1, senders, n)
				sum := 0
				for s := 0; s < n; s++ {
					for r := 0; r < n; r++ {
						sum += delay(s, r)
					}
				}
				benchSink = sum
			}
		})
	}
}
