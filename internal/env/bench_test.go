package env

import (
	"fmt"
	"testing"
)

var benchSink int

// BenchmarkMSSchedule is the env layer of the benchmark ladder: one
// pre-GST round as the simulator pays for it — MS.Schedule for n
// broadcasters, then every sender's row drawn into one n-length row and
// read, in sender order, as the engine does.
func BenchmarkMSSchedule(b *testing.B) {
	for _, n := range []int{16, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			senders := make([]int, n)
			for i := range senders {
				senders[i] = i
			}
			m := &MS{Seed: 1}
			m.Schedule(0, senders, n) // seeds the RNG and the source log
			row := make([]int32, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				delays := m.Schedule(i+1, senders, n)
				sum := 0
				for _, s := range senders {
					delays.Row(s, row)
					for _, d := range row {
						sum += int(d)
					}
				}
				benchSink = sum
			}
		})
	}
}
