package values

import "testing"

func BenchmarkHistoryCounters(b *testing.B) {
	// The pseudo-leader data structure on a deep history (the ESS hot path).
	h := NewHistory(Num(1))
	for i := 0; i < 64; i++ {
		h = h.Append(Num(int64(i % 3)))
	}
	c := NewCounters()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Bump(h)
		if !c.IsMaximal(h) {
			b.Fatal("bumped history must be maximal")
		}
	}
}
