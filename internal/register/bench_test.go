package register

import (
	"fmt"
	"testing"

	"anonconsensus/internal/values"
	"anonconsensus/internal/weakset"
)

func BenchmarkABDWrite(b *testing.B) {
	for _, n := range []int{3, 5, 9} {
		b.Run(fmt.Sprintf("replicas=%d", n), func(b *testing.B) {
			cluster := NewABD(n)
			defer cluster.Close()
			w := cluster.Writer(1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := w.Write(values.Num(int64(i))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkABDRead(b *testing.B) {
	cluster := NewABD(5)
	defer cluster.Close()
	if err := cluster.Write(values.Num(1)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.Read(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRegisterFromWeakSet measures a whole register session — 64
// write+read pairs against a fresh weak set — as one op. Bounding the
// session matters: the paper's construction adds a (rank, value) pair on
// every write, so a set shared across iterations grows without bound and
// the reported ns/op would be an artifact of the iteration count.
func BenchmarkRegisterFromWeakSet(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var ws weakset.Memory
		reg := NewFromWeakSet(&ws)
		for j := 0; j < 64; j++ {
			if err := reg.Write(values.Num(int64(j))); err != nil {
				b.Fatal(err)
			}
			if _, err := reg.Read(); err != nil {
				b.Fatal(err)
			}
		}
	}
}
