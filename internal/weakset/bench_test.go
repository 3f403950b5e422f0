package weakset

import (
	"testing"

	"anonconsensus/internal/env"
	"anonconsensus/internal/values"
)

func BenchmarkWeakSetAddLatency(b *testing.B) {
	ops := []ScheduledOp{{Proc: 0, Round: 1, Kind: OpAdd, Value: values.Num(1)}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := RunMS(5, ops, &env.MS{Seed: int64(i), MaxDelay: 3}, 60, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.CompletedAdds()) != 1 {
			b.Fatal("add incomplete")
		}
	}
}
