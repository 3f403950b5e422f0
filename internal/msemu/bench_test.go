package msemu

import (
	"testing"

	"anonconsensus/internal/core"
	"anonconsensus/internal/giraf"
	"anonconsensus/internal/weakset"
)

func BenchmarkMSEmulationRound(b *testing.B) {
	props := core.DistinctProposals(4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := Run(Config{
			N:         4,
			Automaton: func(j int) giraf.Automaton { return core.NewES(props[j]) },
			Codec:     SetCodec{},
			Set:       &weakset.Memory{},
			MaxRounds: 20,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Errs) > 0 {
			b.Fatal(res.Errs)
		}
	}
}
