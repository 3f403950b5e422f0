package setequal_test

import (
	"testing"

	"anonconsensus/tools/detlint/analysistest"
	"anonconsensus/tools/detlint/setequal"
)

func TestSetEqual(t *testing.T) {
	analysistest.Run(t, "testdata", setequal.Analyzer,
		"anonconsensus/internal/values", // the real Set: seeded violations
		"anonconsensus/internal/other",  // a Set of another package: silent
	)
}
