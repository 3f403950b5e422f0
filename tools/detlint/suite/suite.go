// Package suite registers detlint's analyzers in the order the driver
// runs and reports them.
package suite

import (
	"anonconsensus/tools/detlint/analysis"
	"anonconsensus/tools/detlint/globalrand"
	"anonconsensus/tools/detlint/goescape"
	"anonconsensus/tools/detlint/maporder"
	"anonconsensus/tools/detlint/retalias"
	"anonconsensus/tools/detlint/setequal"
	"anonconsensus/tools/detlint/wallclock"
)

// Analyzers returns the full determinism suite.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		maporder.Analyzer,
		wallclock.Analyzer,
		globalrand.Analyzer,
		retalias.Analyzer,
		goescape.Analyzer,
		setequal.Analyzer,
	}
}
