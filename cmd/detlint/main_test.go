package main

import (
	"testing"

	"anonconsensus/tools/detlint/suite"
)

// TestRepoLintClean runs the whole determinism suite over the module —
// the same pass `make lint` runs — so `go test ./...` alone catches a
// new violation even before CI's lint step does. The module-path pattern
// makes the test independent of the working directory.
func TestRepoLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module; skipped in -short")
	}
	findings, err := Lint(suite.Analyzers(), []string{"anonconsensus/..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Error(f)
	}
}

// TestSuiteNames pins the analyzer roster: TESTING.md documents these
// six by name.
func TestSuiteNames(t *testing.T) {
	want := []string{"maporder", "wallclock", "globalrand", "retalias", "goescape", "setequal"}
	got := suite.Analyzers()
	if len(got) != len(want) {
		t.Fatalf("suite has %d analyzers, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("analyzer %d = %s, want %s", i, a.Name, want[i])
		}
		if a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %s missing doc or run", a.Name)
		}
	}
}
