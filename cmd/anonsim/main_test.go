package main

import (
	"testing"

	"anonconsensus/internal/expt"
)

func TestRunList(t *testing.T) {
	if err := run(cliOpts{list: true}); err != nil {
		t.Fatal(err)
	}
}

func TestRunSingleQuick(t *testing.T) {
	if err := run(cliOpts{expID: "T10", quick: true}); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run(cliOpts{expID: "T99", quick: true}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunNothingToDo(t *testing.T) {
	if err := run(cliOpts{}); err == nil {
		t.Error("empty invocation must error")
	}
}

func TestRunSingleQuickParallel(t *testing.T) {
	defer expt.SetParallelism(0)
	if err := run(cliOpts{expID: "T5", quick: true, parallel: 2}); err != nil {
		t.Fatalf("-parallel run failed: %v", err)
	}
}

func TestRunExplore(t *testing.T) {
	defer expt.SetParallelism(0)
	err := run(cliOpts{
		explore:     true,
		exploreN:    4,
		trials:      100,
		seed:        1,
		envName:     "es",
		scenarioPct: 50,
	})
	if err != nil {
		t.Fatalf("-explore run failed: %v", err)
	}
}

func TestRunExploreBadEnv(t *testing.T) {
	if err := run(cliOpts{explore: true, envName: "nope", exploreN: 2, trials: 1}); err == nil {
		t.Error("bad -env accepted")
	}
}

func TestRunReplay(t *testing.T) {
	if err := run(cliOpts{replay: "alg=ES;props=1|2;sched=00.00"}); err != nil {
		t.Fatalf("clean -replay failed: %v", err)
	}
}

func TestRunReplayRejectsJunk(t *testing.T) {
	if err := run(cliOpts{replay: "alg=??"}); err == nil {
		t.Error("junk trace accepted")
	}
}
