package main

import (
	"strings"
	"testing"
)

// A stream with a passing test, a test that fails once in two runs (its
// subtest's output belongs to it), a test the binary died under, and a
// line that is not JSON.
const stream = `{"Action":"run","Test":"TestA"}
{"Action":"output","Test":"TestA","Output":"=== RUN   TestA\n"}
{"Action":"pass","Test":"TestA"}
{"Action":"run","Test":"TestB"}
{"Action":"run","Test":"TestB/sub"}
{"Action":"output","Test":"TestB/sub","Output":"    b_test.go:9: severed link never healed\n"}
{"Action":"fail","Test":"TestB/sub"}
{"Action":"fail","Test":"TestB"}
{"Action":"run","Test":"TestB"}
{"Action":"pass","Test":"TestB"}
{"Action":"run","Test":"TestC"}
{"Action":"output","Test":"TestC","Output":"panic: boom\n"}
# a build line
{"Action":"fail"}
`

func TestReadKeepsFailedLogs(t *testing.T) {
	r := read(strings.NewReader(stream))
	if r.passed != 2 || r.failed != 2 || r.failures["TestB"] != 1 || r.failures["TestC"] != 1 || !r.broken {
		t.Fatalf("read %+v", r)
	}
	var out strings.Builder
	r.print(&out, "./x", 2)
	for _, want := range []string{
		"flake: ./x: 2/4 test runs passed (count=2)",
		"severed link never healed",
		"panic: boom",
		"# a build line",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), "=== RUN   TestA") {
		t.Errorf("report prints a passing run's log:\n%s", out.String())
	}
}

func TestReadAllPassed(t *testing.T) {
	r := read(strings.NewReader(`{"Action":"run","Test":"TestA"}
{"Action":"pass","Test":"TestA"}
{"Action":"pass"}
`))
	if r.passed != 1 || r.failed != 0 || r.broken || len(r.logs) != 0 {
		t.Fatalf("read %+v", r)
	}
}
