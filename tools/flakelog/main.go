// Command flakelog reads one package's `go test -json` stream on standard
// input and reports it the way `make flake` prints it: one pass-rate line
// over the top-level test runs, the count of failed runs per test, and the
// whole log of every failed run, so a one-off failure leaves its message.
// Output of a run the test binary never finished (a panic, a timeout)
// counts as a failure and is printed too, as is every line that is not a
// JSON event (build errors). It exits 1 when any run failed.
//
//	go test -count=20 -json ./internal/tcpnet > tcpnet.json
//	go run ./tools/flakelog -pkg ./internal/tcpnet -count 20 < tcpnet.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// event is the part of a test2json event flakelog reads.
type event struct {
	Action string
	Test   string
	Output string
}

// report is one package's stream, read.
type report struct {
	passed, failed int
	failures       map[string]int // failed runs per top-level test
	logs           []string       // the full log of each failed run, in order
	broken         bool           // the package failed outside any test
}

func main() {
	pkg := flag.String("pkg", "", "package pattern, for the report line")
	count := flag.Int("count", 0, "the -count the stream was run with, for the report line")
	flag.Parse()
	r := read(os.Stdin)
	r.print(os.Stdout, *pkg, *count)
	if r.failed > 0 || r.broken {
		os.Exit(1)
	}
}

// read collects the runs of the stream's top-level tests. A subtest's
// output belongs to its top-level test's run.
func read(in io.Reader) *report {
	r := &report{failures: map[string]int{}}
	running := map[string]*strings.Builder{}
	var pkgOut strings.Builder
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	for sc.Scan() {
		var e event
		if json.Unmarshal(sc.Bytes(), &e) != nil || e.Action == "" {
			pkgOut.WriteString(sc.Text() + "\n")
			continue
		}
		top, _, sub := strings.Cut(e.Test, "/")
		switch {
		case e.Test == "":
			if e.Action == "output" {
				pkgOut.WriteString(e.Output)
			}
			if e.Action == "fail" {
				r.broken = true
			}
		case e.Action == "run" && !sub:
			running[top] = &strings.Builder{}
		case e.Action == "output":
			if b := running[top]; b != nil {
				b.WriteString(e.Output)
			}
		case !sub && (e.Action == "pass" || e.Action == "skip"):
			r.passed++
			delete(running, top)
		case !sub && e.Action == "fail":
			r.fail(top, running[top])
			delete(running, top)
		}
	}
	// Runs still open when the stream ended never finished: the binary died
	// under them.
	open := make([]string, 0, len(running))
	for name := range running {
		open = append(open, name)
	}
	sort.Strings(open)
	for _, name := range open {
		r.fail(name, running[name])
	}
	if r.broken || r.failed > 0 {
		if out := strings.TrimSpace(pkgOut.String()); out != "" {
			r.logs = append(r.logs, out+"\n")
		}
	}
	return r
}

func (r *report) fail(test string, log *strings.Builder) {
	r.failed++
	r.failures[test]++
	if log != nil {
		r.logs = append(r.logs, log.String())
	}
}

func (r *report) print(w io.Writer, pkg string, count int) {
	fmt.Fprintf(w, "flake: %s: %d/%d test runs passed (count=%d)\n", pkg, r.passed, r.passed+r.failed, count)
	names := make([]string, 0, len(r.failures))
	for name := range r.failures {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%7d %s\n", r.failures[name], name)
	}
	for _, log := range r.logs {
		fmt.Fprintf(w, "---- log of a failed run in %s:\n%s", pkg, log)
	}
}
