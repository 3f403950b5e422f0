package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's high-water resident set in MB: VmHWM of
// /proc/self/status. (getrusage's ru_maxrss will not do: a child starts
// with its parent's, through fork and exec, so a run of the suite would
// report the suite's own peak.)
func peakRSSMB() float64 {
	kb, _ := strconv.ParseFloat(procField("/proc/self/status", "VmHWM", " kB"), 64)
	return kb / 1024
}

// environment identifies where a set of runs was taken; -compare refuses
// to compare across differing nproc or GOMAXPROCS.
type environment struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func currentEnvironment() environment {
	return environment{
		Commit:     gitCommit(),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

// gitCommit asks git for HEAD; outside a git checkout it is "unknown".
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	if model := procField("/proc/cpuinfo", "model name", ""); model != "" {
		return model
	}
	return "unknown"
}

// procField returns the value of the first "name: value" line of a /proc
// file, without the given suffix, or "" if there is none.
func procField(path, name, suffix string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if key, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(key) == name {
			return strings.TrimSuffix(strings.TrimSpace(val), suffix)
		}
	}
	return ""
}
