package main

import (
	"sync"
	"testing"
	"time"

	"anonconsensus"
)

func TestRunRequiresMode(t *testing.T) {
	if err := run(false, "", "", -1, "es", time.Millisecond, time.Second, 0); err == nil {
		t.Error("no mode accepted")
	}
}

func TestRunNodeValidation(t *testing.T) {
	if err := runNode("127.0.0.1:1", -1, "es", time.Millisecond, time.Second, 0); err == nil {
		t.Error("negative proposal accepted")
	}
	if err := runNode("127.0.0.1:1", 3, "banana", time.Millisecond, time.Second, 0); err == nil {
		t.Error("unknown algorithm accepted")
	}
	// Fail fast (-reconnect=-1) against a dead address must error, not hang.
	if err := runNode("127.0.0.1:1", 3, "es", time.Millisecond, time.Second, -1); err == nil {
		t.Error("dead hub address accepted")
	}
}

func TestNodesAgreeOverLocalTCP(t *testing.T) {
	hub, err := anonconsensus.NewTCPHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()

	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i, v := range []int64{41, 17, 99} {
		i, v := i, v
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = runNode(hub.Addr(), v, "es", 8*time.Millisecond, 30*time.Second, 0)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("node %d: %v", i, err)
		}
	}
}
