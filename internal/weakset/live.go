package weakset

import (
	"context"
	"fmt"
	"sync"
	"time"

	"anonconsensus/internal/anonnet"
	"anonconsensus/internal/env"
	"anonconsensus/internal/giraf"
	"anonconsensus/internal/values"
)

// LiveConfig runs Algorithm 4 over the real-time goroutine network: an
// anonymous shared-set *service*. Operations are scheduled by round, as in
// the simulator driver, but execute against drifting real-time rounds with
// latency-profile links.
type LiveConfig struct {
	// N is the number of processes.
	N int
	// Ops are the operations to inject (rounds are per-process local
	// rounds).
	Ops []ScheduledOp
	// Interval is the round-timer period; defaults to 5ms.
	Interval time.Duration
	// Latency is the link profile; defaults to an MS profile (the weakest
	// environment Algorithm 4 is proved for).
	Latency env.LatencyModel
	// Duration is how long to run; defaults to 2s.
	Duration time.Duration
}

// LiveResult is the outcome of a live weak-set run.
type LiveResult struct {
	// Gets holds every scheduled get's snapshot.
	Gets []GetResult
	// Records concatenates all processes' add records.
	Records []AddRecord
	// Checker contains the full history in local-round timestamps.
	// Rounds at different processes drift in the live runtime, so the
	// checker's verdict is meaningful per-process; cross-process ordering
	// is only approximate. Tests assert the stronger per-value conditions
	// directly.
	Checker *Checker
}

// CompletedAdds returns the add records that completed.
func (r *LiveResult) CompletedAdds() []AddRecord {
	var out []AddRecord
	for _, rec := range r.Records {
		if rec.Completed > 0 {
			out = append(out, rec)
		}
	}
	return out
}

// RunLive executes Algorithm 4 on the live network.
func RunLive(cfg LiveConfig) (*LiveResult, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("weakset: live N = %d", cfg.N)
	}
	for _, op := range cfg.Ops {
		if op.Proc < 0 || op.Proc >= cfg.N {
			return nil, fmt.Errorf("weakset: live op names process %d outside [0,%d)", op.Proc, cfg.N)
		}
		if op.Kind == OpAdd && !op.Value.Valid() {
			return nil, fmt.Errorf("weakset: invalid value %q in live add", string(op.Value))
		}
	}
	interval := cfg.Interval
	if interval <= 0 {
		interval = 5 * time.Millisecond
	}
	duration := cfg.Duration
	if duration <= 0 {
		duration = 2 * time.Second
	}
	latency := cfg.Latency
	if latency == nil {
		latency = env.MSProfile{N: cfg.N, Interval: interval, Seed: 1}
	}

	var (
		mu    sync.Mutex
		procs = make([]*MSProc, cfg.N)
		out   = &LiveResult{Checker: &Checker{}}
	)
	_, err := anonnet.Run(context.Background(), anonnet.Config{
		N: cfg.N,
		Automaton: func(i int) giraf.Automaton {
			procs[i] = NewMSProc()
			return procs[i]
		},
		Interval: interval,
		Latency:  latency,
		Timeout:  duration,
		OnRound: func(proc, round int, aut giraf.Automaton) {
			p := aut.(*MSProc)
			for _, op := range cfg.Ops {
				if op.Proc != proc || op.Round != round {
					continue
				}
				switch op.Kind {
				case OpAdd:
					p.EnqueueAdd(op.Value)
				case OpGet:
					got := p.Snapshot()
					mu.Lock()
					out.Gets = append(out.Gets, GetResult{Proc: proc, Round: round, Got: got})
					out.Checker.Record(Op{Kind: OpGet, Got: got, Start: int64(round), End: int64(round)})
					mu.Unlock()
				}
			}
		},
	})
	if err != nil {
		return nil, err
	}
	for _, p := range procs {
		for _, rec := range p.Records() {
			out.Records = append(out.Records, rec)
		}
	}
	return out, nil
}

// ContainsValue reports whether any get snapshot contains v.
func (r *LiveResult) ContainsValue(v values.Value) bool {
	for _, g := range r.Gets {
		if g.Got.Contains(v) {
			return true
		}
	}
	return false
}
