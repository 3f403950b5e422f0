package weakset

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
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
	// Duration is the ceiling on the run's length (a run ends earlier,
	// once all of Ops are done); defaults to 2s.
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

// RunLive executes Algorithm 4 on the live network. Algorithm 4's
// automaton never halts, so the run ends as soon as every scheduled op has
// executed and every enqueued add has completed; Duration is the ceiling
// for runs whose adds cannot complete.
func RunLive(cfg LiveConfig) (*LiveResult, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("weakset: live N = %d", cfg.N)
	}
	if err := validateOps(cfg.N, cfg.Ops); err != nil {
		return nil, err
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
	// lastOp[i] is the round of process i's last scheduled op: from that
	// round on, process i is finished once it has no add in progress.
	lastOp := make([]int, cfg.N)
	for _, op := range cfg.Ops {
		lastOp[op.Proc] = max(lastOp[op.Proc], op.Round)
	}

	var (
		mu       sync.Mutex
		procs    = make([]*MSProc, cfg.N)
		out      = &LiveResult{Checker: &Checker{}}
		finished = make([]bool, cfg.N) // finished[i] belongs to process i's goroutine
		running  atomic.Int64
	)
	running.Store(int64(cfg.N))
	ctx, allFinished := context.WithCancel(context.Background())
	defer allFinished()
	_, err := anonnet.Run(ctx, anonnet.Config{
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
			if !finished[proc] && round >= lastOp[proc] && p.idle() {
				finished[proc] = true
				if running.Add(-1) == 0 {
					allFinished()
				}
			}
		},
	})
	// anonnet reports a cancelled parent as an error; this parent is
	// cancelled only by the run's own completion.
	if err != nil && ctx.Err() == nil {
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
