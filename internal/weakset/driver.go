package weakset

import (
	"fmt"
	"math"

	"anonconsensus/internal/env"
	"anonconsensus/internal/giraf"
	"anonconsensus/internal/sim"
	"anonconsensus/internal/values"
)

// ScheduledOp is one operation the driver injects into a simulated run.
type ScheduledOp struct {
	// Proc is the process executing the operation.
	Proc int
	// Round is the global round after which the operation is injected
	// (adds start at the next compute; gets snapshot immediately).
	Round int
	// Kind selects add or get.
	Kind OpKind
	// Value is the added value (OpAdd only).
	Value values.Value
}

// GetResult is the outcome of one scheduled get.
type GetResult struct {
	Proc  int
	Round int
	Got   values.Set
}

// SimResult bundles a finished weak-set simulation.
type SimResult struct {
	Sim *sim.Result
	// Gets holds every scheduled get's snapshot.
	Gets []GetResult
	// Checker contains the full operation history, ready to Check.
	Checker *Checker
	// Records concatenates all processes' add records.
	Records []AddRecord
}

// validateOps rejects a schedule that names a process outside [0,n) or adds
// an invalid value (shared by RunMS and RunLive).
func validateOps(n int, ops []ScheduledOp) error {
	for _, op := range ops {
		if op.Proc < 0 || op.Proc >= n {
			return fmt.Errorf("weakset: op names process %d outside [0,%d)", op.Proc, n)
		}
		if op.Kind == OpAdd && !op.Value.Valid() {
			return fmt.Errorf("weakset: invalid value %q in add", string(op.Value))
		}
	}
	return nil
}

// RunMS simulates Algorithm 4 with n processes under the given policy and
// fault scenario (nil = fault-free), injecting the scheduled operations,
// and returns the recorded history.
func RunMS(n int, ops []ScheduledOp, pol env.Policy, maxRounds int, sc *env.Scenario) (*SimResult, error) {
	if err := validateOps(n, ops); err != nil {
		return nil, err
	}
	procs := make([]*MSProc, n)
	out := &SimResult{Checker: &Checker{}}
	res, err := sim.Run(sim.Config{
		N: n,
		Automaton: func(i int) giraf.Automaton {
			procs[i] = NewMSProc()
			return procs[i]
		},
		Policy:    pol,
		Scenario:  sc,
		MaxRounds: maxRounds,
		OnRound: func(r int, e *sim.Engine) {
			for _, op := range ops {
				if op.Round != r {
					continue
				}
				switch op.Kind {
				case OpAdd:
					procs[op.Proc].EnqueueAdd(op.Value)
				case OpGet:
					got := procs[op.Proc].Snapshot()
					out.Gets = append(out.Gets, GetResult{Proc: op.Proc, Round: r, Got: got})
					out.Checker.Record(Op{Kind: OpGet, Got: got, Start: int64(r), End: int64(r)})
				}
			}
		},
	})
	if err != nil {
		return nil, err
	}
	out.Sim = res
	for _, p := range procs {
		for _, rec := range p.Records() {
			out.Records = append(out.Records, rec)
			end := int64(math.MaxInt64) // incomplete adds never satisfy "completed before"
			if rec.Completed > 0 {
				end = int64(rec.Completed)
			}
			out.Checker.Record(Op{Kind: OpAdd, Value: rec.Value, Start: int64(rec.Enqueued), End: end})
		}
	}
	return out, nil
}

// CompletedAdds returns the add records that completed.
func (r *SimResult) CompletedAdds() []AddRecord {
	var out []AddRecord
	for _, rec := range r.Records {
		if rec.Completed > 0 {
			out = append(out, rec)
		}
	}
	return out
}

// MaxAddLatency returns the largest Completed−Started over completed adds.
func (r *SimResult) MaxAddLatency() int {
	max := 0
	for _, rec := range r.CompletedAdds() {
		if d := rec.Completed - rec.Started; d > max {
			max = d
		}
	}
	return max
}
