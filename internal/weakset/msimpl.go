package weakset

import (
	"anonconsensus/internal/giraf"
	"anonconsensus/internal/values"
)

// setPayload is Algorithm 4's wire payload: the PROPOSED set, whose key is
// the set's. Fingerprint and size are cached in the set's canonical form.
type setPayload struct{ proposed values.Set }

var _ giraf.Payload = setPayload{}

func (p setPayload) PayloadKey() string { return p.proposed.Key() }

func (p setPayload) PayloadFingerprint() values.Fingerprint { return p.proposed.Fingerprint() }

func (p setPayload) PayloadEncodedSize() int { return p.proposed.EncodedSize() }

// AddRecord is the completed lifetime of one add operation, in rounds.
type AddRecord struct {
	Value values.Value
	// Enqueued is the round at which the driver handed the value to the
	// process.
	Enqueued int
	// Started is the compute round at which the process executed the add
	// (PROPOSED ∪= {v}; VAL := v; BLOCK := true).
	Started int
	// Completed is the compute round at which BLOCK cleared (VAL ∈
	// WRITTEN, Algorithm 4 line 16); 0 while still pending.
	Completed int
}

// MSProc is Algorithm 4: one process of the weak-set implementation for the
// MS environment. Operations are injected by a driver (EnqueueAdd /
// Snapshot) because GIRAF computes must not block; the blocking add of the
// paper corresponds to waiting for the matching AddRecord.Completed.
//
// Not safe for concurrent use; the simulator serializes calls.
type MSProc struct {
	val      values.Value
	proposed values.Set
	written  values.Set
	block    bool

	queue   []values.Value // adds waiting to start (one runs at a time)
	pending int            // index into records of the running add, -1 if none
	records []AddRecord
	round   int
}

var _ giraf.Automaton = (*MSProc)(nil)

// NewMSProc returns an idle weak-set process.
func NewMSProc() *MSProc {
	return &MSProc{
		val:      values.Bot,
		proposed: values.NewSet(),
		written:  values.NewSet(),
		pending:  -1,
	}
}

// EnqueueAdd hands v to the process; the add starts at its next compute
// (Algorithm 4 lines 7–12 run between rounds) and completes when the value
// has provably reached everybody.
func (p *MSProc) EnqueueAdd(v values.Value) {
	p.queue = append(p.queue, v)
	p.records = append(p.records, AddRecord{Value: v, Enqueued: p.round})
}

// Snapshot is the get operation (Algorithm 4 lines 5–6): it returns the
// current PROPOSED set.
func (p *MSProc) Snapshot() values.Set { return p.proposed }

// Records returns the add records (shared slice; read-only).
//
//detlint:aliased read-only by contract; the T7 table reads records after the run, when the slice is quiescent
func (p *MSProc) Records() []AddRecord { return p.records }

// Blocked reports whether an add is in progress.
func (p *MSProc) Blocked() bool { return p.block }

// idle reports whether every enqueued add has completed.
func (p *MSProc) idle() bool { return !p.block && len(p.queue) == 0 }

// Initialize implements giraf.Automaton (Algorithm 4 lines 1–4).
func (p *MSProc) Initialize() giraf.Payload {
	return setPayload{proposed: p.proposed}
}

// Compute implements giraf.Automaton (Algorithm 4 lines 13–17).
func (p *MSProc) Compute(k int, inbox giraf.Inbox) (giraf.Payload, giraf.Decision) {
	p.round = k
	// Line 14: WRITTEN := ∩_{m ∈ M_i[k]} m.
	msgs := inbox.Round(k)
	sets := make([]values.Set, 0, len(msgs))
	for _, m := range msgs {
		if sp, ok := m.(setPayload); ok { // foreign payloads ignored
			sets = append(sets, sp.proposed)
		}
	}
	p.written = values.IntersectAll(sets)
	// Line 15: PROPOSED := (∪_{m ∈ M_i[k'], 1 ≤ k' ≤ k} m) ∪ PROPOSED.
	// Fresh() covers exactly the payloads delivered since the last compute
	// — including late arrivals for earlier rounds, which is what lets
	// permanently-slow links still contribute (contrast Algorithms 2/3,
	// which read only the current round).
	for _, m := range inbox.Fresh() {
		if sp, ok := m.(setPayload); ok {
			p.proposed.AddAll(sp.proposed)
		}
	}
	// Line 16: if VAL ∈ WRITTEN then BLOCK := false (the running add
	// completes).
	if p.block && p.written.Contains(p.val) {
		p.block = false
		p.records[p.pending].Completed = k
		p.pending = -1
	}
	// Start the next queued add (lines 8–10 of the add operation).
	if !p.block && len(p.queue) > 0 {
		v := p.queue[0]
		p.queue = p.queue[1:]
		for i := range p.records {
			if p.records[i].Value == v && p.records[i].Started == 0 && p.records[i].Completed == 0 {
				p.pending = i
				break
			}
		}
		p.records[p.pending].Started = k
		p.proposed.Add(v)
		p.val = v
		p.block = true
	}
	// Line 17: return PROPOSED.
	return setPayload{proposed: p.proposed}, giraf.Decision{}
}
