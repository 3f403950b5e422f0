package giraf

import (
	"fmt"
	"slices"

	"anonconsensus/internal/values"
)

// DeltaTracker turns full envelopes into delta envelopes on the sender
// side of a reliable FIFO transport. A payload travels in full whenever it
// was not part of the sender's previous envelope; payloads repeated from
// the previous envelope (GIRAF rebroadcasts the whole inbox each round, so
// in steady state that is almost all of them) travel as fingerprint
// references. This removes the O(n²)-payloads-per-round rebroadcast cost
// Algorithm 1 inherits from GIRAF while keeping the reliable-link
// assumption intact — every receiver can reconstruct every envelope from
// the stream itself — and bounds sender-side state to one envelope's worth
// of fingerprints (references never reach further back than the
// immediately preceding send).
//
// A DeltaTracker is per-stream state and is not safe for concurrent use.
type DeltaTracker struct {
	prev map[values.Fingerprint]struct{}
	next map[values.Fingerprint]struct{}
}

// NewDeltaTracker returns an empty tracker (everything will be sent full).
func NewDeltaTracker() *DeltaTracker {
	return &DeltaTracker{
		prev: make(map[values.Fingerprint]struct{}),
		next: make(map[values.Fingerprint]struct{}),
	}
}

// Shrink rewrites env into delta form: payloads that were part of the
// previous Shrink call's envelope move to Refs (fingerprints only); new or
// reappearing payloads stay in Payloads. The set fingerprint is preserved.
// The first envelope of a stream is the full-set fallback: Refs stays
// empty and the envelope is equivalent to its full form.
func (t *DeltaTracker) Shrink(env Envelope) Envelope {
	out := Envelope{Round: env.Round, SetFingerprint: env.SetFingerprint}
	next := t.next
	clear(next)
	for _, pay := range env.Payloads {
		fp := pay.PayloadFingerprint()
		next[fp] = struct{}{}
		if _, ok := t.prev[fp]; ok {
			out.Refs = append(out.Refs, fp)
			continue
		}
		out.Payloads = append(out.Payloads, pay)
	}
	t.prev, t.next = next, t.prev
	return out
}

// resolveWindow is how many stream frames a ResolveTable retains payloads
// for. Senders only ever reference their immediately preceding envelope,
// and one sender's consecutive frames are interleaved with at most the
// other peers' traffic on a hub downlink, so a window of thousands of
// frames is orders of magnitude more than resolution needs while keeping
// receiver memory proportional to the window, not the stream length.
const resolveWindow = 4096

// ResolveTable is the receiver-side counterpart of DeltaTracker: it
// remembers recently observed payloads by fingerprint and resolves delta
// envelopes back to full form. Payloads age out once they have not been
// observed (sent full or referenced) for resolveWindow frames, so a
// long-lived node's memory is bounded by the window instead of growing
// with the run. On a reliable FIFO stream every reference points at a
// payload observed in the referencing sender's previous frame — well
// inside the window — so resolution never fails for a well-formed peer; a
// failing resolution means a corrupt, hostile, or impossibly delayed
// frame.
//
// A ResolveTable is per-stream state and is not safe for concurrent use.
type ResolveTable struct {
	byFP  map[values.Fingerprint]resolveEntry
	aging []agingRecord
	frame int
}

type resolveEntry struct {
	pay      Payload
	lastSeen int
}

type agingRecord struct {
	fp    values.Fingerprint
	frame int
}

// NewResolveTable returns an empty table.
func NewResolveTable() *ResolveTable {
	return &ResolveTable{byFP: make(map[values.Fingerprint]resolveEntry)}
}

// Observe records a payload so later references to it resolve (and
// refreshes its retention window).
func (rt *ResolveTable) Observe(pay Payload) {
	rt.observe(pay.PayloadFingerprint(), pay)
}

func (rt *ResolveTable) observe(fp values.Fingerprint, pay Payload) {
	rt.byFP[fp] = resolveEntry{pay: pay, lastSeen: rt.frame}
	rt.aging = append(rt.aging, agingRecord{fp: fp, frame: rt.frame})
}

// Len returns the number of distinct payloads currently retained.
func (rt *ResolveTable) Len() int { return len(rt.byFP) }

// Resolve returns the full form of env: new payloads are observed, refs
// are looked up (refreshing their retention), and the payload list is
// restored to fingerprint order (the order EndOfRound broadcasts), so
// the resolved envelope is structurally identical to the sender's full
// envelope. It returns an error naming the first unresolvable reference.
func (rt *ResolveTable) Resolve(env Envelope) (Envelope, error) {
	for _, pay := range env.Payloads {
		rt.Observe(pay)
	}
	out := Envelope{Round: env.Round, SetFingerprint: env.SetFingerprint}
	if len(env.Refs) == 0 && slices.IsSortedFunc(env.Payloads, byFingerprint) {
		out.Payloads = env.Payloads
		rt.endFrame()
		return out, nil
	}
	full := make([]Payload, 0, len(env.Payloads)+len(env.Refs))
	full = append(full, env.Payloads...)
	for _, fp := range env.Refs {
		e, ok := rt.byFP[fp]
		if !ok {
			rt.endFrame()
			return Envelope{}, fmt.Errorf("giraf: unresolvable delta reference %v in round-%d envelope", fp, env.Round)
		}
		rt.observe(fp, e.pay) // referenced payloads stay retained
		full = append(full, e.pay)
	}
	slices.SortFunc(full, byFingerprint)
	out.Payloads = full
	rt.endFrame()
	return out, nil
}

// endFrame advances the frame clock and evicts payloads whose last
// observation has aged out of the window.
func (rt *ResolveTable) endFrame() {
	rt.frame++
	cutoff := rt.frame - resolveWindow
	i := 0
	for ; i < len(rt.aging) && rt.aging[i].frame < cutoff; i++ {
		rec := rt.aging[i]
		if e, ok := rt.byFP[rec.fp]; ok && e.lastSeen == rec.frame {
			delete(rt.byFP, rec.fp)
		}
	}
	if i > 0 {
		rt.aging = append(rt.aging[:0], rt.aging[i:]...)
	}
}
