package fd

import (
	"fmt"
	"maps"
	"strings"

	"anonconsensus/internal/giraf"
	"anonconsensus/internal/ordered"
	"anonconsensus/internal/values"
)

// HeartbeatPayload is the wire payload of the ID-based Ω tracker: the
// sender's identity plus its gossiped per-ID timeliness counters. The ID
// field is the thing anonymous processes do not have — Algorithm 3's
// proposal histories stand in for it, and its counter table C is exactly
// this Counts map keyed by history instead of by ID.
type HeartbeatPayload struct {
	ID     int
	Counts map[int]int
	// key is PayloadKey, built once for each payload the tracker sends,
	// since its fingerprint and size both read it; a literal has none and
	// builds it on each call.
	key string
}

// heartbeat returns the payload with its key built.
func heartbeat(id int, counts map[int]int) HeartbeatPayload {
	p := HeartbeatPayload{ID: id, Counts: counts}
	p.key = p.PayloadKey()
	return p
}

var _ giraf.Payload = HeartbeatPayload{}

// PayloadKey implements giraf.Payload with a canonical counts encoding.
// The ID-based baseline identifies its payloads by this key: fingerprint
// and size are the key's.
func (p HeartbeatPayload) PayloadKey() string {
	if p.key != "" {
		return p.key
	}
	ids := ordered.Keys(p.Counts)
	var b strings.Builder
	fmt.Fprintf(&b, "hb!%d!", p.ID)
	for _, id := range ids {
		fmt.Fprintf(&b, "%d=%d;", id, p.Counts[id])
	}
	return b.String()
}

// PayloadFingerprint implements giraf.Payload.
func (p HeartbeatPayload) PayloadFingerprint() values.Fingerprint {
	return values.FingerprintString(p.PayloadKey())
}

// PayloadEncodedSize implements giraf.Payload.
func (p HeartbeatPayload) PayloadEncodedSize() int { return len(p.PayloadKey()) }

// OmegaTracker implements Ω by gossiped heartbeat counting in a *known*
// network, mirroring Algorithm 3's pseudo leader election with IDs in
// place of histories: every round a process (1) min-merges the counter
// tables it received — so a counter only survives as high as the *least*
// informed sender reports it — and (2) bumps the counter of every ID whose
// message arrived timely this round. An eventual stable source's counter
// grows by one per round everywhere while every other counter is capped by
// its victim's slowest link, so the argmax (ties to the smaller ID)
// stabilizes on the source. Compare values.CountersBuilder.MinMergeBump.
type OmegaTracker struct {
	id     int
	counts map[int]int
}

var _ giraf.Automaton = (*OmegaTracker)(nil)

// NewOmegaTracker returns the tracker for process id.
func NewOmegaTracker(id int) *OmegaTracker {
	return &OmegaTracker{id: id, counts: make(map[int]int)}
}

// Initialize implements giraf.Automaton.
func (o *OmegaTracker) Initialize() giraf.Payload {
	return heartbeat(o.id, map[int]int{})
}

// Compute implements giraf.Automaton. It never decides.
func (o *OmegaTracker) Compute(k int, inbox giraf.Inbox) (giraf.Payload, giraf.Decision) {
	msgs := inbox.Round(k)
	// Min-merge the gossiped tables (absent = 0), as Algorithm 3 line 8.
	// The first *heartbeat* seeds the table: payloads of a foreign
	// algorithm family are skipped entirely, wherever they sort.
	merged := make(map[int]int)
	seeded := false
	for _, m := range msgs {
		hb, ok := m.(HeartbeatPayload)
		if !ok {
			continue
		}
		if !seeded {
			seeded = true
			maps.Copy(merged, hb.Counts)
			continue
		}
		//detlint:ordered per-key min-merge: each entry is kept, lowered or deleted independently
		for id, c := range merged {
			hc, present := hb.Counts[id]
			if !present {
				delete(merged, id)
			} else if hc < c {
				merged[id] = hc
			}
		}
	}
	// Bump every timely sender, as Algorithm 3 line 9.
	for _, m := range msgs {
		if hb, ok := m.(HeartbeatPayload); ok {
			merged[hb.ID]++
		}
	}
	o.counts = merged
	return heartbeat(o.id, maps.Clone(merged)), giraf.Decision{}
}

// Leader returns the current leader estimate: maximal count, ties to the
// smaller ID. Before any heartbeat it returns the process itself.
func (o *OmegaTracker) Leader() int {
	best, bestCount, found := o.id, -1, false
	//detlint:ordered argmax under the strict total order (count desc, id asc) is visit-order-independent
	for id, c := range o.counts {
		if c > bestCount || (c == bestCount && id < best) {
			best, bestCount, found = id, c, true
		}
	}
	if !found {
		return o.id
	}
	return best
}

// IsLeader reports whether this process currently considers itself leader.
func (o *OmegaTracker) IsLeader() bool { return o.Leader() == o.id }

// Count returns the current counter for id (0 if unknown), for tests.
func (o *OmegaTracker) Count(id int) int { return o.counts[id] }
