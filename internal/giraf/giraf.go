// Package giraf implements the paper's extension of the Generic Round-based
// Algorithm Framework (GIRAF, Keidar & Shraer) for unknown and anonymous
// networks — Algorithm 1 of the paper.
//
// A process is an I/O automaton instantiated with two non-blocking
// functions, Initialize and Compute. The environment drives each process
// through rounds by invoking end-of-round; at the k-th invocation the
// process computes its round-k payload, adds it to its own round-(k+1)
// inbox, advances to round k+1, and broadcasts its whole round-(k+1) inbox.
// Receiving a broadcast merges the carried payload set into the local inbox
// of the corresponding round.
//
// The anonymity extension: inboxes are *sets* of payloads, not arrays
// indexed by sender. Two processes that broadcast structurally identical
// payloads contribute a single element — processes are indistinguishable by
// construction.
//
// Identity is canonical-form based (see PERFORMANCE.md): every payload has
// a canonical key, defined by its parts, and a 128-bit fingerprint of that
// key; fingerprint equality is structural equality, and payloads are
// immutable once returned by an automaton. Payloads report the key's
// fingerprint and length from their parts, so the round path never builds
// a key. Inboxes deduplicate on fingerprints and keep the round in
// fingerprint order, the order every process reads it in (DESIGN.md §3
// note 8 says why any one order serves), so neither membership tests nor
// Round(k) ever re-sort or re-encode. Envelopes
// additionally carry a fingerprint of their whole payload set — the
// set-level identity the delta wire format is built on (see DeltaTracker
// and package wire).
package giraf

import (
	"fmt"
	"math/bits"
	"sort"

	"anonconsensus/internal/values"
)

// Payload is one automaton-produced message, immutable once returned by an
// automaton. Its canonical key is its identity: two payloads are the same
// set element iff their keys are equal. The framework reads the key only
// through what the other two methods report from the payload's parts, and
// each must agree with the key exactly:
//
//	PayloadFingerprint() == values.FingerprintString(PayloadKey())
//	PayloadEncodedSize() == len(PayloadKey())
//
// The fingerprint also orders a round's payloads (Inbox.Round).
type Payload interface {
	// PayloadKey returns the canonical key as text, for tests and messages.
	PayloadKey() string
	// PayloadFingerprint returns the key's fingerprint.
	PayloadFingerprint() values.Fingerprint
	// PayloadEncodedSize returns the key's length in bytes.
	PayloadEncodedSize() int
}

// byFingerprint orders payloads by fingerprint, the order of a round.
func byFingerprint(p, q Payload) int { return p.PayloadFingerprint().Compare(q.PayloadFingerprint()) }

// RoundLocal is an optional Automaton extension for automata whose
// Compute(k) reads nothing of the inbox but Round(k) — Algorithms 2 and 3
// and the Ω baseline; not Algorithm 4, which reads Fresh. A payload for a
// round such an automaton has already computed can never be read, so
// Proc.Receive drops it and EndOfRound recycles a round's storage as soon
// as it has computed the round.
//
// The marker also admits a process to a SharedRound: it adopts a round
// inbox built once for every receiver instead of merging each envelope
// itself. An adopted round's payloads never enter the process's Fresh, so
// Fresh misses them until the next end-of-round clears it; only the
// marker's promise that Compute never reads Fresh makes that sound.
type RoundLocal interface {
	// ReadsOnlyRound is a marker; the framework never calls it.
	ReadsOnlyRound()
}

// Decision is the outcome of a Compute step.
type Decision struct {
	// Decided is true when the automaton executed "decide v; halt".
	Decided bool
	// Value is the decided value; meaningful only when Decided.
	Value values.Value
}

// Inbox is the read view of a process's received messages that Compute
// receives (the M_i array of Algorithm 1).
type Inbox interface {
	// Round returns the deduplicated payload set received for round k, in
	// fingerprint order so automata iterate deterministically. The
	// returned slice is shared and must not be mutated or retained across
	// framework calls.
	Round(k int) []Payload
	// Fresh returns payloads delivered since the previous end-of-round, for
	// any round, in arrival order (duplicates across calls never repeat).
	// Algorithm 4 (weak-set) uses it to accumulate the union over all
	// rounds' messages without rescanning.
	Fresh() []Payload
	// CurrentRound returns the round the process is currently in.
	CurrentRound() int
}

// Automaton is the algorithm plugged into the framework: the initialize()
// and compute() functions of Algorithm 1. Implementations are per-process
// and need not be safe for concurrent use; the framework serializes calls.
type Automaton interface {
	// Initialize returns the process's round-1 payload (invoked at the first
	// end-of-round, when k_i = 0).
	Initialize() Payload
	// Compute consumes the inbox for round k and returns the payload for
	// round k+1 plus a possible decision. When the decision has Decided set,
	// the process halts: the returned payload is discarded and nothing
	// further is broadcast (Algorithm 2 line 10: "decide VAL; halt").
	Compute(k int, inbox Inbox) (Payload, Decision)
}

// Envelope is a broadcast message ⟨M, k⟩: the sender's round-k payload set
// at send time.
//
// An envelope can be in one of two forms:
//
//   - full: Payloads carries the entire set, Refs is nil. This is what
//     EndOfRound produces and what Proc.Receive consumes.
//   - delta: Payloads carries only payloads the sender has not broadcast
//     before, and Refs carries the fingerprints of the remaining payloads
//     of the set, each of which the sender broadcast in full in an earlier
//     envelope. Delta envelopes are a transport concern (see DeltaTracker
//     and ResolveTable, used by package wire): they must be resolved back
//     to full form before reaching Proc.Receive.
//
// SetFingerprint, when non-zero, fingerprints the entire payload set (in
// fingerprint order), identical across the full and delta forms of the same
// envelope: the set-level identity used on the wire.
type Envelope struct {
	Round    int
	Payloads []Payload
	// Refs holds fingerprints of payloads omitted from Payloads because the
	// sender already broadcast them (delta form); nil for full envelopes.
	Refs []values.Fingerprint
	// SetFingerprint is the fingerprint of the complete payload set, or the
	// zero Fingerprint when not computed.
	SetFingerprint values.Fingerprint
}

// roundInbox is the per-round storage: fingerprint-addressed membership
// plus an incrementally maintained view in fingerprint order. Membership is
// a linear scan over the flat fingerprint slice while the round is small
// (the overwhelmingly common case: anonymous rounds hold one payload per
// equivalence class); once the round outgrows the scan threshold an
// open-addressed table of positions into fps takes over, slotted by bits of
// the fingerprint itself — a fingerprint already is a hash, so nothing is
// hashed again and typical rounds never allocate a table.
type roundInbox struct {
	// idx is the open-addressed index: a power-of-two table whose non-zero
	// entries are 1-based positions into fps, probed linearly from
	// slotOf(fp) masked to the table, load kept ≤ ½. It describes
	// fps[:indexed]; the first lookup that finds indexed != len(fps) — the
	// round just outgrew inboxScanMax, the table ran out of room, or
	// ensureSorted permuted the positions — rebuilds it. The slot is a place
	// to start looking, not an identity: a hit is always confirmed by
	// comparing full fingerprints.
	idx     []uint32
	indexed int
	pays    []Payload            // payloads, ascending by fps once settled
	fps     []values.Fingerprint // payload fingerprints, parallel to pays
	// dirty marks that an append broke fingerprint order; the order
	// consumers (snapshot, setFingerprint) re-establish it lazily, so a
	// burst of insertions costs one sort instead of a memmove each.
	dirty bool
	// view is the cached Round(k) snapshot; nil after an insertion.
	view []Payload
	// setFP is the cached fingerprint of the round's full payload set in
	// fingerprint order; zero after an insertion.
	setFP values.Fingerprint
	// adopters counts the processes holding this inbox as an adopted round
	// (see SharedRound); storage with adopters is never written again.
	adopters int
	// agg is the adopters' shared cell (see Proc.SharedAggregate).
	agg any
}

// roundInboxHint pre-sizes the per-round storage: typical rounds hold at
// most one payload per anonymous equivalence class, so a small starting
// capacity absorbs the append-growth churn without bloating big-n runs.
const roundInboxHint = 8

// inboxScanMax is the round size up to which membership is a linear
// fingerprint scan; beyond it the idx table takes over. 16 entries × 16
// bytes is four cache lines read in order — cheaper than a probe sequence.
const inboxScanMax = 16

func newRoundInbox() *roundInbox {
	return &roundInbox{
		pays: make([]Payload, 0, roundInboxHint),
		fps:  make([]values.Fingerprint, 0, roundInboxHint),
	}
}

// recycle clears the storage for reuse by a later round (or run), keeping
// the index table and slice capacity warm. Only the occupied prefix needs
// clearing: entries past len were zeroed by the previous recycle and are
// never written without growing len first. The index table is not cleared
// here — most rounds never grow into it; reindex clears it on first use.
func (ri *roundInbox) recycle() {
	clear(ri.pays) // drop payload refs so reuse doesn't pin them
	clear(ri.fps)
	ri.pays = ri.pays[:0]
	ri.fps = ri.fps[:0]
	ri.indexed = 0
	ri.dirty = false
	ri.view = nil
	ri.setFP = values.Fingerprint{}
	ri.agg = nil
}

// slotOf is where fp's probe sequence starts, before masking to the table
// size. Fingerprints are FNV-1a outputs, whose low bits mix weakly; folding
// the halves and keeping the upper half of a Fibonacci multiply spreads
// them over any power-of-two table.
func slotOf(fp values.Fingerprint) int {
	return int(((fp.Hi ^ fp.Lo) * 0x9E3779B97F4A7C15) >> 32)
}

// reindex rebuilds idx over all of fps, in a table the round can double in
// before the next rebuild (load just over ¼ now, ≤ ½ always). A recycled
// table is reused at its full size, so a warmed inbox neither allocates nor
// rebuilds on the way up. Stored fingerprints are pairwise distinct:
// placing them needs free slots only, no comparisons.
func (ri *roundInbox) reindex() {
	if size := cap(ri.idx); 2*len(ri.fps) < size {
		ri.idx = ri.idx[:size]
		clear(ri.idx)
	} else {
		ri.idx = make([]uint32, 1<<bits.Len(uint(2*len(ri.fps))))
	}
	mask := len(ri.idx) - 1
	for pos, fp := range ri.fps {
		i := slotOf(fp) & mask
		for ri.idx[i] != 0 {
			i = (i + 1) & mask
		}
		ri.idx[i] = uint32(pos + 1)
	}
	ri.indexed = len(ri.fps)
}

// find reports whether a payload with fingerprint fp is stored: a flat scan
// while the round is small, one probe sequence afterwards. In the second
// case slot is where the sequence ended — at fp's entry, or at the free
// slot an insert of fp fills, so one probe serves both; it is -1 while the
// round is scanned.
func (ri *roundInbox) find(fp values.Fingerprint) (slot int, ok bool) {
	if len(ri.fps) <= inboxScanMax {
		for _, f := range ri.fps {
			if f == fp {
				return -1, true
			}
		}
		return -1, false
	}
	if ri.indexed != len(ri.fps) {
		ri.reindex()
	}
	mask := len(ri.idx) - 1
	for i := slotOf(fp) & mask; ; i = (i + 1) & mask {
		pos := ri.idx[i]
		if pos == 0 {
			return i, false
		}
		if ri.fps[pos-1] == fp {
			return i, true
		}
	}
}

// insert adds pay, whose fingerprint is fp, and reports whether it was new.
func (ri *roundInbox) insert(fp values.Fingerprint, pay Payload) bool {
	slot, ok := ri.find(fp)
	if ok {
		return false
	}
	if n := len(ri.fps); n > 0 && fp.Compare(ri.fps[n-1]) < 0 {
		ri.dirty = true
	}
	ri.pays = append(ri.pays, pay)
	ri.fps = append(ri.fps, fp)
	// The index follows while its table has room; otherwise it is left
	// behind and the next find rebuilds it (larger, or for the first time).
	if slot >= 0 && 2*len(ri.fps) <= len(ri.idx) {
		ri.idx[slot] = uint32(len(ri.fps))
		ri.indexed = len(ri.fps)
	}
	ri.view = nil
	ri.setFP = values.Fingerprint{}
	return true
}

// inboxByFP sorts the two parallel payload slices in fingerprint order.
// Fingerprints are pairwise distinct (equal ones are deduplicated on
// insert), so the order — hence every snapshot and set fingerprint — is
// unique regardless of arrival order.
type inboxByFP struct{ ri *roundInbox }

func (s inboxByFP) Len() int           { return len(s.ri.fps) }
func (s inboxByFP) Less(i, j int) bool { return s.ri.fps[i].Compare(s.ri.fps[j]) < 0 }
func (s inboxByFP) Swap(i, j int) {
	ri := s.ri
	ri.pays[i], ri.pays[j] = ri.pays[j], ri.pays[i]
	ri.fps[i], ri.fps[j] = ri.fps[j], ri.fps[i]
}

// ensureSorted re-establishes fingerprint order after appends. The sort
// permutes fps, so the positions idx holds are stale afterwards.
func (ri *roundInbox) ensureSorted() {
	if ri.dirty {
		sort.Sort(inboxByFP{ri})
		ri.dirty = false
		ri.indexed = 0
	}
}

// snapshot returns (building and caching if needed) the payloads in
// fingerprint order as a slice that stays valid across later insertions.
func (ri *roundInbox) snapshot() []Payload {
	ri.ensureSorted()
	if ri.view == nil {
		ri.view = make([]Payload, len(ri.pays))
		copy(ri.view, ri.pays)
	}
	return ri.view
}

// setFingerprint returns (computing and caching if needed) the fingerprint
// of the full payload set in fingerprint order.
func (ri *roundInbox) setFingerprint() values.Fingerprint {
	ri.ensureSorted()
	if ri.setFP.IsZero() {
		var h values.Hasher
		h.WriteString("E")
		for _, fp := range ri.fps {
			h.WriteFingerprint(fp)
		}
		ri.setFP = h.Sum()
	}
	return ri.setFP
}

// Proc is the framework state of one process: its round number, inbox
// array, and halted flag. Proc is not safe for concurrent use.
//
// Round storage is flat: inbox is indexed by round number (the M_i array
// of Algorithm 1, literally), so the hot paths — current-round merge,
// Round(k) reads — are a bounds check and a slice load instead of a map
// probe. Slots are nil until the round first stores a payload; recycled
// storage is drawn from the spare list.
type Proc struct {
	aut   Automaton
	round int           // k_i: number of end-of-round invocations so far
	inbox []*roundInbox // indexed by round; nil slot = empty round
	// far holds rounds too distant from the dense window to index flat —
	// only reachable via a transport delivering an absurd round number
	// (see farRoundSlack); nil until first needed.
	far      map[int]*roundInbox
	fresh    []Payload
	halted   bool
	decision Decision

	// roundLocal caches whether the automaton implements RoundLocal.
	roundLocal bool

	// spare holds recycled round inboxes (from Reset and retire) that
	// future merges reuse instead of allocating.
	spare []*roundInbox

	// shared is the SharedRound union the process adopted for round
	// sharedRound (inbox[sharedRound] points to it), nil when it holds none.
	shared      *roundInbox
	sharedRound int

	// delivered counts payload-set merges that actually added something;
	// exposed for metrics.
	delivered int
}

var _ Inbox = (*Proc)(nil)

// NewProc wraps an automaton in framework state.
func NewProc(aut Automaton) *Proc {
	_, local := aut.(RoundLocal)
	return &Proc{aut: aut, roundLocal: local}
}

// farRoundSlack bounds how far past the dense window a round may grow the
// flat inbox array. Legitimate rounds are dense (every executed round
// stores at least the process's own payload), so only a transport
// delivering a corrupt-but-parseable frame can name a round this far
// ahead; those fall back to the sparse far map instead of growing the
// array to an attacker-chosen length.
const farRoundSlack = 1 << 16

// roundAt returns the storage for round k, or nil.
func (p *Proc) roundAt(k int) *roundInbox {
	if k < 0 {
		return nil
	}
	if k < len(p.inbox) {
		return p.inbox[k]
	}
	if p.far != nil {
		return p.far[k]
	}
	return nil
}

// Round implements Inbox. The slice is a cached snapshot in fingerprint
// order; callers must not mutate it.
func (p *Proc) Round(k int) []Payload {
	ri := p.roundAt(k)
	if ri == nil || len(ri.pays) == 0 {
		return nil
	}
	return ri.snapshot()
}

// SharedAggregate returns the cell round k carries for what its adopters
// compute from it, when p adopted round k from a SharedRound, and nil
// otherwise. The cell starts empty in every round a SharedRound builds,
// and only automata write it. An adopted round is sealed, and its adopters
// compute it one after another (the simulator's lockstep), so a pure
// function of Round(k) that the first adopter stores there holds for every
// later one.
func (p *Proc) SharedAggregate(k int) *any {
	if p.shared == nil || p.sharedRound != k {
		return nil
	}
	return &p.shared.agg
}

// Fresh implements Inbox: payloads added to any round's set since the last
// end-of-round. The returned slice aliases framework state: it is valid
// until the next Receive/EndOfRound — a delivery appends to it, and the
// end-of-round clears it and reuses its backing array for the next round —
// and must be treated as read-only. Automata consume it inside Compute
// (Algorithm 4's union, the only reader), so no copy is taken on this hot
// path.
//
//detlint:aliased read-only view consumed within Compute, its buffer reused by the next round; copying would cost an alloc per delivery on the hot path
func (p *Proc) Fresh() []Payload { return p.fresh }

// CurrentRound implements Inbox: the round the process is in (k_i).
func (p *Proc) CurrentRound() int { return p.round }

// Halted reports whether the process has decided and halted.
func (p *Proc) Halted() bool { return p.halted }

// Decision returns the process's decision (zero Decision if none yet).
func (p *Proc) Decision() Decision { return p.decision }

// Delivered returns the number of payload merges that added a new element,
// for metrics.
func (p *Proc) Delivered() int { return p.delivered }

// Receive merges a broadcast envelope into the inbox (Algorithm 1 lines
// 13–14: M_i[k] := M_i[k] ∪ M). Envelopes arriving after the process halted
// are ignored. The envelope must be in full form (Refs resolved by the
// transport); unresolved Refs are ignored — harmless under reliable
// broadcast, where every referenced payload also arrives in full in the
// sender's earlier envelope.
//
// Receiving is idempotent: a payload the round already holds is found by
// its fingerprint and changes nothing, so a duplicate envelope — the steady
// state, where every process rebroadcasts the same converged set — costs
// one fingerprint lookup per payload and no allocation.
//
// Stale-round skipping: a round-local process (see RoundLocal) drops an
// envelope for a round it has already computed, since nothing reads that
// round again.
//
// An envelope for a round the process adopted from a SharedRound first
// copies that round into the process's own storage.
func (p *Proc) Receive(env Envelope) {
	if p.halted || p.roundLocal && env.Round < p.round {
		return
	}
	if p.shared != nil && env.Round == p.sharedRound {
		p.privatize()
	}
	p.merge(env.Round, env.Payloads)
}

// takeRoundInbox returns a cleared round inbox, reusing recycled storage
// when available.
func (p *Proc) takeRoundInbox() *roundInbox {
	if n := len(p.spare); n > 0 {
		ri := p.spare[n-1]
		p.spare[n-1] = nil
		p.spare = p.spare[:n-1]
		return ri
	}
	return newRoundInbox()
}

// ensureRound returns (allocating if needed) the storage for round k.
// Negative rounds (possible only from a garbage envelope) share one inbox
// with round 0 rather than growing state; they are never read back.
func (p *Proc) ensureRound(k int) *roundInbox {
	if k < 0 {
		k = 0
	}
	if k >= len(p.inbox)+farRoundSlack {
		if p.far == nil {
			p.far = make(map[int]*roundInbox)
		}
		ri := p.far[k]
		if ri == nil {
			ri = p.takeRoundInbox()
			p.far[k] = ri
		}
		return ri
	}
	for k >= len(p.inbox) {
		// Grow by appending nil slots; append's amortized doubling keeps
		// this O(1) per round over a run.
		p.inbox = append(p.inbox, nil)
	}
	ri := p.inbox[k]
	if ri == nil {
		ri = p.takeRoundInbox()
		p.inbox[k] = ri
	}
	return ri
}

func (p *Proc) merge(round int, payloads []Payload) *roundInbox {
	ri := p.ensureRound(round)
	for _, pay := range payloads {
		if ri.insert(pay.PayloadFingerprint(), pay) {
			p.fresh = append(p.fresh, pay)
			p.delivered++
		}
	}
	return ri
}

// EndOfRound performs one end-of-round input action (Algorithm 1 lines
// 5–12): run initialize/compute, add the produced payload to the next
// round's inbox, advance the round, and return the broadcast envelope
// ⟨M_i[k_i], k_i⟩. The second result is false when nothing is broadcast
// (the process was already halted, or it decided during this step).
func (p *Proc) EndOfRound() (Envelope, bool) {
	if p.halted {
		return Envelope{}, false
	}
	var (
		pay Payload
		dec Decision
	)
	if p.round == 0 {
		pay = p.aut.Initialize()
	} else {
		pay, dec = p.aut.Compute(p.round, p)
	}
	if p.roundLocal {
		p.retire(p.round)
	}
	if dec.Decided {
		p.halted = true
		p.decision = dec
		return Envelope{}, false
	}
	if pay == nil {
		panic(fmt.Sprintf("giraf: automaton %T returned nil payload in round %d", p.aut, p.round))
	}
	// Consumed by the Compute call that just ran; the buffer is reused, as
	// Fresh's contract allows.
	clear(p.fresh)
	p.fresh = p.fresh[:0]
	ri := p.merge(p.round+1, []Payload{pay})
	p.round++
	return Envelope{
		Round:          p.round,
		Payloads:       ri.snapshot(),
		SetFingerprint: ri.setFingerprint(),
	}, true
}

// retire recycles the storage of round k, which a round-local process has
// just computed (round 0: initialized).
func (p *Proc) retire(k int) {
	if k >= len(p.inbox) || p.inbox[k] == nil {
		return
	}
	ri := p.inbox[k]
	p.inbox[k] = nil
	if ri == p.shared {
		p.release()
		return
	}
	ri.recycle()
	p.spare = append(p.spare, ri)
}

// InboxSize returns the number of distinct payloads stored for round k,
// for tests and metrics.
func (p *Proc) InboxSize(k int) int {
	ri := p.roundAt(k)
	if ri == nil {
		return 0
	}
	return len(ri.pays)
}

// InboxRounds returns the number of rounds with stored payloads.
func (p *Proc) InboxRounds() int {
	n := len(p.far)
	for _, ri := range p.inbox {
		if ri != nil {
			n++
		}
	}
	return n
}

// Reset rearms the framework state around a fresh automaton so repeated
// trial loops can reuse one Proc per slot instead of cold-allocating: the
// flat inbox array keeps its capacity and every round inbox is recycled
// into the spare list consumed by future merges. After Reset the Proc is
// indistinguishable from NewProc(aut) except for warm storage.
func (p *Proc) Reset(aut Automaton) {
	p.aut = aut
	_, p.roundLocal = aut.(RoundLocal)
	p.round = 0
	clear(p.fresh)
	p.fresh = p.fresh[:0]
	p.halted = false
	p.decision = Decision{}
	p.delivered = 0
	if p.shared != nil {
		p.inbox[p.sharedRound] = nil
		p.release()
	}
	for round, ri := range p.inbox {
		if ri != nil {
			ri.recycle()
			p.spare = append(p.spare, ri)
			p.inbox[round] = nil
		}
	}
	p.inbox = p.inbox[:0]
	//detlint:ordered per-entry recycle+delete; spares are interchangeable (cleared before reuse, only warm capacity differs)
	for round, ri := range p.far {
		ri.recycle()
		p.spare = append(p.spare, ri)
		delete(p.far, round)
	}
}
