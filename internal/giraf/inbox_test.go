package giraf

import (
	"math/rand"
	"slices"
	"testing"

	"anonconsensus/internal/values"
)

// keyPayload is a payload that is nothing but its key. roundInbox takes the
// fingerprint as an argument and never derives it, so these tests choose
// fingerprints freely — including ones no hash would produce together.
type keyPayload string

func (p keyPayload) PayloadKey() string { return string(p) }
func (p keyPayload) PayloadFingerprint() values.Fingerprint {
	return values.FingerprintString(string(p))
}
func (p keyPayload) PayloadEncodedSize() int { return len(p) }

// inboxModel drives one roundInbox beside a reference map and checks after
// every step that the two agree.
type inboxModel struct {
	t      *testing.T
	ri     *roundInbox
	ref    map[values.Fingerprint]bool
	stored []values.Fingerprint // ref's keys in insertion order, to pick duplicates from
}

// insert offers fp and checks the verdict against the reference.
func (m *inboxModel) insert(fp values.Fingerprint) {
	m.t.Helper()
	isNew := m.ri.insert(fp, keyPayload(fp.String()))
	if isNew == m.ref[fp] {
		m.t.Fatalf("insert(%v) reported new=%v with %d stored, reference says present=%v", fp, isNew, len(m.stored), m.ref[fp])
	}
	if isNew {
		m.ref[fp] = true
		m.stored = append(m.stored, fp)
	}
	if len(m.ri.fps) != len(m.ref) || len(m.ri.pays) != len(m.ref) {
		m.t.Fatalf("inbox holds %d/%d fps/pays, reference %d", len(m.ri.fps), len(m.ri.pays), len(m.ref))
	}
}

// snapshot forces the sort and checks the view: every stored payload once,
// ascending by the fingerprint it was inserted with, the parallel slices
// still parallel.
func (m *inboxModel) snapshot() {
	m.t.Helper()
	view := m.ri.snapshot()
	want := slices.Clone(m.stored)
	slices.SortFunc(want, values.Fingerprint.Compare)
	if len(view) != len(want) {
		m.t.Fatalf("snapshot has %d payloads, reference %d", len(view), len(want))
	}
	for i, p := range view {
		if p.PayloadKey() != want[i].String() {
			m.t.Fatalf("snapshot[%d] = %s, want %v", i, p.PayloadKey(), want[i])
		}
		if m.ri.fps[i] != want[i] {
			m.t.Fatalf("parallel slices diverged at %d: fp %v, want %v", i, m.ri.fps[i], want[i])
		}
	}
}

// lookups checks every stored fingerprint is found and the given absent
// ones are not.
func (m *inboxModel) lookups(absent []values.Fingerprint) {
	m.t.Helper()
	for _, fp := range m.stored {
		if _, ok := m.ri.find(fp); !ok {
			m.t.Fatalf("stored fingerprint %v not found among %d", fp, len(m.stored))
		}
	}
	for _, fp := range absent {
		if _, ok := m.ri.find(fp); ok != m.ref[fp] {
			m.t.Fatalf("find(%v) = %v, reference %v", fp, ok, m.ref[fp])
		}
	}
}

func randomFP(rng *rand.Rand) values.Fingerprint {
	return values.Fingerprint{Hi: rng.Uint64(), Lo: rng.Uint64()}
}

// TestRoundInboxAgainstModel is the model-based property test of the
// fingerprint-addressed index: seeded random sequences of insert, duplicate
// insert, snapshot (which sorts, staling every indexed position), insert
// again, absent lookups, then recycle and reuse of the same storage —
// sized to stay below the scan threshold, to cross it, and to outgrow the
// table several times.
func TestRoundInboxAgainstModel(t *testing.T) {
	sizes := []int{inboxScanMax - 3, inboxScanMax + 1, 3 * inboxScanMax, 150, 300}
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ri := newRoundInbox()
		for life := 0; life < 4; life++ {
			m := &inboxModel{t: t, ri: ri, ref: map[values.Fingerprint]bool{}}
			// The first life of every inbox is the large cold one: the table
			// must be seen growing from nothing.
			target := 300
			if life > 0 {
				target = sizes[rng.Intn(len(sizes))]
			}
			tables := map[int]bool{}
			for len(m.ref) < target {
				switch op := rng.Intn(20); {
				case op < 10:
					m.insert(randomFP(rng))
				case op < 16 && len(m.stored) > 0:
					m.insert(m.stored[rng.Intn(len(m.stored))])
				case op == 16:
					m.snapshot()
				case op == 17:
					_ = ri.setFingerprint() // the other consumer of the sort
				case op == 18:
					m.lookups([]values.Fingerprint{randomFP(rng), randomFP(rng)})
				}
				if len(ri.fps) > inboxScanMax {
					tables[len(ri.idx)] = true
				}
			}
			m.snapshot()
			m.lookups([]values.Fingerprint{randomFP(rng)})
			for _, fp := range m.stored { // everything is a duplicate now
				m.insert(fp)
			}
			if life == 0 && len(tables) < 3 {
				t.Fatalf("seed %d: a cold inbox grown to %d saw table sizes %v, want at least two doublings", seed, target, tables)
			}
			if 2*len(ri.fps) > len(ri.idx) && len(ri.fps) > inboxScanMax {
				t.Fatalf("seed %d: load %d/%d exceeds ½", seed, len(ri.fps), len(ri.idx))
			}
			ri.recycle()
			if len(ri.fps) != 0 || ri.indexed != 0 {
				t.Fatalf("recycle left %d fingerprints, indexed=%d", len(ri.fps), ri.indexed)
			}
			if _, ok := ri.find(m.stored[0]); ok {
				t.Fatal("a recycled inbox still finds a payload of its previous life")
			}
		}
	}
}

// TestRoundInboxHostileSlots: fingerprints that agree on Hi^Lo share every
// slot bit at every table size, so all of them pile into one probe run.
// The index must stay correct — a slot is where to start looking, identity
// is the full compare — merely slower.
func TestRoundInboxHostileSlots(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const fold = 0x5eed5eed5eed5eed
	clash := func() values.Fingerprint {
		hi := rng.Uint64()
		return values.Fingerprint{Hi: hi, Lo: hi ^ fold}
	}
	m := &inboxModel{t: t, ri: newRoundInbox(), ref: map[values.Fingerprint]bool{}}
	for len(m.ref) < 96 {
		m.insert(clash())
		if len(m.ref)%24 == 0 {
			m.snapshot()
		}
	}
	if len(m.ri.idx) == 0 {
		t.Fatal("96 payloads never built the index")
	}
	first := slotOf(m.stored[0])
	for _, fp := range m.stored {
		if s := slotOf(fp); s != first {
			t.Fatalf("fingerprints meant to clash start probing at %d and %d", first, s)
		}
	}
	m.lookups([]values.Fingerprint{clash(), clash(), randomFP(rng)})
	for _, fp := range m.stored {
		m.insert(fp)
	}
	m.snapshot()
}

// TestProcMergeAcrossIndexThreshold drives the same structure through
// Proc.Receive with real fingerprint-caching payloads: a round grown past
// the scan threshold, read (sorted), then offered every payload again plus
// new ones — Delivered must count each distinct payload once.
func TestProcMergeAcrossIndexThreshold(t *testing.T) {
	p := NewProc(&readAut{pay: benchPayloads(1<<30, 1)[0]})
	p.EndOfRound()
	first, second := benchPayloads(0, 100), benchPayloads(100, 60)
	for _, pay := range first {
		p.Receive(Envelope{Round: 1, Payloads: []Payload{pay}})
	}
	if got := p.InboxSize(1); got != 101 {
		t.Fatalf("round 1 holds %d payloads, want 101 (100 + own)", got)
	}
	if got := len(p.Round(1)); got != 101 { // sorts: indexed positions go stale
		t.Fatalf("Round(1) has %d payloads, want 101", got)
	}
	before := p.Delivered()
	p.Receive(Envelope{Round: 1, Payloads: append(append([]Payload{}, first...), second...)})
	if got := p.Delivered() - before; got != len(second) {
		t.Fatalf("re-offering 100 stored and 60 new payloads delivered %d, want 60", got)
	}
	if got := p.InboxSize(1); got != 161 {
		t.Fatalf("round 1 holds %d payloads, want 161", got)
	}
	checkFPOrder(t, "Round(1)", p.Round(1)) // strictly: no payload twice
}
