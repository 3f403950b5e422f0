package giraf

import (
	"slices"

	"anonconsensus/internal/values"
)

// SharedRound delivers one round's envelopes to many round-local processes
// at once. Inboxes are sets and hold no sender ids, so when every receiver
// takes the same envelopes — a round in which every broadcast is timely —
// every receiver ends the round with the same set, and building it once
// replaces n−1 Receive calls per receiver. Two shapes of round have an
// outcome that is the same for every receiver and exact in every counter:
//
//   - uniform: every envelope carries the same set, the one each receiver
//     already holds, so no merge could add anything and nothing is done.
//   - distinct: the envelopes' set fingerprints are pairwise distinct, so
//     the union is merged once into a sealed (sorted) inbox that each
//     receiver adopts read-only, with Delivered grown by what its merges
//     would have added.
//
// An adopted round is never written: a later Receive into it first copies
// it into the process's own storage, and retire and Reset drop the
// reference instead of recycling it. A SharedRound is reusable; its
// storage is rewritten only once no process holds it.
type SharedRound struct {
	ri *roundInbox
	// sorted is scratch for the distinctness test: the envelopes' set
	// fingerprints, ascending.
	sorted []values.Fingerprint
}

// Deliver applies the round-k envelopes envs, in that order, to every
// process of receivers as if each had called Receive on every envelope but
// the one it broadcast itself, and reports true. Every non-halted receiver
// must be the sender of one of envs; halted ones are skipped, as Receive
// skips them. When the round has neither shape above, or some receiver is
// not in the state a timely round starts from (see sharedStart), Deliver
// changes nothing and reports false, and the caller delivers envelope by
// envelope.
func (s *SharedRound) Deliver(k int, envs []*Envelope, receivers []*Proc) bool {
	if len(envs) == 0 {
		return false
	}
	first := envs[0].SetFingerprint
	uniform := true
	sorted := s.sorted[:0]
	for _, env := range envs {
		fp := env.SetFingerprint
		if env.Round != k || fp.IsZero() {
			return false
		}
		uniform = uniform && fp == first
		sorted = append(sorted, fp)
	}
	s.sorted = sorted
	if !uniform {
		slices.SortFunc(sorted, values.Fingerprint.Compare)
		for i := 1; i < len(sorted); i++ {
			if sorted[i] == sorted[i-1] {
				return false
			}
		}
	}
	for _, p := range receivers {
		if p.halted {
			continue
		}
		// The receiver's own set must be one of the envelopes'. A zero
		// fingerprint, from a receiver not in a fresh round, is none of them.
		own := p.sharedStart(k)
		if uniform {
			if own != first {
				return false
			}
		} else if _, found := slices.BinarySearchFunc(sorted, own, values.Fingerprint.Compare); !found {
			return false
		}
	}
	if uniform {
		return true
	}
	union := s.build(envs)
	for _, p := range receivers {
		if !p.halted {
			p.adopt(k, union)
		}
	}
	return true
}

// build merges the union of envs into the SharedRound's storage and seals
// it: sorted, with its snapshot cached, so adopters only ever read it.
func (s *SharedRound) build(envs []*Envelope) *roundInbox {
	if s.ri == nil || s.ri.adopters > 0 {
		s.ri = newRoundInbox()
	} else {
		s.ri.recycle()
	}
	ri := s.ri
	for _, env := range envs {
		for _, pay := range env.Payloads {
			ri.insert(pay.PayloadFingerprint(), pay)
		}
	}
	ri.snapshot()
	return ri
}

// sharedStart returns the set fingerprint p's round k caches when the
// round is in the state a timely round's delivery starts from, zero
// otherwise: p is round-local and holds no adopted round, k is not a
// computed round, and round k is p's own storage holding exactly the set p
// broadcast, whose fingerprint any insertion since would have cleared.
func (p *Proc) sharedStart(k int) values.Fingerprint {
	if !p.roundLocal || p.shared != nil || k < p.round || k >= len(p.inbox) || p.inbox[k] == nil {
		return values.Fingerprint{}
	}
	return p.inbox[k].setFP
}

// adopt makes the sealed union of a distinct round p's round k, in place
// of p's own storage, which holds the set p broadcast, one of the union's
// parts: Delivered grows by the payloads the union adds.
func (p *Proc) adopt(k int, union *roundInbox) {
	own := p.inbox[k]
	p.delivered += len(union.pays) - len(own.pays)
	own.recycle()
	p.spare = append(p.spare, own)
	p.inbox[k] = union
	p.shared, p.sharedRound = union, k
	union.adopters++
}

// privatize copies the adopted round into p's own storage, so the round
// can be written.
func (p *Proc) privatize() {
	src := p.shared
	ri := p.takeRoundInbox()
	ri.pays = append(ri.pays, src.pays...)
	ri.fps = append(ri.fps, src.fps...)
	p.inbox[p.sharedRound] = ri
	p.release()
}

// release drops p's hold on its adopted round; the caller has already
// replaced or cleared the inbox slot that pointed to it.
func (p *Proc) release() {
	p.shared.adopters--
	p.shared = nil
}
