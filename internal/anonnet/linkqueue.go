package anonnet

import (
	"context"
	"sync"
	"time"

	"anonconsensus/internal/giraf"
)

// linkQueue is the run's delivery queue, shared by every link: envelopes
// from all senders to all receivers, and every process's marks, wait in one
// deadline-ordered min-heap, and a single goroutine (run) hands each to its
// receiver when its deadline passes. Latency profiles vary per round and
// per link, so a later envelope may legitimately overtake an earlier one.
// Equal deadlines leave in push order, and one sender pushes its envelopes
// in send order, so each link's own order is what a queue per link would
// give — and a mark never overtakes the entry whose deadline it was given.
//
// Nothing blocks: push only appends to the heap, and the receiver's
// mailbox takes every delivery at once (rounddriver.Mailbox).
type linkQueue struct {
	mu   sync.Mutex
	heap []queuedEnvelope
	seq  uint64
	// wake nudges the runner when a new head-of-queue deadline appears.
	wake chan struct{}
}

// queuedEnvelope is one scheduled delivery to process to; seq breaks
// deadline ties in FIFO order so equal-latency envelopes keep their send
// order.
type queuedEnvelope struct {
	at  time.Time
	seq uint64
	to  int
	env giraf.Envelope
}

func newLinkQueue() *linkQueue {
	return &linkQueue{wake: make(chan struct{}, 1)}
}

// push schedules env for delivery to process to at deadline at.
func (lq *linkQueue) push(at time.Time, to int, env giraf.Envelope) {
	lq.mu.Lock()
	lq.seq++
	lq.heap = append(lq.heap, queuedEnvelope{at: at, seq: lq.seq, to: to, env: env})
	lq.siftUp(len(lq.heap) - 1)
	lq.mu.Unlock()
	select {
	case lq.wake <- struct{}{}:
	default:
	}
}

// popDue removes and returns the earliest delivery if its deadline is at
// or before now. Otherwise it returns how long until that deadline, or
// ok=false for an empty queue.
func (lq *linkQueue) popDue(now time.Time) (q queuedEnvelope, wait time.Duration, ok bool) {
	lq.mu.Lock()
	defer lq.mu.Unlock()
	if len(lq.heap) == 0 {
		return queuedEnvelope{}, 0, false
	}
	if wait := lq.heap[0].at.Sub(now); wait > 0 {
		return queuedEnvelope{}, wait, true
	}
	q = lq.heap[0]
	last := len(lq.heap) - 1
	lq.heap[0] = lq.heap[last]
	lq.heap[last] = queuedEnvelope{} // release the payload reference
	lq.heap = lq.heap[:last]
	lq.siftDown(0)
	return q, 0, true
}

func (lq *linkQueue) less(i, j int) bool {
	if !lq.heap[i].at.Equal(lq.heap[j].at) {
		return lq.heap[i].at.Before(lq.heap[j].at)
	}
	return lq.heap[i].seq < lq.heap[j].seq
}

func (lq *linkQueue) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !lq.less(i, parent) {
			return
		}
		lq.heap[i], lq.heap[parent] = lq.heap[parent], lq.heap[i]
		i = parent
	}
}

func (lq *linkQueue) siftDown(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(lq.heap) && lq.less(l, small) {
			small = l
		}
		if r < len(lq.heap) && lq.less(r, small) {
			small = r
		}
		if small == i {
			return
		}
		lq.heap[i], lq.heap[small] = lq.heap[small], lq.heap[i]
		i = small
	}
}

// run is the run's delivery loop: sleep until the head deadline (or a push
// installs an earlier one), then hand the envelope to deliver with its
// receiver. Reset discards any expiry left over from an earlier wait (Go
// 1.23 timers), so the timer is never drained.
func (lq *linkQueue) run(ctx context.Context, deliver func(to int, env giraf.Envelope)) {
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	for {
		q, wait, ok := lq.popDue(time.Now())
		if !ok {
			select {
			case <-ctx.Done():
				return
			case <-lq.wake:
				continue
			}
		}
		if wait > 0 {
			timer.Reset(wait)
			select {
			case <-ctx.Done():
				return
			case <-lq.wake: // a new envelope may have an earlier deadline
			case <-timer.C:
			}
			continue
		}
		deliver(q.to, q.env)
	}
}
