package main

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"anonconsensus"
)

// processStart anchors every timestamp the harness takes: opRec fields
// are nanoseconds since it, read from the monotonic clock.
var processStart = time.Now()

func nowNS() int64 { return int64(time.Since(processStart)) }

// failKind says why an op did not count as a decision.
type failKind uint8

const (
	opOK failKind = iota
	failShed
	failError
	failDeadline
	failViolated
)

var failNames = [...]string{opOK: "ok", failShed: "shed", failError: "error", failDeadline: "deadline", failViolated: "violated"}

// opRec is one op's timeline. The client goroutine writes due, propose*
// and waitEnd; in a traced run the transport decorator writes run* and
// elapsed from the Node's worker goroutine (distinct fields, ordered by
// the Node's own completion channel before the client reads them). It
// holds no pointers, so the collector never scans the record store.
type opRec struct {
	due          int64 // scheduled instant (open loop) or Propose call (closed loop)
	proposeStart int64
	proposeEnd   int64
	runStart     int64 // Transport.Run entered (traced only)
	runEnd       int64 // Transport.Run returned (traced only)
	waitEnd      int64
	elapsed      int64 // Result.Elapsed: the backend's own wall clock (live/mux)
	round        int32 // decision round: the latest round any process decided in
	class        uint8
	fail         failKind
}

// latency is what the client saw: due instant to Wait returning.
func (r *opRec) latency() time.Duration { return time.Duration(r.waitEnd - r.due) }

// spanBounds returns the six instants that tile a traced op's client.op
// span into loadgen.lag, node.propose, node.queue, transport.run and
// node.wakeup. node.propose is cut short if a worker entered
// Transport.Run before Propose returned: the rest of Propose then
// overlaps the run and is no longer on the decision's blocking path.
func (r *opRec) spanBounds() [6]int64 {
	return [6]int64{r.due, r.proposeStart, min(r.proposeEnd, r.runStart), r.runStart, r.runEnd, r.waitEnd}
}

// spanNames are the children of client.op, in blocking-path order.
var spanNames = [5]string{"loadgen.lag", "node.propose", "node.queue", "transport.run", "node.wakeup"}

// recStore hands out op records from memory outside the Go heap (an
// anonymous mapping, touched only as far as it is used). On the heap the
// records of a long closed-loop window would count as live data and slow
// the collector's pace — the library under test would then run with a
// different GC than it does for a client holding no such buffer (README,
// "Where the op records live", has the measured difference). Off the heap
// the store is invisible to the collector, never moves (the traced
// transport holds pointers into it), and is allocated before timing starts.
type recStore struct {
	mem  []byte
	recs []opRec
	used int
}

func newRecStore(capacity int) (*recStore, error) {
	capacity = max(capacity, 1)
	mem, err := syscall.Mmap(-1, 0, capacity*int(unsafe.Sizeof(opRec{})), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping %d op records: %w", capacity, err)
	}
	return &recStore{mem: mem, recs: unsafe.Slice((*opRec)(unsafe.Pointer(&mem[0])), capacity)}, nil
}

// next returns the next unused record, or nil when the store is full.
func (s *recStore) next() *opRec {
	if s.used == len(s.recs) {
		return nil
	}
	s.used++
	return &s.recs[s.used-1]
}

// release unmaps the store. Only window.release calls it, after the
// window has been summarised and no op is in flight: the pointers into the
// store (window.recs, the contexts of finished instances) are dropped with it.
func (s *recStore) release() {
	_ = syscall.Munmap(s.mem) // nothing to do about a failed unmap of private memory
	s.mem, s.recs = nil, nil
}

// outcome is what one finished op decided, kept for the first digestOps
// ops of each deterministic stream.
type outcome struct {
	value anonconsensus.Value
	round int32
}

// judge is the correctness gate every op passes through: Agreement (one
// value among the non-crashed), all correct processes decided (both are
// Result.Agreed), and Validity (the value was proposed).
func judge(o *op, res *anonconsensus.Result, err error) (outcome, failKind) {
	switch {
	case errors.Is(err, anonconsensus.ErrOverloaded):
		return outcome{}, failShed
	case err != nil:
		return outcome{}, failError
	}
	v, agreed := res.Agreed()
	if !agreed {
		reportViolation(o, res, "Agreement or Termination: the non-crashed processes did not all decide one value")
		return outcome{}, failViolated
	}
	if !slices.Contains(o.proposals, v) {
		reportViolation(o, res, "Validity: the decided value was never proposed")
		return outcome{}, failViolated
	}
	return outcome{value: v, round: int32(lastDecisionRound(res))}, opOK
}

// lastDecisionRound is the latest round any process of the instance
// decided in: the round the instance as a whole was done.
func lastDecisionRound(res *anonconsensus.Result) int {
	last := 0
	for _, d := range res.Decisions {
		if d.Decided {
			last = max(last, d.Round)
		}
	}
	return last
}

// violationsShown caps the diagnostics a bad run prints.
var violationsShown atomic.Int32

// reportViolation describes a violating instance on standard error, so a
// failed run says what the library did, not only that it failed.
func reportViolation(o *op, res *anonconsensus.Result, what string) {
	if violationsShown.Add(1) > 5 {
		return
	}
	fmt.Fprintf(os.Stderr, "benchmark: violation at t=%.2f (%s): seed %d proposals %v elapsed %v decisions %+v\n",
		float64(nowNS())/1e9, what, o.seed, o.proposals, res.Elapsed, res.Decisions)
}

// session is one set-up system under test: a transport, a Node on it, and
// the warm-up decisions already taken.
type session struct {
	w      *workload
	node   *anonconsensus.Node
	traced bool
}

type recKey struct{}

// tracedTransport is the traced run's decorator around the public
// Transport interface: it stamps Transport.Run's entry and return into
// the op record the client attached to the instance's context.
type tracedTransport struct {
	anonconsensus.Transport
}

func (t tracedTransport) Run(ctx context.Context, spec anonconsensus.InstanceSpec) (*anonconsensus.Result, error) {
	rec, _ := ctx.Value(recKey{}).(*opRec)
	if rec == nil {
		return t.Transport.Run(ctx, spec)
	}
	rec.runStart = nowNS()
	res, err := t.Transport.Run(ctx, spec)
	rec.runEnd = nowNS()
	if res != nil {
		rec.elapsed = int64(res.Elapsed)
	}
	return res, err
}

// openSession performs everything setup_s covers: transport construction,
// NewNode and `warmups` sequential, checked decisions (which start the
// hub and dial the slots on mux, and fill the engine pool on sim). The
// warm-up ops take the mix's classes in turn, not by weight: the classes
// differ several-fold in cost, so eight weighted draws would make setup_s
// a property of the seed.
func openSession(w *workload, seed int64, traced bool, warmups int) (*session, time.Duration, error) {
	t0 := time.Now()
	tr := w.transport()
	if traced {
		tr = tracedTransport{tr}
	}
	node, err := anonconsensus.NewNode(tr, w.nodeOpts...)
	if err != nil {
		tr.Close()
		return nil, 0, err
	}
	s := &session{w: w, node: node, traced: traced}
	gen := newGenerator(seed, -1, w.classes)
	for i := 0; i < warmups; i++ {
		o := gen.nextOf(i % len(w.classes))
		if _, fail := s.runOne("warm-"+strconv.Itoa(i), &o); fail != opOK {
			node.Close()
			return nil, 0, fmt.Errorf("%s: warm-up op %d failed: %s", w.name, i, failNames[fail])
		}
	}
	return s, time.Since(t0), nil
}

func (s *session) options(o *op) []anonconsensus.Option {
	base := s.w.classes[o.class].opts
	return append(base[:len(base):len(base)], anonconsensus.WithSeed(o.seed))
}

// runOne proposes and waits outside any measurement (warm-up, replay).
func (s *session) runOne(id string, o *op) (outcome, failKind) {
	ctx := context.Background()
	if err := s.node.Propose(ctx, id, o.proposals, s.options(o)...); err != nil {
		return judge(o, nil, err)
	}
	res, err := s.node.Wait(ctx, id)
	return judge(o, res, err)
}

// propose stamps and issues one measured op.
func (s *session) propose(rec *opRec, id string, o *op) error {
	ctx := context.Background()
	if s.traced {
		ctx = context.WithValue(ctx, recKey{}, rec)
	}
	opts := s.options(o)
	rec.class = uint8(o.class)
	rec.proposeStart = nowNS()
	err := s.node.Propose(ctx, id, o.proposals, opts...)
	rec.proposeEnd = nowNS()
	return err
}

// wait collects a measured op and judges it.
func (s *session) wait(rec *opRec, id string, o *op) outcome {
	res, err := s.node.Wait(context.Background(), id)
	rec.waitEnd = nowNS()
	out, fail := judge(o, res, err)
	if fail == opOK && rec.latency() > opDeadline {
		fail = failDeadline
	}
	rec.round, rec.fail = out.round, fail
	return out
}

// window is one measured interval's raw material.
type window struct {
	recs    []*opRec // chronological by due instant; they live in stores
	stores  []*recStore
	start   int64 // window opened (ns since processStart)
	length  time.Duration
	wall    time.Duration // opened → last op returned
	cpu     time.Duration // process user+sys over wall
	mallocs uint64
	gcPause time.Duration
	// truncated: a closed-loop client filled its record store and stopped
	// before the window's time was up.
	truncated bool
	// heads[c] holds the outcomes of client stream c's first ops, for the
	// replay check of deterministic workloads.
	heads [][]outcome
}

// release frees the op records; the window must not be used afterwards.
func (win *window) release() {
	win.recs = nil
	for _, st := range win.stores {
		st.release()
	}
}

// maxClosedRate bounds a closed loop's record store: ops per second and
// client, several times what sim_closed reaches on the reference box. A
// client that fills its store stops early, and the window is marked invalid.
const maxClosedRate = 40_000

// measure drives the workload for `length` and returns once every op it
// issued has returned. The caller releases the window.
func (s *session) measure(seed int64, length time.Duration) (*window, error) {
	win := &window{length: length}
	stores, capacity := max(s.w.clients, 1), int(length.Seconds()*maxClosedRate)
	if s.w.rate > 0 {
		capacity = int(length.Seconds()*s.w.rate) + 1
	}
	for range stores {
		st, err := newRecStore(capacity)
		if err != nil {
			win.release()
			return nil, err
		}
		win.stores = append(win.stores, st)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := cpuTime()
	win.start = nowNS()
	if s.w.rate > 0 {
		win.recs = s.openLoop(seed, win)
	} else {
		win.recs = s.closedLoop(seed, win)
	}
	win.wall = time.Duration(nowNS() - win.start)
	win.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&after)
	win.mallocs = after.Mallocs - before.Mallocs
	win.gcPause = time.Duration(after.PauseTotalNs - before.PauseTotalNs)
	for _, st := range win.stores {
		win.truncated = win.truncated || (s.w.rate == 0 && st.used == len(st.recs))
	}
	return win, nil
}

// closedLoop runs w.clients callers, each proposing its next op only
// after its previous one decided, until the window's time is up.
func (s *session) closedLoop(seed int64, win *window) []*opRec {
	win.heads = make([][]outcome, s.w.clients)
	deadline := win.start + int64(win.length)
	var wg sync.WaitGroup
	for c, store := range win.stores {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			gen := newGenerator(seed, c, s.w.classes)
			var idBuf [24]byte
			for i := 0; nowNS() < deadline; i++ {
				rec := store.next()
				if rec == nil {
					return
				}
				o := gen.next()
				id := string(strconv.AppendInt(append(idBuf[:0], byte('a'+c)), int64(i), 10))
				err := s.propose(rec, id, &o)
				rec.due = rec.proposeStart
				if err != nil {
					rec.waitEnd = rec.proposeEnd
					_, rec.fail = judge(&o, nil, err)
					continue
				}
				out := s.wait(rec, id, &o)
				if i < s.w.digestOps {
					win.heads[c] = append(win.heads[c], out)
				}
			}
		}(c)
	}
	wg.Wait()
	var recs []*opRec
	for _, st := range win.stores {
		for i := 0; i < st.used; i++ {
			recs = append(recs, &st.recs[i])
		}
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].due < recs[j].due })
	return recs
}

// openLoop proposes on the seeded schedule from one dispatcher goroutine,
// whatever the system's progress, and times each op from its due instant;
// a goroutine per op waits for the decision.
func (s *session) openLoop(seed int64, win *window) []*opRec {
	sched := arrivals(seed, s.w.rate, win.length)
	gen := newGenerator(seed, 0, s.w.classes)
	ops := make([]op, len(sched))
	ids := make([]string, len(sched))
	recs := make([]*opRec, len(sched))
	for i := range ops {
		ops[i] = gen.next()
		ids[i] = "o" + strconv.Itoa(i)
		recs[i] = win.stores[0].next()
	}
	var wg sync.WaitGroup
	for i, due := range sched {
		rec, o, id := recs[i], &ops[i], ids[i]
		rec.due = win.start + int64(due)
		if d := rec.due - nowNS(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		if err := s.propose(rec, id, o); err != nil {
			rec.waitEnd = rec.proposeEnd
			_, rec.fail = judge(o, nil, err)
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.wait(rec, id, o)
		}()
	}
	wg.Wait()
	return recs
}

// replayDigest re-runs the first `ops` ops of every client stream on a
// fresh session, sequentially and outside any timing, and hashes (op seed,
// decided value, decision round) into the workload's result_digest. The
// simulator is deterministic, so the digest is a pure function of -seed:
// it must repeat across runs, and every op the measured window also ran
// must have decided identically there.
func replayDigest(w *workload, seed int64, warmups, ops int, heads [][]outcome) (string, error) {
	s, _, err := openSession(w, seed, false, warmups)
	if err != nil {
		return "", err
	}
	defer s.node.Close()
	h := fnv.New64a()
	var buf [12]byte
	for c := 0; c < w.clients; c++ {
		gen := newGenerator(seed, c, w.classes)
		for i := 0; i < ops; i++ {
			o := gen.next()
			out, fail := s.runOne("replay-"+strconv.Itoa(c)+"-"+strconv.Itoa(i), &o)
			if fail != opOK {
				return "", fmt.Errorf("%s: replay of client %d op %d failed: %s", w.name, c, i, failNames[fail])
			}
			if c < len(heads) && i < len(heads[c]) && heads[c][i] != out {
				return "", fmt.Errorf("%s: client %d op %d decided (%s, round %d) in the window but (%s, round %d) on replay",
					w.name, c, i, heads[c][i].value, heads[c][i].round, out.value, out.round)
			}
			for b := 0; b < 8; b++ {
				buf[b] = byte(uint64(o.seed) >> (8 * b))
			}
			for b := 0; b < 4; b++ {
				buf[8+b] = byte(uint32(out.round) >> (8 * b))
			}
			h.Write(buf[:])
			h.Write([]byte(out.value))
		}
	}
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

// goroutineSlack is how many goroutines beyond the pre-run count are
// tolerated after Close (runtime helpers come and go).
const goroutineSlack = 2

// settleGoroutines waits for the goroutine count to come back to the
// pre-run level (plus a small allowance for runtime helpers) after Close,
// and returns the count it settled at.
func settleGoroutines(before int) int {
	n := runtime.NumGoroutine()
	for wait := time.Millisecond; n > before+goroutineSlack && wait < 2*time.Second; wait *= 2 {
		time.Sleep(wait)
		n = runtime.NumGoroutine()
	}
	return n
}
