package anonconsensus

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrNodeClosed is returned by Propose/Wait when the Node was closed.
var ErrNodeClosed = errors.New("anonconsensus: node is closed")

// instance is one queued/running/finished consensus instance.
type instance struct {
	spec     InstanceSpec
	ctx      context.Context
	enqueued time.Time // when Propose put it on the queue (zero if it never got there)

	once sync.Once
	done chan struct{}
	res  *Result
	err  error
}

// Node is a long-lived consensus session: it runs instances over one
// Transport — by default one at a time in Propose order, or up to k
// concurrently with WithMaxInFlight(k) — and streams their outcomes on
// Decisions(). A Node owns its transport and closes it when the Node is
// closed.
//
// Typical use:
//
//	node, _ := anonconsensus.NewNode(anonconsensus.NewLiveTransport(),
//		anonconsensus.WithEnv(anonconsensus.EnvES), anonconsensus.WithGST(5))
//	defer node.Close()
//	res, err := node.Run(ctx, "epoch-1", proposals)
//
// or asynchronously: Propose several instances, consume Decisions(), and
// Wait for the ones whose Result the caller needs. All methods are safe
// for concurrent use. Service deployments typically add WithMaxInFlight
// and WithAdmission and watch Stats(); see the README's service-mode
// example.
type Node struct {
	transport Transport
	session   options

	workers int            // pool size (WithMaxInFlight, default 1)
	queue   chan *instance // capacity set by WithQueueDepth (default 64)
	admit   *tokenBucket   // nil without WithAdmission
	wait    bool           // WithAdmissionWait: block for tokens instead of rejecting

	// life is the node-lifetime context: Close cancels it, which cancels
	// running work and stops the workers.
	life      context.Context
	closeLife context.CancelFunc

	mu        sync.Mutex
	closed    bool
	instances map[string]*instance

	// Service counters, surfaced by Stats().
	statMu       sync.Mutex
	admitted     int64
	rejected     int64
	completed    int64
	inFlight     int
	peakInFlight int
	queueWait    time.Duration

	// Event feed: the events channel is the whole backlog. Emitters send
	// under evMu without blocking, discarding the oldest event when it is
	// full; evEnd marks the channel closed.
	evMu      sync.Mutex
	evEnd     bool
	evDropped int64
	events    chan Event

	workerWG sync.WaitGroup
}

// NewNode starts a session over transport. The options become the
// session's defaults; Propose can override them per instance. NewNode
// validates the option set (for example an EnvESS session whose
// WithStableSource process is also scheduled to crash by WithCrashes is
// rejected here).
func NewNode(transport Transport, opts ...Option) (*Node, error) {
	if transport == nil {
		return nil, fmt.Errorf("anonconsensus: nil transport")
	}
	var o options
	if err := o.apply(opts); err != nil {
		return nil, err
	}
	if err := o.validate(); err != nil {
		return nil, err
	}
	workers := o.maxInFlight
	if workers < 1 {
		workers = 1
	}
	depth := o.queueDepth
	if depth < 1 {
		depth = 64
	}
	n := &Node{
		transport: transport,
		session:   o,
		workers:   workers,
		queue:     make(chan *instance, depth),
		instances: make(map[string]*instance),
		events:    make(chan Event, maxBufferedEvents),
	}
	n.life, n.closeLife = context.WithCancel(context.Background())
	if o.admitRate > 0 {
		n.admit = newTokenBucket(o.admitRate, o.admitBurst)
		n.wait = o.admitWait
	}
	n.workerWG.Add(workers)
	for i := 0; i < workers; i++ {
		go n.worker()
	}
	return n, nil
}

// Transport returns the session's transport (for logging / inspection).
func (n *Node) Transport() Transport { return n.transport }

// Propose enqueues one consensus instance: instanceID names it (unique
// among the session's live — not yet consumed by Wait or Forget —
// instances), proposals holds one initial value per anonymous process,
// and opts override the session options for this instance only.
//
// Propose returns once the instance is accepted; the run happens on the
// node's worker pool, dequeued in Propose order. ctx governs the
// admission wait, the enqueue, and the instance's whole run — cancelling
// it aborts the instance, and Wait then returns an error wrapping
// ctx.Err(). Outcomes stream on Decisions() and are available from Wait.
//
// Under WithAdmission, Propose first spends a token: in fast-reject mode
// an empty bucket — or, later, a full instance queue — returns an error
// wrapping ErrOverloaded without registering anything; with
// WithAdmissionWait it blocks for the token instead.
func (n *Node) Propose(ctx context.Context, instanceID string, proposals []Value, opts ...Option) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if instanceID == "" {
		return fmt.Errorf("anonconsensus: empty instance ID")
	}
	spec, err := n.buildSpec(instanceID, proposals, opts)
	if err != nil {
		return err
	}
	// Admission runs before registration so a shed proposal leaves no
	// trace: no instance, no events, and the ID stays free.
	if n.admit != nil {
		if n.wait {
			if err := n.admit.take(ctx, n.life.Done()); err != nil {
				if err == ErrNodeClosed {
					return ErrNodeClosed
				}
				return fmt.Errorf("anonconsensus: instance %q: %w", instanceID, err)
			}
		} else if !n.admit.tryTake() {
			n.statMu.Lock()
			n.rejected++
			n.statMu.Unlock()
			return fmt.Errorf("anonconsensus: instance %q: %w", instanceID, ErrOverloaded)
		}
	}
	inst := &instance{spec: spec, ctx: ctx, done: make(chan struct{})}

	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return ErrNodeClosed
	}
	if _, dup := n.instances[instanceID]; dup {
		n.mu.Unlock()
		return fmt.Errorf("anonconsensus: duplicate instance ID %q", instanceID)
	}
	n.instances[instanceID] = inst
	n.mu.Unlock()

	inst.enqueued = time.Now()
	if n.admit != nil && !n.wait {
		// Fast-reject admission extends to the queue: a full backlog is
		// overload, not a reason to block the caller.
		select {
		case n.queue <- inst:
		default:
			n.unregister(instanceID, inst)
			n.statMu.Lock()
			n.rejected++
			n.statMu.Unlock()
			return fmt.Errorf("anonconsensus: instance %q: %w", instanceID, ErrOverloaded)
		}
	} else {
		select {
		case n.queue <- inst:
		case <-ctx.Done():
			// The proposal passed admission (spending a token, when the
			// bucket is on) but never made it onto the queue: count it as
			// turned away, so every registered proposal lands in exactly
			// one of Admitted or Rejected.
			err := fmt.Errorf("anonconsensus: instance %q: %w", instanceID, ctx.Err())
			n.finish(inst, nil, err)
			n.unregister(instanceID, inst)
			n.statMu.Lock()
			n.rejected++
			n.statMu.Unlock()
			return err
		case <-n.life.Done():
			n.finish(inst, nil, ErrNodeClosed)
			n.unregister(instanceID, inst)
			n.statMu.Lock()
			n.rejected++
			n.statMu.Unlock()
			return ErrNodeClosed
		}
	}
	n.statMu.Lock()
	n.admitted++
	n.statMu.Unlock()
	// The node may have closed between the closed-check and the enqueue;
	// if so the worker is gone and Close's drain may already have missed
	// this instance — fail it here (finish is idempotent, so if the
	// worker did pick it up, whoever runs first wins).
	n.mu.Lock()
	closedNow := n.closed
	n.mu.Unlock()
	if closedNow {
		n.finish(inst, nil, ErrNodeClosed)
		n.unregister(instanceID, inst)
		return ErrNodeClosed
	}
	return nil
}

// unregister releases an instance whose Propose failed, so the ID is not
// permanently occupied by work that never ran.
func (n *Node) unregister(instanceID string, inst *instance) {
	n.mu.Lock()
	if n.instances[instanceID] == inst {
		delete(n.instances, instanceID)
	}
	n.mu.Unlock()
}

// Run is Propose followed by Wait: it blocks until the instance finished
// and returns its Result. Run owns its instance: if the wait itself fails
// (ctx cancelled), the instance — aborted by the same ctx — is released
// in the background once it finishes, so timed-out Runs do not accumulate.
func (n *Node) Run(ctx context.Context, instanceID string, proposals []Value, opts ...Option) (*Result, error) {
	if err := n.Propose(ctx, instanceID, proposals, opts...); err != nil {
		return nil, err
	}
	res, err := n.Wait(ctx, instanceID)
	if err != nil {
		n.mu.Lock()
		inst := n.instances[instanceID]
		n.mu.Unlock()
		if inst != nil {
			go func() {
				<-inst.done
				n.unregister(instanceID, inst)
			}()
		}
	}
	return res, err
}

// Wait blocks until the named instance finished (decided, failed, or was
// cancelled) and returns its outcome. ctx bounds the wait only — it does
// not cancel the instance.
//
// Wait consumes the outcome: the instance is released from the session
// (keeping a long-lived Node's memory bounded) and its ID becomes
// available for reuse. A second Wait for the same ID reports it unknown.
// Callers that drive the session through the Decisions() feed instead get
// each outcome from the EventInstanceDone event and can release the
// instance with Forget.
func (n *Node) Wait(ctx context.Context, instanceID string) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	n.mu.Lock()
	inst := n.instances[instanceID]
	n.mu.Unlock()
	if inst == nil {
		return nil, fmt.Errorf("anonconsensus: unknown instance %q", instanceID)
	}
	select {
	case <-inst.done:
		n.mu.Lock()
		if n.instances[instanceID] == inst {
			delete(n.instances, instanceID)
		}
		n.mu.Unlock()
		return inst.res, inst.err
	case <-ctx.Done():
		return nil, fmt.Errorf("anonconsensus: waiting for instance %q: %w", instanceID, ctx.Err())
	}
}

// Forget releases a finished instance without collecting its outcome (for
// sessions driven purely through the Decisions() feed). It reports whether
// the instance existed and was finished; a still-pending or running
// instance is not forgotten.
func (n *Node) Forget(instanceID string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	inst := n.instances[instanceID]
	if inst == nil {
		return false
	}
	select {
	case <-inst.done:
		delete(n.instances, instanceID)
		return true
	default:
		return false
	}
}

// Decisions returns the session's event feed: an EventInstanceStarted,
// zero or more EventDecision (one per process that decided) and an
// EventInstanceDone per instance. Events are emitted when the instance's
// run completes — the granularity is per instance, not mid-run. One
// instance's events always appear in that order; with WithMaxInFlight > 1
// the events of different in-flight instances interleave.
//
// An instance that fails before its run starts — its Propose aborted
// during the enqueue, Close drained it off the queue, or a worker picked
// it up only to find it already cancelled — emits EventInstanceDone
// alone, with no prior EventInstanceStarted: Started marks the start of
// a transport run, so a Done without a Started is precisely "this
// instance never ran". Consumers must not assume the pair.
//
// The feed is lossy by contract: it is best-effort buffered and never
// blocks consensus work. Without a consumer the oldest undelivered
// events are dropped beyond a bounded backlog — each drop is counted in
// Stats().EventsDropped. Close closes the channel; events still buffered
// at that moment stay readable, so a consumer that ranges over the feed
// sees them before the range ends. Callers that need an instance's
// authoritative outcome should use Wait, which never loses one.
func (n *Node) Decisions() <-chan Event { return n.events }

// Close shuts the session down: running work is cancelled, queued
// instances fail with ErrNodeClosed, the Decisions feed is closed (its
// buffered events remain readable; an event emitted after the close is
// counted in Stats().EventsDropped), and the transport is closed. Close is
// idempotent.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	n.mu.Unlock()

	n.closeLife()
	n.workerWG.Wait()
	// The workers are gone: fail whatever is still queued.
	for {
		select {
		case inst := <-n.queue:
			n.finish(inst, nil, ErrNodeClosed)
		default:
			n.endEvents()
			return n.transport.Close()
		}
	}
}

// buildSpec resolves session options + per-instance overrides into a spec.
func (n *Node) buildSpec(id string, proposals []Value, opts []Option) (InstanceSpec, error) {
	o := n.session.clone()
	if err := o.apply(opts); err != nil {
		return InstanceSpec{}, err
	}
	return o.spec(id, proposals)
}

// spec validates a resolved option set and turns it into a validated
// instance spec.
func (o *options) spec(id string, proposals []Value) (InstanceSpec, error) {
	if err := o.validate(); err != nil {
		return InstanceSpec{}, err
	}
	props := make([]Value, len(proposals))
	copy(props, proposals)
	spec := InstanceSpec{
		ID:           id,
		Proposals:    props,
		Env:          o.resolvedEnv(),
		GST:          o.gst,
		StableSource: o.stableSource,
		Seed:         o.seed,
		Scenario:     o.scenario,
		Interval:     o.interval,
		Timeout:      o.timeout,
		MaxRounds:    o.maxRounds,
		Reconnect:    o.reconnect,
	}
	if err := spec.validate(); err != nil {
		return InstanceSpec{}, err
	}
	return spec, nil
}

// worker is one pool goroutine: it runs queued instances one at a time.
// The node starts WithMaxInFlight of these, so up to that many instances
// are in flight at once (one, and strictly in Propose order, by
// default). The stop check is prioritized: once Close fired, queued work
// must not be started (Go's select picks randomly among ready cases, so
// a single select would sometimes run one more instance).
func (n *Node) worker() {
	defer n.workerWG.Done()
	for {
		select {
		case <-n.life.Done():
			return
		default:
		}
		select {
		case <-n.life.Done():
			return
		case inst := <-n.queue:
			n.runInstance(inst)
		}
	}
}

// runInstance executes one instance and finishes it. The completion is
// counted before finish releases Wait, so Stats read after Wait shows it.
func (n *Node) runInstance(inst *instance) {
	n.statMu.Lock()
	n.inFlight++
	if n.inFlight > n.peakInFlight {
		n.peakInFlight = n.inFlight
	}
	if !inst.enqueued.IsZero() {
		n.queueWait += time.Since(inst.enqueued)
	}
	n.statMu.Unlock()
	res, err := n.execute(inst)
	n.statMu.Lock()
	n.inFlight--
	n.completed++
	n.statMu.Unlock()
	n.finish(inst, res, err)
}

// execute runs one instance on the transport, under a context that dies
// with either the caller's ctx or the node itself.
func (n *Node) execute(inst *instance) (*Result, error) {
	select {
	case <-n.life.Done():
		// Close won the race for this queued instance: fail it with the
		// documented shutdown error, not a context-cancellation one.
		return nil, ErrNodeClosed
	default:
	}
	if err := inst.ctx.Err(); err != nil {
		return nil, fmt.Errorf("anonconsensus: instance %q: %w", inst.spec.ID, err)
	}
	runCtx, cancel := context.WithCancel(inst.ctx)
	unwatch := context.AfterFunc(n.life, cancel)
	n.emit(Event{Instance: inst.spec.ID, Kind: EventInstanceStarted})
	res, err := n.transport.Run(runCtx, inst.spec)
	unwatch()
	cancel()
	if err != nil {
		return nil, fmt.Errorf("anonconsensus: instance %q: %w", inst.spec.ID, err)
	}
	for _, d := range res.Decisions {
		if d.Decided {
			n.emit(Event{Instance: inst.spec.ID, Kind: EventDecision, Decision: d})
		}
	}
	return res, nil
}

// finish records an instance's outcome exactly once and emits its
// EventInstanceDone.
func (n *Node) finish(inst *instance, res *Result, err error) {
	inst.once.Do(func() {
		inst.res, inst.err = res, err
		n.emit(Event{Instance: inst.spec.ID, Kind: EventInstanceDone, Result: res, Err: err})
		close(inst.done)
	})
}

// maxBufferedEvents bounds the feed's backlog: with no consumer on
// Decisions(), the oldest undelivered events are dropped beyond this.
const maxBufferedEvents = 1024

// emit queues an event on the feed; it never blocks, and it never lets an
// absent consumer grow the backlog without bound: when the channel is
// full the oldest event makes room. Every discarded event is counted
// (Stats().EventsDropped), so an operator can tell a quiet feed from a
// lossy one. Sends happen under evMu, so they are ordered and none can
// race endEvents' close.
func (n *Node) emit(ev Event) {
	n.evMu.Lock()
	defer n.evMu.Unlock()
	if n.evEnd {
		// The feed already ended (Close raced a late finish): the event
		// cannot be delivered, and a discarded event is a counted event.
		n.evDropped++
		return
	}
	for {
		select {
		case n.events <- ev:
			return
		default:
		}
		select {
		case <-n.events:
			n.evDropped++
		default:
			// A consumer drained the channel in between: just retry.
		}
	}
}

// endEvents ends the feed: no further event is accepted, and what is
// buffered stays readable until the consumer reaches the close.
func (n *Node) endEvents() {
	n.evMu.Lock()
	n.evEnd = true
	close(n.events)
	n.evMu.Unlock()
}
