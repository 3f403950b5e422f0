package tcpnet

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"anonconsensus/internal/giraf"
	"anonconsensus/internal/rounddriver"
	"anonconsensus/internal/wire"
)

// MuxNode is a persistent hub attachment that multiplexes many consensus
// instances over ONE TCP connection and ONE resumable hub session. Each
// in-flight instance is a registered epoch: outbound frames are
// epoch-tagged (0xD6; see internal/wire), a single reader goroutine
// demultiplexes inbound frames into per-epoch inboxes, and the delta
// plane is a per-epoch family — one DeltaTracker per epoch on the
// uplink, one ResolveTable per epoch on the downlink — so streams of
// different instances never resolve against each other.
//
// Connection losses are survived by resuming the hub session: the reader
// redials with the configured backoff, presents its token and receive
// cursor, and the hub replays exactly the frames it missed (epoch tags
// included, so replay demultiplexes like live traffic). Every delta
// tracker resets on reconnect — frames in flight at the loss may never
// have reached the hub, and a delta reference must only point at the
// previous frame of its own stream.
//
// A MuxNode whose reconnect budget is exhausted is dead: RunInstance
// calls return an error wrapping ErrHubLost, which callers treat as a
// crash of this node (for every epoch it carried), not of the hub. A
// reconnect that lands on a restarted hub (a new wire.Welcome.Incarnation)
// finds a log without the adds this node already completed, so every epoch
// registered at that moment ends the same way (ErrHubRestarted); the node
// itself lives on, and epochs registered afterwards run on the new hub.
//
// MuxNode is the only TCP client in the tree.
type MuxNode struct {
	cfg MuxConfig

	mu     sync.Mutex
	epochs map[uint64]*muxEpoch
	stats  MuxStats
	closed bool

	// writeMu serializes uplink writers (RunInstance goroutines) and
	// guards the connection/tracker swap on reconnect.
	writeMu  sync.Mutex
	conn     net.Conn
	trackers map[uint64]*giraf.DeltaTracker
	// attachment counts the connections the session has had; with conn it
	// makes rounddriver.Config.Attachment.
	attachment uint64

	token uint64 // hub session token (reader-owned after DialMux)
	// cursor counts the data frames received on the session; the reader
	// advances it, and send reports it to the hub beside each add.
	cursor      atomic.Uint64
	incarnation uint64 // the hub's, from its last Welcome (reader-owned)

	lifeCtx    context.Context
	lifeCancel context.CancelFunc
	stop       chan struct{}
	dead       chan struct{} // closed once the session is permanently lost
	deadErr    error         // set before dead closes
	readerDone chan struct{}
}

// muxEpoch is one registered instance stream: its demux inbox and the
// resolve side of its delta family. The table is touched only by the
// reader goroutine.
type muxEpoch struct {
	id    uint64
	inbox *rounddriver.Mailbox
	table *giraf.ResolveTable
	// lost closes, with lostErr set first and under MuxNode.mu, once the
	// epoch's broadcast log is gone: the node died or the hub restarted.
	lost    chan struct{}
	lostErr error
}

// lose ends the epoch's run as Lost with err; the caller holds MuxNode.mu.
func (ep *muxEpoch) lose(err error) {
	if ep.lostErr == nil {
		ep.lostErr = err
		close(ep.lost)
	}
}

// MuxConfig configures a MuxNode.
type MuxConfig struct {
	// HubAddr is the hub's TCP address.
	HubAddr string
	// Reconnect governs recovery from a lost hub connection; the zero
	// policy fails fast (the first loss kills every epoch).
	Reconnect ReconnectPolicy
}

// MuxStats counts a MuxNode's robustness events, cumulative since
// DialMux.
type MuxStats struct {
	// Reconnects / ReplayedFrames / FailedDials / HeartbeatsAcked are the
	// shared connection's session-resumption counters.
	Reconnects      int
	ReplayedFrames  int
	FailedDials     int
	HeartbeatsAcked int
	// UnknownEpochFrames counts inbound frames tagged with an epoch this
	// node has no registration for (a peer's straggler after local
	// Unregister, or traffic for an instance this node never joined).
	UnknownEpochFrames int
}

// DialMux attaches to the hub and starts the demultiplexing reader. The
// returned node is ready for Register/RunInstance; Close detaches.
//
// The given epochs are registered before the reader starts. A fresh
// session's first inbound frames are the hub's log replay, and the reader
// counts frames for unregistered epochs as unknown and drops them —
// harmless for a pooled slot whose epochs do not exist yet, wrong for a
// node attaching to an epoch already under way (late counts as
// asynchronous, lost would break the model; see Hub). Such a node needs
// nothing more: the replay reaches its inbox ahead of its own first mark,
// so it is only a slow process (DESIGN.md §3 note 4).
func DialMux(ctx context.Context, cfg MuxConfig, epochs ...uint64) (*MuxNode, error) {
	if cfg.HubAddr == "" {
		return nil, errors.New("tcpnet: mux: empty hub address")
	}
	conn, br, welcome, err := dialHub(ctx, cfg.HubAddr, 0, 0)
	if err != nil {
		return nil, fmt.Errorf("tcpnet: mux: dialing hub: %w", err)
	}
	m := &MuxNode{
		cfg:         cfg,
		epochs:      make(map[uint64]*muxEpoch),
		trackers:    make(map[uint64]*giraf.DeltaTracker),
		conn:        conn,
		attachment:  1,
		token:       welcome.Token,
		incarnation: welcome.Incarnation,
		stop:        make(chan struct{}),
		dead:        make(chan struct{}),
		readerDone:  make(chan struct{}),
	}
	m.cursor.Store(welcome.ResumeFrom)
	for _, epoch := range epochs {
		if err := m.Register(epoch); err != nil {
			_ = conn.Close()
			return nil, err
		}
	}
	m.lifeCtx, m.lifeCancel = context.WithCancel(context.Background())
	//detlint:goroutine the reader lives exactly as long as the MuxNode: Close joins it via readerDone
	go m.readerLoop(conn, br)
	return m, nil
}

// Register opens an instance epoch (≥ 1) on this node: inbound frames
// tagged with it will demultiplex into the epoch's inbox. Register every
// participating node's epoch before starting any of the instance's
// automata: the reader drops frames for an epoch it has not registered,
// and a lost frame, unlike a late one, breaks the model. A node attaching
// to an epoch already under way registers it at DialMux instead.
func (m *MuxNode) Register(epoch uint64) error {
	if epoch == 0 {
		return errors.New("tcpnet: mux: epochs start at 1")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return errors.New("tcpnet: mux: node is closed")
	}
	if _, dup := m.epochs[epoch]; dup {
		return fmt.Errorf("tcpnet: mux: epoch %d already registered", epoch)
	}
	ep := &muxEpoch{
		id:    epoch,
		inbox: rounddriver.NewMailbox(),
		table: giraf.NewResolveTable(),
		lost:  make(chan struct{}),
	}
	select {
	case <-m.dead:
		ep.lose(m.deadErr)
	default:
	}
	m.epochs[epoch] = ep
	return nil
}

// Unregister closes an instance epoch: its inbox and resolve table are
// released, and further frames for it count as unknown. Idempotent.
func (m *MuxNode) Unregister(epoch uint64) {
	m.mu.Lock()
	delete(m.epochs, epoch)
	m.mu.Unlock()
	m.writeMu.Lock()
	delete(m.trackers, epoch)
	m.writeMu.Unlock()
}

// InstanceRun drives one instance over a registered epoch.
type InstanceRun struct {
	// Automaton is the GIRAF automaton to run.
	Automaton giraf.Automaton
	// Interval is the local round-timer period; defaults to 10ms.
	Interval time.Duration
	// Timeout bounds the run; defaults to 30s.
	Timeout time.Duration
	// CrashAfterRounds stops the node after that many end-of-rounds
	// (simulated crash). Zero means never.
	CrashAfterRounds int
	// Peers is ignored. Rounds are paced by add-then-get (package
	// rounddriver), which needs no count of processes; the field stays so
	// that callers which set it still compile.
	Peers int
}

// RunInstance drives cfg.Automaton on the given registered epoch until
// it decides, the timeout expires, or the epoch's log is lost (the shared
// session died, or the hub restarted) — then the partial Outcome (Lost
// set) comes back alongside an error wrapping ErrHubLost. Many
// RunInstance calls proceed concurrently on one MuxNode, one per epoch;
// all of them share the node's single hub connection. The round loop
// itself is package rounddriver's.
func (m *MuxNode) RunInstance(ctx context.Context, epoch uint64, cfg InstanceRun) (rounddriver.Outcome, error) {
	if cfg.Automaton == nil {
		return rounddriver.Outcome{}, errors.New("tcpnet: nil automaton")
	}
	m.mu.Lock()
	ep := m.epochs[epoch]
	m.mu.Unlock()
	if ep == nil {
		return rounddriver.Outcome{}, fmt.Errorf("tcpnet: mux: epoch %d not registered", epoch)
	}
	interval := cfg.Interval
	if interval <= 0 {
		interval = 10 * time.Millisecond
	}
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	out := rounddriver.Run(ctx, rounddriver.Config{
		Automaton:  cfg.Automaton,
		CrashAfter: cfg.CrashAfterRounds,
		Beat:       ticker.C,
		Inbox:      ep.inbox,
		Lost:       ep.lost,
		// While the shared connection is down the reader is redialing;
		// the driver executes no round until it is back, and then sends
		// its outstanding add again.
		Attachment: m.attached,
		// A failed send means the connection is churning; the reader
		// reconnects (or declares the node dead). send dropped this
		// epoch's tracker, so the re-sent add travels in full.
		Send: func(env giraf.Envelope) error { return m.send(ep, env) },
	})
	if out.Lost {
		return out, ep.lostErr
	}
	return out, nil
}

// send delta-compresses env against its epoch's uplink stream and writes
// one epoch-tagged frame to the shared connection, in one write with a
// report of the node's receive cursor ahead of it — a heartbeat ack with
// Seq 0, which no probe carries: the hub forgets what the node reports
// received. A lost epoch sends nothing: after a hub restart its frames
// would reach a log that lacks the instance's earlier adds (redial closes
// lost under writeMu).
func (m *MuxNode) send(ep *muxEpoch, env giraf.Envelope) error {
	m.writeMu.Lock()
	defer m.writeMu.Unlock()
	select {
	case <-ep.lost:
		return ErrHubLost
	default:
	}
	if m.conn == nil {
		return ErrHubLost
	}
	tr := m.trackers[ep.id]
	if tr == nil {
		tr = giraf.NewDeltaTracker()
		m.trackers[ep.id] = tr
	}
	delta := tr.Shrink(env)
	data, err := wire.EncodeDeltaEnvelopeEpoch(delta, ep.id)
	if err != nil {
		return err
	}
	report := wire.EncodeHeartbeatAck(wire.Heartbeat{Cursor: m.cursor.Load()})
	if err := wire.WriteFrame(m.conn, report, data); err != nil {
		// The frame may never have reached the hub: drop the tracker so
		// the next broadcast resends full payloads on whatever stream
		// follows.
		delete(m.trackers, ep.id)
		return err
	}
	return nil
}

// readerLoop is the node's single demultiplexer: it pumps the shared
// connection through the reader dialHub handed back with it, answers
// heartbeats, advances the session cursor, and puts data frames and marks
// into their epoch's inbox in stream order; a put never waits, so one busy
// epoch holds up no other. On a connection loss it owns recovery — redial,
// session resume, tracker reset — so writers never race it for the dial.
func (m *MuxNode) readerLoop(conn net.Conn, br *bufio.Reader) {
	defer close(m.readerDone)
	for {
		frame, err := wire.ReadFrame(br)
		if err != nil {
			// Detach before redialing: a nil conn makes writers fail fast
			// and pauses every RunInstance's round execution (the round
			// driver's Attached rule) — a disconnected node must not run
			// rounds solo.
			m.writeMu.Lock()
			if m.conn != nil {
				_ = m.conn.Close()
				m.conn = nil
			}
			m.writeMu.Unlock()
			select {
			case <-m.stop:
				// Close: mark the session dead so in-flight RunInstance
				// calls return promptly instead of running out their
				// timeouts against a connection that no longer exists.
				m.die(ErrHubLost)
				return
			default:
			}
			next, nextBr, rerr := m.redial()
			if rerr != nil {
				m.die(rerr)
				return
			}
			conn, br = next, nextBr
			continue
		}
		if kind, ok := wire.ControlKind(frame); ok {
			switch kind {
			case wire.ControlHeartbeat:
				if hb, herr := wire.DecodeHeartbeat(frame); herr == nil {
					m.writeMu.Lock()
					ok := m.conn != nil && wire.WriteFrame(m.conn, wire.EncodeHeartbeatAck(wire.Heartbeat{Seq: hb.Seq, Cursor: m.cursor.Load()})) == nil
					m.writeMu.Unlock()
					if ok {
						m.mu.Lock()
						m.stats.HeartbeatsAcked++
						m.mu.Unlock()
					}
				}
			case wire.ControlMark:
				if mk, merr := wire.DecodeMark(frame); merr == nil {
					m.mu.Lock()
					ep := m.epochs[mk.Epoch]
					m.mu.Unlock()
					if ep != nil {
						ep.inbox.Put(rounddriver.Mark(mk.Round))
					}
				}
			}
			continue
		}
		// Every data frame occupies one slot of the session stream, so the
		// cursor advances even for frames that fail to decode (else a
		// resumption would replay the garbage forever).
		m.cursor.Add(1)
		delta, epoch, err := wire.DecodeDeltaEnvelopeEpoch(frame)
		if err != nil {
			continue // corrupt frame: skip (crash-fault model)
		}
		m.mu.Lock()
		ep := m.epochs[epoch]
		if ep == nil {
			m.stats.UnknownEpochFrames++
			m.mu.Unlock()
			continue
		}
		m.mu.Unlock()
		// The table is reader-owned: resolve outside m.mu.
		env, err := ep.table.Resolve(delta)
		if err != nil || rounddriver.IsMark(env) {
			// A dangling reference (sender's frame was lost), or a frame
			// carrying nothing, which would read as a mark: skip.
			continue
		}
		ep.inbox.Put(env)
	}
}

// redial re-establishes the shared connection with the policy's backoff
// schedule, resuming the hub session by token, and swaps it in under
// writeMu (resetting every uplink delta tracker). It returns the new
// connection's reader with it (see dialHub).
func (m *MuxNode) redial() (net.Conn, *bufio.Reader, error) {
	if !m.cfg.Reconnect.enabled() {
		return nil, nil, ErrHubLost
	}
	var lastErr error
	for attempt := 0; attempt < m.cfg.Reconnect.MaxAttempts; attempt++ {
		wait := time.NewTimer(m.cfg.Reconnect.backoff(attempt))
		select {
		case <-m.stop:
			wait.Stop()
			return nil, nil, ErrHubLost
		case <-wait.C:
		}
		conn, br, welcome, err := dialHub(m.lifeCtx, m.cfg.HubAddr, m.token, m.cursor.Load())
		if err != nil {
			lastErr = err
			m.mu.Lock()
			m.stats.FailedDials++
			m.mu.Unlock()
			continue
		}
		// The hub's resume position is authoritative: the node's own
		// cursor for a clean resumption, 0 when the session is fresh
		// (a restarted hub no longer knows the token, or the hub released
		// the session: the node rejoins late, DESIGN.md §3 note 7).
		m.token = welcome.Token
		m.cursor.Store(welcome.ResumeFrom)
		m.writeMu.Lock()
		if welcome.Incarnation != m.incarnation {
			// A restarted hub's log lacks every add this node completed:
			// no epoch in flight can continue on it.
			m.incarnation = welcome.Incarnation
			m.mu.Lock()
			for _, ep := range m.epochs {
				ep.lose(ErrHubRestarted)
			}
			m.mu.Unlock()
		}
		m.conn = conn
		m.attachment++
		// References may only point at the previous frame of the same
		// stream, and the frames in flight at the loss may be gone:
		// every epoch restarts its delta stream from full payloads.
		clear(m.trackers)
		m.writeMu.Unlock()
		m.mu.Lock()
		m.stats.Reconnects++
		m.stats.ReplayedFrames += int(welcome.Pending)
		m.mu.Unlock()
		return conn, br, nil
	}
	if lastErr != nil {
		return nil, nil, fmt.Errorf("%w (last dial error: %v)", ErrHubLost, lastErr)
	}
	return nil, nil, ErrHubLost
}

// die marks the session permanently lost: every current and future
// RunInstance on this node returns err.
func (m *MuxNode) die(err error) {
	m.writeMu.Lock()
	if m.conn != nil {
		_ = m.conn.Close()
		m.conn = nil
	}
	m.writeMu.Unlock()
	m.mu.Lock()
	m.deadErr = err
	close(m.dead)
	for _, ep := range m.epochs {
		ep.lose(err)
	}
	m.mu.Unlock()
}

// Lost reports whether the session is permanently lost (see ErrHubLost):
// the node will never carry another frame and its owner should replace it.
func (m *MuxNode) Lost() bool {
	select {
	case <-m.dead:
		return true
	default:
		return false
	}
}

// attached names the shared connection's current attachment, 0 while it
// is down (rounddriver.Config.Attachment).
func (m *MuxNode) attached() uint64 {
	m.writeMu.Lock()
	defer m.writeMu.Unlock()
	if m.conn == nil {
		return 0
	}
	return m.attachment
}

// Stats returns a snapshot of the node's robustness counters.
func (m *MuxNode) Stats() MuxStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// Close detaches from the hub and stops the reader. In-flight
// RunInstance calls end promptly (via the dead/reader machinery or their
// own contexts). Idempotent.
func (m *MuxNode) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	m.mu.Unlock()
	close(m.stop)
	m.lifeCancel()
	m.writeMu.Lock()
	if m.conn != nil {
		_ = m.conn.Close()
		m.conn = nil
	}
	m.writeMu.Unlock()
	<-m.readerDone
	return nil
}
