// Package tcpnet runs anonymous consensus across real network connections:
// a broadcast Hub relays frames between TCP connections and one client,
// MuxNode, drives GIRAF automata against it — any number of instances as
// epochs over one connection. The round loop is package rounddriver's.
//
// Anonymity is preserved end to end: frames (package wire) carry no sender
// identifier, the hub relays bytes verbatim without annotating origin, and
// nodes never learn how many peers exist — the hub accepts connections at
// any time. The hub itself is a dumb reliable-broadcast device standing in
// for the paper's broadcast primitive; all algorithmic work happens in the
// nodes.
//
// Timing realizes the environments physically: a node's round timer and
// the hub's (optional) per-session artificial delays determine which
// links are timely, exactly as in the in-process runtime (anonnet).
//
// # Resilience
//
// The live plane survives real network weather. Connections are sessions:
// a connection's first frame must be a wire.Hello (anything else, or
// silence past the hello deadline, closes it), the hub answers with a
// session token (wire.Welcome), and a node that loses its connection
// redials with seeded exponential backoff and resumes the session from a
// replay cursor — it receives exactly the frames it has not seen, not the
// whole log, and keeps its delta-decoding state. The hub heartbeats every
// attached connection and only declares a peer dead after a run of
// missed acks; an overwhelmed consumer gets a high-water-mark grace
// window to drain before it is disconnected (and, having a session, can
// reconnect and resume with nothing lost).
package tcpnet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"anonconsensus/internal/wire"
)

// ErrHubLost reports that a node's hub connection died and could not be
// re-established within its reconnect budget. In the crash-fault model a
// node permanently cut off from the broadcast primitive is
// indistinguishable from a crashed process, so callers (transport_tcp)
// treat this error as a crash of that one node, not as an
// infrastructure failure of the whole run.
var ErrHubLost = errors.New("tcpnet: hub connection lost")

// HubStats counts the hub's robustness events. All counters are
// cumulative since the hub started.
type HubStats struct {
	// Sessions is the number of sessions ever established.
	Sessions int
	// Reconnects counts successful session resumptions.
	Reconnects int
	// ReplayedFrames counts frames re-sent from session logs on
	// resumption.
	ReplayedFrames int
	// HeartbeatMisses counts heartbeat intervals that elapsed with the
	// previous probe unacknowledged (a slow consumer accumulates a few and
	// recovers; a dead one accumulates the miss limit and is dropped).
	HeartbeatMisses int
	// DroppedConns counts connections the hub itself severed (overwhelmed
	// beyond the grace window, or heartbeat-dead).
	DroppedConns int
	// OverwhelmedDrops is the subset of DroppedConns due to a full
	// outbound queue past the high-water mark for longer than the grace
	// window.
	OverwhelmedDrops int
	// EpochsRetired counts RetireEpoch calls; RetiredFrames counts frames
	// removed from the hub replay log by retirement plus late broadcasts
	// suppressed because their epoch was already retired.
	EpochsRetired int
	RetiredFrames int
}

// Hub is the reliable anonymous broadcast relay: every frame received on
// one connection is forwarded to every *other* connection, in arrival
// order, with no origin information. The hub retains a log of all frames
// and replays it to every new session: the paper's broadcast primitive is
// reliable to *all* correct processes, so a process that attaches late
// must still receive everything broadcast before it arrived (late counts
// as asynchronous, lost would break the model — see the late-joiner test).
//
// Each session's outbound queue is a cursor into its private sent-log (a
// subsequence of the hub log: own frames excluded, fault-dropped forwards
// excluded, injected duplicates included). Replay on resumption is just a
// cursor rewind, so a reconnecting node never loses a frame and never
// re-receives one it has processed.
type Hub struct {
	ln net.Listener

	mu       sync.Mutex
	sessions map[uint64]*session   // by token; detached ones stay resumable
	pending  map[net.Conn]struct{} // accepted, Hello not yet read
	log      [][]byte
	// logEpochs runs parallel to log: each entry is the frame's instance
	// epoch (0 for bytes that are not a data frame), so RetireEpoch can
	// compact the replay log per epoch without decoding frames.
	logEpochs []uint64
	retired   map[uint64]bool
	closed    bool
	serial    int

	bootNonce uint64

	stats HubStats

	stop chan struct{}
	wg   sync.WaitGroup

	// Delay, if set, is applied before forwarding a frame to a session
	// (indexed by creation order), letting tests shape per-link timeliness.
	delay func(sessionIndex int) time.Duration
	// fault, if set, yields each frame's epoch's link fault (nil: none) —
	// the hub-level realization of a fault scenario's loss, duplication
	// and partition dimensions.
	fault func(epoch uint64) LinkFault

	helloDeadline time.Duration
	highWater     int
	graceWindow   time.Duration
	hbInterval    time.Duration
	hbMissLimit   int
}

// session is one logical consumer of the broadcast, resumable by token
// across connections.
type session struct {
	token uint64
	index int      // creation-order index, stable across reconnects
	sent  [][]byte // frames queued for this session, in order
	cur   int      // next sent index the write loop will deliver
	cond  *sync.Cond

	conn net.Conn // current attachment; nil while detached
	wmu  sync.Mutex

	hwmSince time.Time // when the queue lag first crossed the high-water mark

	hbSeq   uint64
	hbAcked uint64
	misses  int
}

// HubOption configures the hub.
type HubOption func(*Hub)

// WithForwardDelay delays every forward to the i-th session (sessions
// are numbered in creation order; a resumed session keeps its number).
func WithForwardDelay(f func(sessionIndex int) time.Duration) HubOption {
	return func(h *Hub) { h.delay = f }
}

// LinkFault decides whether the forward of one frame (serial numbers
// frames in arrival order) from the from-th to the to-th session is
// suppressed or doubled.
type LinkFault func(from, to, serial int) (drop, dup bool)

// WithForwardFault injects loss and duplication at the relay, scoped by
// instance epoch: the hub asks f once per broadcast frame for the fault of
// the frame's epoch (the one it already parses for RetireEpoch; nil means
// fault-free) and consults that per receiver. Dropped frames stay in the
// hub log — a late joiner still receives them in the replay, mirroring
// the scenario semantics that loss hits deliveries, not the broadcast
// itself. Crash and partition dimensions are the caller's concern (crashes
// stop nodes, and the caller can realize a partition by dropping all
// cross-block forwards). f runs under the hub lock: it must not block or
// call back into the hub.
func WithForwardFault(f func(epoch uint64) LinkFault) HubOption {
	return func(h *Hub) { h.fault = f }
}

// WithHeartbeat sets the hub's liveness probing of attached sessions: a
// probe every interval, and a connection is declared dead (and dropped)
// after missLimit consecutive intervals with the previous probe
// unacknowledged — the threshold is what distinguishes a slow consumer
// (misses a beat, acks late, recovers) from a dead one.
func WithHeartbeat(interval time.Duration, missLimit int) HubOption {
	return func(h *Hub) {
		h.hbInterval = interval
		if missLimit > 0 {
			h.hbMissLimit = missLimit
		}
	}
}

// WithQueuePolicy bounds a session's outbound lag: once more than
// highWater frames are queued undelivered, the consumer has the grace
// window to drain below the mark before the hub disconnects it
// (overwhelmed ⇒ crashed in the model; the node can reconnect and
// resume, so the drop is flow control, not data loss).
func WithQueuePolicy(highWater int, grace time.Duration) HubOption {
	return func(h *Hub) {
		if highWater > 0 {
			h.highWater = highWater
		}
		if grace > 0 {
			h.graceWindow = grace
		}
	}
}

// NewHub starts a hub listening on addr (e.g. "127.0.0.1:0"). Close stops
// it.
func NewHub(addr string, opts ...HubOption) (*Hub, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("tcpnet: hub listen: %w", err)
	}
	h := &Hub{
		ln:       ln,
		sessions: make(map[uint64]*session),
		pending:  make(map[net.Conn]struct{}),
		retired:  make(map[uint64]bool),
		stop:     make(chan struct{}),
		// The boot nonce keeps tokens from colliding across hub restarts
		// on the same address: a node resuming into a restarted hub must
		// never alias another node's fresh session.
		bootNonce: uint64(time.Now().UnixNano()) << 16,
		// A dialer writes its Hello right after connecting (dialHub), so
		// the deadline only ever expires on something that is not a node.
		helloDeadline: 5 * time.Second,
		highWater:     4096,
		graceWindow:   500 * time.Millisecond,
		hbInterval:    2 * time.Second,
		hbMissLimit:   3,
	}
	for _, opt := range opts {
		opt(h)
	}
	h.wg.Add(1)
	go h.acceptLoop()
	if h.hbInterval > 0 {
		h.wg.Add(1)
		go h.heartbeatLoop()
	}
	return h, nil
}

// Addr returns the hub's listen address.
func (h *Hub) Addr() string { return h.ln.Addr().String() }

// Stats returns a snapshot of the hub's robustness counters.
func (h *Hub) Stats() HubStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.stats
}

// RetireEpoch declares a multiplexed instance epoch finished: its frames
// are compacted out of the hub replay log — so fresh sessions and late
// joiners replay only live epochs — and any straggler broadcast tagged
// with it is suppressed instead of logged. Retirement is what keeps a
// long-lived multiplexing hub's log proportional to the *in-flight*
// instances rather than to everything it ever carried.
//
// Epoch 0 (bytes that are not a data frame) cannot be retired; calls for
// it are no-ops. Already-established sessions keep their private sent
// logs untouched: those are cursor-indexed (the node's replay cursor
// counts delivered frames), so compacting them would desynchronize
// resumption. Their retired entries have already been delivered or will
// drain cheaply; only the hub-level log, which seeds every future
// session, is compacted.
func (h *Hub) RetireEpoch(epoch uint64) {
	if epoch == 0 {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed || h.retired[epoch] {
		return
	}
	h.retired[epoch] = true
	h.stats.EpochsRetired++
	kept := h.log[:0]
	keptEpochs := h.logEpochs[:0]
	for i, frame := range h.log {
		if h.logEpochs[i] == epoch {
			h.stats.RetiredFrames++
			continue
		}
		kept = append(kept, frame)
		keptEpochs = append(keptEpochs, h.logEpochs[i])
	}
	// Zero the tail so retired frames are collectable.
	for i := len(kept); i < len(h.log); i++ {
		h.log[i] = nil
	}
	h.log = kept
	h.logEpochs = keptEpochs
}

// Close stops the hub and all its connections.
func (h *Hub) Close() error {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil
	}
	h.closed = true
	conns := make([]net.Conn, 0, len(h.sessions)+len(h.pending))
	for _, s := range h.sessions {
		if s.conn != nil {
			conns = append(conns, s.conn)
		}
		s.cond.Broadcast()
	}
	for c := range h.pending {
		conns = append(conns, c)
	}
	h.mu.Unlock()

	close(h.stop)
	err := h.ln.Close()
	for _, c := range conns {
		_ = c.Close()
	}
	h.wg.Wait()
	return err
}

func (h *Hub) acceptLoop() {
	defer h.wg.Done()
	for {
		conn, err := h.ln.Accept()
		if err != nil {
			return // listener closed
		}
		h.mu.Lock()
		if h.closed {
			h.mu.Unlock()
			_ = conn.Close()
			return
		}
		h.pending[conn] = struct{}{}
		h.wg.Add(1)
		h.mu.Unlock()
		go h.handshake(conn)
	}
}

// handshake admits a new connection: its first frame must be a
// wire.Hello, which makes it a session (fresh or resumed). Anything else
// — a data frame, another control frame, a transport error, silence past
// the hello deadline — closes it.
func (h *Hub) handshake(conn net.Conn) {
	defer h.wg.Done()
	_ = conn.SetReadDeadline(time.Now().Add(h.helloDeadline))
	first, err := wire.ReadFrame(conn)
	_ = conn.SetReadDeadline(time.Time{})
	var hello wire.Hello
	if err == nil {
		hello, err = wire.DecodeHello(first)
	}

	h.mu.Lock()
	delete(h.pending, conn)
	if err != nil || h.closed {
		h.mu.Unlock()
		_ = conn.Close()
		return
	}
	var welcome wire.Welcome
	s := h.sessions[hello.Token] // token 0 is never issued
	if s != nil {
		// Resumption: kick any half-dead previous attachment, rewind the
		// cursor to the node's receive count, and replay the difference.
		if old := s.conn; old != nil {
			s.conn = nil
			s.cond.Broadcast()
			_ = old.Close()
		}
		// The cursor is the peer's claim: clamp it as a uint64, before it
		// can turn into a negative index.
		cur := len(s.sent)
		if hello.Cursor < uint64(cur) {
			cur = int(hello.Cursor)
		}
		s.cur = cur
		h.stats.Reconnects++
		h.stats.ReplayedFrames += len(s.sent) - cur
		welcome = wire.Welcome{
			Token:      s.token,
			ResumeFrom: uint64(cur),
			Pending:    uint64(len(s.sent) - cur),
		}
	} else {
		// Fresh session (or a resume for a token this hub does not know —
		// e.g. issued before a restart): the whole current log is the
		// replay, exactly as for a late joiner.
		s = &session{
			index: h.stats.Sessions,
			sent:  append([][]byte(nil), h.log...),
			cond:  sync.NewCond(&h.mu),
		}
		h.stats.Sessions++
		s.token = h.bootNonce + uint64(h.stats.Sessions)
		h.sessions[s.token] = s
		welcome = wire.Welcome{Token: s.token, Pending: uint64(len(s.sent))}
	}
	s.conn = conn
	s.hwmSince = time.Time{}
	s.hbSeq, s.hbAcked, s.misses = 0, 0, 0
	h.mu.Unlock()

	// The Welcome must precede every replayed frame; this connection's
	// write loop starts only below, so a direct write is ordered.
	s.wmu.Lock()
	werr := wire.WriteFrame(conn, wire.EncodeWelcome(welcome))
	s.wmu.Unlock()
	if werr != nil {
		h.detach(s, conn)
		return
	}

	h.wg.Add(2)
	go h.readLoop(s, conn)
	go h.writeLoop(s, conn)
}

// readLoop pulls frames off one connection: control frames are consumed,
// data frames fan out.
func (h *Hub) readLoop(s *session, conn net.Conn) {
	defer h.wg.Done()
	defer h.detach(s, conn)
	for {
		frame, err := wire.ReadFrame(conn)
		if err != nil {
			return // EOF or broken pipe: the node left
		}
		if kind, ok := wire.ControlKind(frame); ok {
			if kind == wire.ControlHeartbeatAck {
				if ack, err := wire.DecodeHeartbeatAck(frame); err == nil {
					h.mu.Lock()
					// Ignore acks from before a resumption (their seq
					// outruns this attachment's probe counter).
					if ack.Seq <= s.hbSeq && ack.Seq > s.hbAcked {
						s.hbAcked = ack.Seq
					}
					s.misses = 0
					h.mu.Unlock()
				}
			}
			continue // control frames are never relayed
		}
		h.broadcast(s, frame)
	}
}

// broadcast logs one data frame and queues it for every other session.
func (h *Hub) broadcast(from *session, frame []byte) {
	type victim struct {
		s    *session
		conn net.Conn
	}
	var overwhelmed []victim
	epoch, _ := wire.DataFrameEpoch(frame) // non-delta bytes count as epoch 0
	h.mu.Lock()
	if h.retired[epoch] {
		// A straggler from a finished instance: suppress it entirely —
		// logging it would replay dead traffic to every future session.
		h.stats.RetiredFrames++
		h.mu.Unlock()
		return
	}
	h.log = append(h.log, frame)
	h.logEpochs = append(h.logEpochs, epoch)
	h.serial++
	serial := h.serial
	var fault LinkFault
	if h.fault != nil {
		fault = h.fault(epoch)
	}
	for _, s := range h.sessions {
		if s == from {
			continue // the sender's own payload is already in its inbox
		}
		if fault != nil {
			drop, dup := fault(from.index, s.index, serial)
			if drop {
				continue
			}
			if dup {
				// The duplicate is fault injection, not protocol traffic:
				// it rides the same queue and replay as the original.
				s.sent = append(s.sent, frame)
			}
		}
		s.sent = append(s.sent, frame)
		// Broadcast must stay reliable to correct processes: frames are
		// never silently dropped. A consumer lagging past the high-water
		// mark gets the grace window to drain; if it is still overwhelmed
		// after that it is disconnected — in the crash-fault model a
		// crashed process (which the algorithms tolerate), and for a node
		// with a reconnect budget merely a forced reconnect with replay.
		if s.conn != nil && len(s.sent)-s.cur > h.highWater {
			if s.hwmSince.IsZero() {
				s.hwmSince = time.Now()
			} else if time.Since(s.hwmSince) > h.graceWindow {
				h.stats.OverwhelmedDrops++
				h.stats.DroppedConns++
				overwhelmed = append(overwhelmed, victim{s, s.conn})
			}
		}
		s.cond.Signal()
	}
	h.mu.Unlock()
	for _, v := range overwhelmed {
		h.detach(v.s, v.conn)
	}
}

// writeLoop delivers a session's sent-log to its current connection,
// advancing the shared cursor. It exits when the connection is replaced,
// fails, or the hub closes.
func (h *Hub) writeLoop(s *session, conn net.Conn) {
	defer h.wg.Done()
	for {
		h.mu.Lock()
		for s.conn == conn && !h.closed && s.cur >= len(s.sent) {
			s.cond.Wait()
		}
		if s.conn != conn || h.closed {
			h.mu.Unlock()
			return
		}
		frame := s.sent[s.cur]
		s.cur++
		if len(s.sent)-s.cur <= h.highWater {
			s.hwmSince = time.Time{} // drained below the mark: lag forgiven
		}
		h.mu.Unlock()
		if h.delay != nil {
			if d := h.delay(s.index); d > 0 {
				time.Sleep(d)
			}
		}
		s.wmu.Lock()
		err := wire.WriteFrame(conn, frame)
		s.wmu.Unlock()
		if err != nil {
			h.detach(s, conn)
			return
		}
	}
}

// heartbeatLoop probes every attached connection and drops the ones that
// miss hbMissLimit probes in a row.
func (h *Hub) heartbeatLoop() {
	defer h.wg.Done()
	ticker := time.NewTicker(h.hbInterval)
	defer ticker.Stop()
	for {
		select {
		case <-h.stop:
			return
		case <-ticker.C:
		}
		type probe struct {
			s    *session
			conn net.Conn
			seq  uint64
		}
		var probes []probe
		var dead []probe
		h.mu.Lock()
		if h.closed {
			h.mu.Unlock()
			return
		}
		for _, s := range h.sessions {
			if s.conn == nil {
				continue // detached
			}
			if s.hbSeq > s.hbAcked {
				s.misses++
				h.stats.HeartbeatMisses++
				if s.misses >= h.hbMissLimit {
					h.stats.DroppedConns++
					dead = append(dead, probe{s: s, conn: s.conn})
					continue
				}
			}
			s.hbSeq++
			probes = append(probes, probe{s, s.conn, s.hbSeq})
		}
		h.mu.Unlock()
		for _, d := range dead {
			h.detach(d.s, d.conn)
		}
		for _, p := range probes {
			p.s.wmu.Lock()
			err := wire.WriteFrame(p.conn, wire.EncodeHeartbeat(wire.Heartbeat{Seq: p.seq}))
			p.s.wmu.Unlock()
			if err != nil {
				h.detach(p.s, p.conn)
			}
		}
	}
}

// detach severs one attachment. The session stays resumable: its sent-log
// keeps accumulating.
func (h *Hub) detach(s *session, conn net.Conn) {
	h.mu.Lock()
	if s.conn == conn {
		s.conn = nil
		s.cond.Broadcast()
	}
	h.mu.Unlock()
	_ = conn.Close()
}

// ReconnectPolicy governs a node's response to losing its hub
// connection: redial with exponential backoff and jitter, resuming the
// session. The zero policy disables reconnection (a lost connection is
// then immediately ErrHubLost).
type ReconnectPolicy struct {
	// MaxAttempts bounds redials per outage; 0 disables reconnection.
	MaxAttempts int
	// BaseDelay is the first backoff delay (default 20ms when attempts
	// are enabled).
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth (default 2s).
	MaxDelay time.Duration
	// Seed drives the jitter: for a fixed seed the backoff schedule is
	// deterministic, so chaos runs replay.
	Seed int64
}

// enabled reports whether the policy allows any reconnection.
func (p ReconnectPolicy) enabled() bool { return p.MaxAttempts > 0 }

// backoff returns the deterministic delay before the attempt-th redial
// (0-based): exponential growth capped at MaxDelay, jittered into
// [d/2, 3d/2) by a seeded hash so herds of nodes desynchronize while a
// fixed seed still replays the exact schedule.
func (p ReconnectPolicy) backoff(attempt int) time.Duration {
	base := p.BaseDelay
	if base <= 0 {
		base = 20 * time.Millisecond
	}
	maxd := p.MaxDelay
	if maxd <= 0 {
		maxd = 2 * time.Second
	}
	d := base
	for i := 0; i < attempt && d < maxd; i++ {
		d *= 2
	}
	if d > maxd {
		d = maxd
	}
	// FNV-1a over (seed, attempt), the same mixer idiom as the transport's
	// forward jitter.
	j := uint64(1469598103934665603) ^ uint64(p.Seed)
	j ^= uint64(uint32(attempt))
	j *= 1099511628211
	j ^= j >> 33
	return d/2 + time.Duration(j%uint64(d))
}

// dialTimeout bounds each dial + handshake.
const dialTimeout = 5 * time.Second

// dialHub establishes one hub connection: DialContext with a deadline,
// then the Hello/Welcome handshake with the given session token and
// replay cursor (0, 0 for a fresh session).
func dialHub(ctx context.Context, addr string, token, cursor uint64) (net.Conn, wire.Welcome, error) {
	dctx, cancel := context.WithTimeout(ctx, dialTimeout)
	defer cancel()
	var d net.Dialer
	conn, err := d.DialContext(dctx, "tcp", addr)
	if err != nil {
		return nil, wire.Welcome{}, err
	}
	if err := wire.WriteFrame(conn, wire.EncodeHello(wire.Hello{
		Token:  token,
		Cursor: cursor,
	})); err != nil {
		_ = conn.Close()
		return nil, wire.Welcome{}, err
	}
	_ = conn.SetReadDeadline(time.Now().Add(dialTimeout))
	var welcome wire.Welcome
	for {
		frame, err := wire.ReadFrame(conn)
		if err != nil {
			_ = conn.Close()
			return nil, wire.Welcome{}, fmt.Errorf("awaiting welcome: %w", err)
		}
		kind, ok := wire.ControlKind(frame)
		if !ok {
			_ = conn.Close()
			return nil, wire.Welcome{}, fmt.Errorf("awaiting welcome: got a data frame")
		}
		if kind != wire.ControlWelcome {
			continue // e.g. a heartbeat that raced the handshake
		}
		welcome, err = wire.DecodeWelcome(frame)
		if err != nil {
			_ = conn.Close()
			return nil, wire.Welcome{}, fmt.Errorf("awaiting welcome: %w", err)
		}
		break
	}
	_ = conn.SetReadDeadline(time.Time{})
	return conn, welcome, nil
}
