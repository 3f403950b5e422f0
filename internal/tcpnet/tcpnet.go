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
// reconnect and resume with nothing lost). A session that stays
// overwhelmed while detached ends; its node, if it ever returns, joins
// afresh.
package tcpnet

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
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

// ErrHubRestarted reports that a node reconnected to a restarted hub, whose
// fresh log lacks the adds the node's in-flight epochs had completed: those
// epochs end as lost. It wraps ErrHubLost — crash-equivalent for the
// epochs, while the node itself carries on.
var ErrHubRestarted = fmt.Errorf("%w: the hub restarted", ErrHubLost)

// HubStats counts the hub's robustness events. All counters are
// cumulative since the hub started.
type HubStats struct {
	// Sessions is the number of sessions ever established. A released
	// session (see Hub) is not subtracted, and its node's next Hello
	// counts as a new one.
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
	// beyond the grace window, or heartbeat-dead). Releasing a detached
	// session severs no connection and is not counted.
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
// order, with no origin information. The log is a weak-set (§5 of the
// paper): a data frame is its sender's add, and the hub completes the add
// by a wire.Mark in the sender's own stream, at the frame's log position —
// behind every frame queued to the sender before it, so the log's first
// frame of a round precedes every mark of that round. The hub keeps one
// log per live epoch and replays every live log to every new session: the
// paper's broadcast primitive is reliable to *all* correct processes, so
// a process that attaches late must still receive everything broadcast
// before it arrived (late counts as asynchronous, lost would break the
// model — see the late-joiner test).
//
// Each session's outbound queue is its private stream (a subsequence of
// the hub log: own frames excluded, fault-dropped forwards excluded,
// injected duplicates included), addressed by stream position. Replay on
// resumption is a cursor rewind, so a reconnecting node never loses a
// frame and never re-receives one it has processed.
//
// What the hub keeps follows one rule (DESIGN.md §3 note 7): a session's
// queue keeps what its node has not reported receiving — the cursor it
// sends beside each add and in each heartbeat ack — and a session that
// stays past the high-water mark for longer than the grace window ends.
// An attached one is detached first; a detached one is released, and its
// token's next Hello gets a fresh session, a late join like any other.
type Hub struct {
	ln net.Listener

	mu       sync.Mutex
	sessions map[uint64]*session   // by token; detached ones stay resumable until released
	pending  map[net.Conn]struct{} // accepted, Hello not yet read
	// logs holds each live epoch's frames in arrival order (epoch 0: bytes
	// that are not a data frame); logOrder lists those epochs in the order
	// their first frames were logged, the order a fresh session replays.
	logs     map[uint64][][]byte
	logOrder []uint64
	// The retired epochs are every epoch in [1, retiredBelow) and the few
	// above it in retiredAbove, retired out of order.
	retiredBelow uint64
	retiredAbove map[uint64]struct{}
	closed       bool

	// incarnation names this hub process (see wire.Welcome.Incarnation)
	// and keeps its session tokens apart from an earlier one's.
	incarnation uint64

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
	index int // creation-order index, stable across reconnects
	// sent holds the session's stream from position base on: position p
	// is sent[p-base]. Positions count data frames from the session's
	// start, as the node's receive cursor does.
	sent [][]byte
	base int
	cur  int // next stream position the write loop will deliver
	// marks are this session's own adds still to be confirmed, in stream
	// order; the write loop emits each once cur reaches its position and
	// trims them as it goes, so they never accumulate in sent.
	marks []queuedMark
	cond  *sync.Cond

	conn net.Conn // current attachment; nil while detached
	wmu  sync.Mutex

	// hwmSince is when the queue lag crossed the high-water mark, since
	// the last attach or detach.
	hwmSince time.Time

	hbSeq   uint64
	hbAcked uint64
	misses  int
}

// queuedMark is one pending wire.Mark: the sender's frame entered the log
// when pos frames had been queued to the sender's own session.
type queuedMark struct {
	pos  int
	mark wire.Mark
}

// end is the stream position one past the session's last queued frame.
func (s *session) end() int { return s.base + len(s.sent) }

// trim forgets the frames below the node's reported cursor. The report is
// the peer's claim: it is clamped to cur, as a uint64, before it can turn
// into an index past what the write loop delivered. The queue is compacted
// only once the forgotten frames are half of it, so each frame is copied
// at most once on average and the array is reused.
func (s *session) trim(cursor uint64) {
	pos := int(min(cursor, uint64(s.cur)))
	if pos <= s.base || 2*(pos-s.base) < len(s.sent) {
		return
	}
	n := copy(s.sent, s.sent[pos-s.base:])
	clear(s.sent[n:])
	s.sent, s.base = s.sent[:n], pos
}

// isRetired reports whether epoch was retired; the caller holds h.mu.
func (h *Hub) isRetired(epoch uint64) bool {
	_, above := h.retiredAbove[epoch]
	return above || epoch != 0 && epoch < h.retiredBelow
}

// HubOption configures the hub.
type HubOption func(*Hub)

// WithForwardDelay delays every forward to the i-th session (sessions
// are numbered in creation order; a resumed session keeps its number).
func WithForwardDelay(f func(sessionIndex int) time.Duration) HubOption {
	return func(h *Hub) { h.delay = f }
}

// LinkFault decides whether the forward of one frame of the given round
// (the round its header carries) from the from-th to the to-th session is
// suppressed or doubled.
type LinkFault func(round, from, to int) (drop, dup bool)

// WithForwardFault injects loss and duplication at the relay, scoped by
// instance epoch: the hub asks f once per broadcast frame for the fault of
// the frame's epoch (the one it already parses for RetireEpoch; nil means
// fault-free) and consults that per receiver with the frame's round.
// Dropped frames stay in the hub log — a late joiner still receives them
// in the replay, mirroring the scenario semantics that loss hits
// deliveries, not the broadcast itself. Crash and partition dimensions
// are the caller's concern (crashes stop nodes, and the caller can
// realize a partition by dropping all cross-block forwards). f runs under
// the hub lock: it must not block or call back into the hub.
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
// resume, so the drop is flow control, not data loss). A detached session
// gets the same window again and is then released (see Hub).
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
		ln:           ln,
		sessions:     make(map[uint64]*session),
		pending:      make(map[net.Conn]struct{}),
		logs:         make(map[uint64][][]byte),
		retiredBelow: 1,
		retiredAbove: make(map[uint64]struct{}),
		stop:         make(chan struct{}),
		// The incarnation keeps tokens from colliding across hub restarts
		// on the same address: a node resuming into a restarted hub must
		// never alias another node's fresh session.
		incarnation: uint64(time.Now().UnixNano()) << 16,
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

// RetireEpoch declares a multiplexed instance epoch finished: its log is
// dropped — so fresh sessions and late joiners replay only live epochs —
// and any straggler broadcast tagged with it is suppressed instead of
// logged. Retirement is what keeps a long-lived multiplexing hub's log
// proportional to the *in-flight* instances rather than to everything it
// ever carried.
//
// Epoch 0 (bytes that are not a data frame) cannot be retired; calls for
// it are no-ops. Already-established sessions keep the epoch's frames in
// their streams, which are position-addressed for resumption; those go
// once the node reports them received, like every other frame.
func (h *Hub) RetireEpoch(epoch uint64) {
	if epoch == 0 {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed || h.isRetired(epoch) {
		return
	}
	h.retiredAbove[epoch] = struct{}{}
	for _, ok := h.retiredAbove[h.retiredBelow]; ok; _, ok = h.retiredAbove[h.retiredBelow] {
		delete(h.retiredAbove, h.retiredBelow)
		h.retiredBelow++
	}
	h.stats.EpochsRetired++
	h.stats.RetiredFrames += len(h.logs[epoch])
	delete(h.logs, epoch)
	h.logOrder = slices.DeleteFunc(h.logOrder, func(e uint64) bool { return e == epoch })
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
// the hello deadline — closes it. The connection is read through one
// buffered reader for its whole life: the one the Hello came through is
// the one readLoop continues on, so bytes the node sent right behind its
// Hello are never stranded.
func (h *Hub) handshake(conn net.Conn) {
	defer h.wg.Done()
	br := bufio.NewReader(conn)
	_ = conn.SetReadDeadline(time.Now().Add(h.helloDeadline))
	first, err := wire.ReadFrame(br)
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
		// The cursor is the peer's claim: clamp it to the queue as a
		// uint64, before it can turn into a negative index.
		cur := s.end()
		if hello.Cursor < uint64(cur) {
			cur = max(int(hello.Cursor), s.base)
		}
		s.cur = cur
		h.stats.Reconnects++
		h.stats.ReplayedFrames += s.end() - cur
		welcome = wire.Welcome{
			Token:       s.token,
			ResumeFrom:  uint64(cur),
			Pending:     uint64(s.end() - cur),
			Incarnation: h.incarnation,
		}
	} else {
		// Fresh session (or a resume for a token this hub does not know —
		// issued before a restart, or released): every live epoch's log is
		// the replay, exactly as for a late joiner.
		s = &session{index: h.stats.Sessions, cond: sync.NewCond(&h.mu)}
		for _, epoch := range h.logOrder {
			s.sent = append(s.sent, h.logs[epoch]...)
		}
		h.stats.Sessions++
		s.token = h.incarnation + uint64(h.stats.Sessions)
		h.sessions[s.token] = s
		welcome = wire.Welcome{Token: s.token, Pending: uint64(len(s.sent)), Incarnation: h.incarnation}
	}
	s.conn = conn
	s.hwmSince = time.Time{}
	s.hbSeq, s.hbAcked, s.misses = 0, 0, 0
	h.mu.Unlock()

	// The Welcome must precede every replayed frame; this connection's
	// write loop starts only below, so a direct write is ordered.
	if err := s.write(conn, wire.EncodeWelcome(welcome)); err != nil {
		h.detach(s, conn)
		return
	}

	h.wg.Add(2)
	go h.readLoop(s, conn, br)
	go h.writeLoop(s, conn)
}

// readLoop pulls frames off one connection through its handshake reader:
// control frames are consumed, data frames fan out.
func (h *Hub) readLoop(s *session, conn net.Conn, br *bufio.Reader) {
	defer h.wg.Done()
	defer h.detach(s, conn)
	for {
		frame, err := wire.ReadFrame(br)
		if err != nil {
			return // EOF or broken pipe: the node left
		}
		if kind, ok := wire.ControlKind(frame); ok {
			if kind == wire.ControlHeartbeatAck {
				if ack, err := wire.DecodeHeartbeatAck(frame); err == nil {
					h.noteAck(s, ack)
				}
			}
			continue // control frames are never relayed
		}
		h.broadcast(s, frame)
	}
}

// noteAck applies a heartbeat ack or cursor report from s's node. It
// releases h.mu by defer, as relay does: a panic under the lock must reach
// readLoop's deferred detach with the lock free, or detach would block on
// it and the hub would hang instead of crashing.
func (h *Hub) noteAck(s *session, ack wire.Heartbeat) {
	h.mu.Lock()
	defer h.mu.Unlock()
	// Seq 0 is the cursor report a node sends beside each add, not a
	// probe's ack (probes count from 1).
	if ack.Seq != 0 {
		// Ignore acks from before a resumption (their seq outruns this
		// attachment's probe counter).
		if ack.Seq <= s.hbSeq && ack.Seq > s.hbAcked {
			s.hbAcked = ack.Seq
		}
		s.misses = 0
	}
	s.trim(ack.Cursor)
}

// victim is a session's attachment that relay found overwhelmed.
type victim struct {
	s    *session
	conn net.Conn
}

// broadcast relays one data frame and then detaches the attachments it
// overwhelmed, outside h.mu.
func (h *Hub) broadcast(from *session, frame []byte) {
	for _, v := range h.relay(from, frame) {
		h.detach(v.s, v.conn)
	}
}

// relay logs one data frame, queues it for every other session, and
// queues its sender's mark. It returns the attachments to detach.
func (h *Hub) relay(from *session, frame []byte) (overwhelmed []victim) {
	epoch, round, isData := wire.DataFrameHeader(frame) // non-data bytes count as epoch 0, round 0
	h.mu.Lock()
	defer h.mu.Unlock()
	if isData {
		from.marks = append(from.marks, queuedMark{pos: from.end(), mark: wire.Mark{Epoch: epoch, Round: round}})
		from.cond.Signal()
	}
	if h.isRetired(epoch) {
		// A straggler from a finished instance: suppress it entirely —
		// logging it would replay dead traffic to every future session.
		h.stats.RetiredFrames++
		return nil
	}
	log, live := h.logs[epoch]
	if !live {
		h.logOrder = append(h.logOrder, epoch)
	}
	h.logs[epoch] = append(log, frame)
	var fault LinkFault
	if h.fault != nil {
		fault = h.fault(epoch)
	}
	for _, s := range h.sessions {
		if s == from {
			continue // the sender's own payload is already in its inbox
		}
		if fault != nil {
			drop, dup := fault(round, from.index, s.index)
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
		// Still overwhelmed a window after that, detached, the session is
		// released: should its node return, it joins afresh and late.
		if s.end()-s.cur > h.highWater {
			if s.hwmSince.IsZero() {
				s.hwmSince = time.Now()
			} else if time.Since(s.hwmSince) > h.graceWindow {
				if s.conn == nil {
					delete(h.sessions, s.token)
				} else {
					h.stats.OverwhelmedDrops++
					h.stats.DroppedConns++
					overwhelmed = append(overwhelmed, victim{s, s.conn})
				}
			}
		}
		s.cond.Signal()
	}
	return overwhelmed
}

// maxBatch caps the frames one writeLoop pass takes off its session's
// queue: one writev of at most 2·maxBatch vectors (a header and a body per
// frame), far below the kernel's IOV_MAX.
const maxBatch = 64

// writeLoop delivers a session's queue to its current connection,
// advancing the shared cursor: every pending frame, up to maxBatch, under
// one lock and in one write (see writeBatch), with the session's due marks
// in place among them. It exits when the connection is replaced, fails,
// or the hub closes.
func (h *Hub) writeLoop(s *session, conn net.Conn) {
	defer h.wg.Done()
	var (
		batch [][]byte
		marks []byte // the batch's encoded marks, one buffer per pass
	)
	for {
		h.mu.Lock()
		for s.conn == conn && !h.closed && s.cur >= s.end() && len(s.marks) == 0 {
			s.cond.Wait()
		}
		if s.conn != conn || h.closed {
			h.mu.Unlock()
			return
		}
		// The batch copies the frame references it takes, so it is read
		// outside the lock while broadcast appends and trim compacts.
		end := min(s.end(), s.cur+maxBatch)
		batch, marks = batch[:0], marks[:0]
		taken := 0
		for {
			for ; taken < len(s.marks) && s.marks[taken].pos <= s.cur; taken++ {
				at := len(marks)
				marks = wire.AppendMark(marks, s.marks[taken].mark)
				batch = append(batch, marks[at:len(marks):len(marks)])
			}
			if s.cur >= end {
				break
			}
			next := end
			if taken < len(s.marks) {
				next = min(next, s.marks[taken].pos)
			}
			batch = append(batch, s.sent[s.cur-s.base:next-s.base]...)
			s.cur = next
		}
		s.marks = s.marks[:copy(s.marks, s.marks[taken:])]
		if s.end()-s.cur <= h.highWater {
			s.hwmSince = time.Time{} // drained below the mark: lag forgiven
		}
		h.mu.Unlock()
		if err := h.writeBatch(s, conn, batch); err != nil {
			h.detach(s, conn)
			return
		}
	}
}

// writeBatch writes frames in order with as few writes as the forward
// delay allows. The delay function is asked once per data frame, in order,
// as it was when every frame had its own write; a frame with a positive
// delay is written after its own sleep, so it closes the run of frames
// before it, which go out together first. Marks take no delay of their
// own: each follows the frames before it.
func (h *Hub) writeBatch(s *session, conn net.Conn, frames [][]byte) error {
	start := 0
	if h.delay != nil {
		for i, frame := range frames {
			if wire.IsControlFrame(frame) {
				continue
			}
			if d := h.delay(s.index); d > 0 {
				if err := s.write(conn, frames[start:i]...); err != nil {
					return err
				}
				time.Sleep(d)
				start = i
			}
		}
	}
	return s.write(conn, frames[start:]...)
}

// write writes frames to conn in one vectored write, serialized with the
// session's other writers (the handshake's Welcome, heartbeats).
func (s *session) write(conn net.Conn, frames ...[]byte) error {
	if len(frames) == 0 {
		return nil
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	return wire.WriteFrame(conn, frames...)
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
			if err := p.s.write(p.conn, wire.EncodeHeartbeat(wire.Heartbeat{Seq: p.seq})); err != nil {
				h.detach(p.s, p.conn)
			}
		}
	}
}

// detach severs one attachment. The session stays resumable: its queue
// keeps growing, and nothing in it is reported received until the node is
// back. The grace window starts again here: a session still past the
// high-water mark a window later is released (see Hub).
func (h *Hub) detach(s *session, conn net.Conn) {
	h.mu.Lock()
	if s.conn == conn {
		s.conn = nil
		s.hwmSince = time.Time{}
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
// replay cursor (0, 0 for a fresh session). The connection must be read
// through the returned reader for the rest of its life: the hub writes
// the replay right behind the Welcome, so the reader may already hold
// frames.
func dialHub(ctx context.Context, addr string, token, cursor uint64) (net.Conn, *bufio.Reader, wire.Welcome, error) {
	dctx, cancel := context.WithTimeout(ctx, dialTimeout)
	defer cancel()
	var d net.Dialer
	conn, err := d.DialContext(dctx, "tcp", addr)
	if err != nil {
		return nil, nil, wire.Welcome{}, err
	}
	fail := func(err error) (net.Conn, *bufio.Reader, wire.Welcome, error) {
		_ = conn.Close()
		return nil, nil, wire.Welcome{}, err
	}
	if err := wire.WriteFrame(conn, wire.EncodeHello(wire.Hello{
		Token:  token,
		Cursor: cursor,
	})); err != nil {
		return fail(err)
	}
	br := bufio.NewReader(conn)
	_ = conn.SetReadDeadline(time.Now().Add(dialTimeout))
	var welcome wire.Welcome
	for {
		frame, err := wire.ReadFrame(br)
		if err != nil {
			return fail(fmt.Errorf("awaiting welcome: %w", err))
		}
		kind, ok := wire.ControlKind(frame)
		if !ok {
			return fail(fmt.Errorf("awaiting welcome: got a data frame"))
		}
		if kind != wire.ControlWelcome {
			continue // e.g. a heartbeat that raced the handshake
		}
		if welcome, err = wire.DecodeWelcome(frame); err != nil {
			return fail(fmt.Errorf("awaiting welcome: %w", err))
		}
		break
	}
	_ = conn.SetReadDeadline(time.Time{})
	return conn, br, welcome, nil
}
