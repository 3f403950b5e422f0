package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// Control frames are the wire-level session plane: a reconnecting node
// resumes a hub session (Hello/Welcome carry a session token and a replay
// cursor), hub-side heartbeats distinguish a slow consumer from a dead
// one (Heartbeat/HeartbeatAck), and a Mark tells a sender that its frame
// is in the hub log. Control frames ride the same
// length-prefixed framing as envelopes but are consumed by the endpoints
// themselves — they are never relayed, never enter the hub log, and never
// advance a session's replay cursor, so the anonymity argument is
// untouched: a control frame describes one connection's bookkeeping, not
// any process's identity or state.
//
// Layout: [controlMagic][controlVersion][kind][uvarint fields…]. A
// well-formed envelope frame from our own encoders cannot start with
// controlMagic (a delta frame leads with 0xD6); both decoders
// reject the other's frames loudly rather than misparse.
const (
	controlMagic   byte = 0xC7
	controlVersion byte = 1
)

// Control-frame kinds.
const (
	// ControlHello is sent by a node right after dialing: Token 0 asks for
	// a fresh session, a non-zero Token asks to resume that session from
	// Cursor (the count of data frames the node has already received).
	ControlHello byte = 1
	// ControlWelcome is the hub's reply: the session token to use from now
	// on and the authoritative resume position.
	ControlWelcome byte = 2
	// ControlHeartbeat is sent by the hub; a live node answers each one
	// with a ControlHeartbeatAck echoing the sequence number.
	ControlHeartbeat byte = 3
	// ControlHeartbeatAck is the node's answer to a ControlHeartbeat,
	// carrying its receive cursor.
	ControlHeartbeatAck byte = 4
	// ControlMark is sent by the hub to a data frame's own sender, in that
	// sender's stream right behind every frame the hub queued to it before
	// logging the sender's: the weak-set add the frame was is complete.
	ControlMark byte = 5
)

// Hello asks the hub for a session: fresh (Token 0) or resumed.
type Hello struct {
	// Token is the session to resume; 0 requests a fresh session.
	Token uint64
	// Cursor is the number of data frames the node has received on the
	// session so far — the hub replays everything from there.
	Cursor uint64
}

// Welcome is the hub's handshake reply.
type Welcome struct {
	// Token names the session; a node that asked to resume an unknown
	// token (for example after a hub restart) receives a fresh one here
	// and must adopt it.
	Token uint64
	// ResumeFrom is the authoritative replay position: the node's receive
	// counter must be reset to it (it is 0 for a fresh session).
	ResumeFrom uint64
	// Pending is the number of logged frames about to be replayed —
	// surfaced so nodes can count ReplayedFrames without guessing.
	Pending uint64
	// Incarnation names the hub process, drawn when it started. A node
	// that sees it change has lost the log its earlier adds completed in.
	Incarnation uint64
}

// Mark reports that the sender's data frame of the given epoch and round
// entered the hub log.
type Mark struct {
	Epoch uint64
	Round int
}

// Heartbeat is one hub liveness probe (or its ack, echoing Seq).
type Heartbeat struct {
	// Seq orders probes within one connection; acks echo it.
	Seq uint64
	// Cursor, on an ack only, is the node's count of data frames received
	// on the session: the hub may forget every frame below it.
	Cursor uint64
}

// IsControlFrame reports whether frame is a control frame (of any kind).
func IsControlFrame(frame []byte) bool {
	return len(frame) >= 3 && frame[0] == controlMagic && frame[1] == controlVersion
}

// ControlKind returns the control-frame kind; ok is false when frame is
// not a control frame at all.
func ControlKind(frame []byte) (kind byte, ok bool) {
	if !IsControlFrame(frame) {
		return 0, false
	}
	return frame[2], true
}

// encodeControl builds [magic][version][kind][uvarint fields…].
func encodeControl(kind byte, fields ...uint64) []byte {
	var w bytes.Buffer
	w.WriteByte(controlMagic)
	w.WriteByte(controlVersion)
	w.WriteByte(kind)
	for _, f := range fields {
		writeUvarint(&w, f)
	}
	return w.Bytes()
}

// decodeControl parses the frame header and the expected field count.
// Fields are plain uvarints: they are counters and tokens, not lengths,
// so MaxElement does not apply (a uvarint is self-limiting at 10 bytes).
func decodeControl(frame []byte, kind byte, nFields int) ([]uint64, error) {
	got, ok := ControlKind(frame)
	if !ok {
		return nil, fmt.Errorf("%w: not a control frame", ErrBadFrame)
	}
	if got != kind {
		return nil, fmt.Errorf("%w: control kind %d, want %d", ErrBadFrame, got, kind)
	}
	r := bytes.NewReader(frame[3:])
	fields := make([]uint64, nFields)
	for i := range fields {
		n, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, fmt.Errorf("%w: truncated control field %d: %v", ErrBadFrame, i, err)
		}
		fields[i] = n
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after control frame", ErrBadFrame, r.Len())
	}
	return fields, nil
}

// EncodeHello serializes a Hello frame.
func EncodeHello(h Hello) []byte { return encodeControl(ControlHello, h.Token, h.Cursor) }

// DecodeHello parses a Hello frame.
func DecodeHello(frame []byte) (Hello, error) {
	f, err := decodeControl(frame, ControlHello, 2)
	if err != nil {
		return Hello{}, err
	}
	return Hello{Token: f[0], Cursor: f[1]}, nil
}

// EncodeWelcome serializes a Welcome frame.
func EncodeWelcome(w Welcome) []byte {
	return encodeControl(ControlWelcome, w.Token, w.ResumeFrom, w.Pending, w.Incarnation)
}

// DecodeWelcome parses a Welcome frame.
func DecodeWelcome(frame []byte) (Welcome, error) {
	f, err := decodeControl(frame, ControlWelcome, 4)
	if err != nil {
		return Welcome{}, err
	}
	return Welcome{Token: f[0], ResumeFrom: f[1], Pending: f[2], Incarnation: f[3]}, nil
}

// AppendMark appends a Mark frame to dst: the hub's write loop encodes
// marks into one buffer per batch.
func AppendMark(dst []byte, m Mark) []byte {
	dst = append(dst, controlMagic, controlVersion, ControlMark)
	dst = binary.AppendUvarint(dst, m.Epoch)
	return binary.AppendUvarint(dst, uint64(m.Round))
}

// DecodeMark parses a Mark frame, bounding its epoch and round as a data
// frame's header is bounded.
func DecodeMark(frame []byte) (Mark, error) {
	f, err := decodeControl(frame, ControlMark, 2)
	if err != nil {
		return Mark{}, err
	}
	if f[0] == 0 || f[0] > MaxEpoch || f[1] > MaxRound {
		return Mark{}, fmt.Errorf("%w: mark epoch %d round %d out of range", ErrBadFrame, f[0], f[1])
	}
	return Mark{Epoch: f[0], Round: int(f[1])}, nil
}

// EncodeHeartbeat serializes a Heartbeat probe.
func EncodeHeartbeat(h Heartbeat) []byte { return encodeControl(ControlHeartbeat, h.Seq) }

// DecodeHeartbeat parses a Heartbeat probe.
func DecodeHeartbeat(frame []byte) (Heartbeat, error) {
	f, err := decodeControl(frame, ControlHeartbeat, 1)
	if err != nil {
		return Heartbeat{}, err
	}
	return Heartbeat{Seq: f[0]}, nil
}

// EncodeHeartbeatAck serializes a heartbeat ack.
func EncodeHeartbeatAck(h Heartbeat) []byte {
	return encodeControl(ControlHeartbeatAck, h.Seq, h.Cursor)
}

// DecodeHeartbeatAck parses a heartbeat ack.
func DecodeHeartbeatAck(frame []byte) (Heartbeat, error) {
	f, err := decodeControl(frame, ControlHeartbeatAck, 2)
	if err != nil {
		return Heartbeat{}, err
	}
	return Heartbeat{Seq: f[0], Cursor: f[1]}, nil
}
