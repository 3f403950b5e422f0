// Package wire is the binary wire format for GIRAF envelopes and the
// payload types of Algorithms 2–4, used by the TCP transport (package
// tcpnet). Values, sets, histories and counter tables are length-prefixed
// (uvarint) so the encoding is unambiguous and self-delimiting; envelopes
// carry a payload-type tag so one connection can transport either
// algorithm family.
//
// The format is deliberately identity-free: frames carry no sender field
// of any kind — anonymity holds on the wire, not just in the algorithm.
package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"anonconsensus/internal/core"
	"anonconsensus/internal/giraf"
	"anonconsensus/internal/values"
)

// Payload type tags.
const (
	tagSetPayload byte = 1 // core.SetPayload (Algorithms 2 and 4)
	tagESSPayload byte = 2 // core.ESSPayload (Algorithm 3)
)

// MaxElement bounds any single length field to keep a corrupt or hostile
// frame from demanding gigabytes.
const MaxElement = 1 << 20

// MaxRound bounds round numbers on the wire. Rounds are not lengths, so
// MaxElement would be wrong for them: a node ticking every few
// milliseconds passes 2^20 rounds within hours, and rejecting its frames
// would silently deafen every receiver. 2^40 rounds is ~70 years at 2ms.
const MaxRound = 1 << 40

// decoder reads a frame body front to back. It is the unread rest of the
// body and nothing else, so a decode keeps it on the stack, and each value
// is copied once, straight out of the body.
type decoder struct{ b []byte }

var errVarintOverflow = errors.New("varint overflows a 64-bit integer")

// uvarint reads one uvarint, unbounded.
func (d *decoder) uvarint() (uint64, error) {
	n, k := binary.Uvarint(d.b)
	switch {
	case k == 0:
		return 0, io.ErrUnexpectedEOF
	case k < 0:
		return 0, errVarintOverflow
	}
	d.b = d.b[k:]
	return n, nil
}

// readRound decodes a round number (uvarint bounded by MaxRound).
func readRound(d *decoder) (uint64, error) {
	n, err := d.uvarint()
	if err != nil {
		return 0, fmt.Errorf("wire: truncated round: %w", err)
	}
	if n > MaxRound {
		return 0, fmt.Errorf("wire: round %d exceeds limit %d", n, uint64(MaxRound))
	}
	return n, nil
}

func writeUvarint(w *bytes.Buffer, n uint64) {
	var buf [binary.MaxVarintLen64]byte
	w.Write(buf[:binary.PutUvarint(buf[:], n)])
}

func readUvarint(d *decoder) (uint64, error) {
	n, err := d.uvarint()
	if err != nil {
		return 0, fmt.Errorf("wire: truncated varint: %w", err)
	}
	if n > MaxElement {
		return 0, fmt.Errorf("wire: length %d exceeds limit %d", n, MaxElement)
	}
	return n, nil
}

func writeValue(w *bytes.Buffer, v values.Value) {
	writeUvarint(w, uint64(len(v)))
	w.WriteString(string(v))
}

func readValue(d *decoder) (values.Value, error) {
	n, err := readUvarint(d)
	if err != nil {
		return "", err
	}
	if n > uint64(len(d.b)) {
		return "", fmt.Errorf("wire: truncated value: %w", io.ErrUnexpectedEOF)
	}
	v := values.Value(d.b[:n])
	d.b = d.b[n:]
	return v, nil
}

func writeSet(w *bytes.Buffer, s values.Set) {
	writeUvarint(w, uint64(s.Len()))
	for v := range s.All() {
		writeValue(w, v)
	}
}

// readSet decodes a set. The values are collected first and the set built
// once, by NewSet, so a frame that lists them out of order or repeated
// still yields the canonical set.
func readSet(d *decoder) (values.Set, error) {
	n, err := readUvarint(d)
	if err != nil {
		return values.Set{}, err
	}
	var buf [16]values.Value
	vs := buf[:0]
	for i := uint64(0); i < n; i++ {
		v, err := readValue(d)
		if err != nil {
			return values.Set{}, err
		}
		vs = append(vs, v)
	}
	return values.NewSet(vs...), nil
}

func writeHistory(w *bytes.Buffer, h values.History) {
	writeUvarint(w, uint64(h.Len()))
	for _, v := range h.Values() {
		writeValue(w, v)
	}
}

func readHistory(d *decoder) (values.History, error) {
	n, err := readUvarint(d)
	if err != nil {
		return values.History{}, err
	}
	var out values.History
	for i := uint64(0); i < n; i++ {
		v, err := readValue(d)
		if err != nil {
			return values.History{}, err
		}
		out = out.Append(v)
	}
	return out, nil
}

func writeCounters(w *bytes.Buffer, c values.Counters) {
	writeUvarint(w, uint64(c.Len()))
	for h, n := range c.All() {
		writeHistory(w, h)
		writeUvarint(w, uint64(n))
	}
}

// readCounters decodes a counter table. The pairs are collected first and
// the table built once, by CountersOf, so a frame that lists them out of
// order, repeated or with zero counts still yields the canonical table.
func readCounters(d *decoder) (values.Counters, error) {
	n, err := readUvarint(d)
	if err != nil {
		return values.Counters{}, err
	}
	var hs []values.History
	var ns []int
	for i := uint64(0); i < n; i++ {
		h, err := readHistory(d)
		if err != nil {
			return values.Counters{}, err
		}
		cnt, err := readUvarint(d)
		if err != nil {
			return values.Counters{}, err
		}
		hs, ns = append(hs, h), append(ns, int(cnt))
	}
	return values.CountersOf(hs, ns), nil
}

// encodePayload appends one tagged payload.
func encodePayload(w *bytes.Buffer, p giraf.Payload) error {
	switch pay := p.(type) {
	case core.SetPayload:
		w.WriteByte(tagSetPayload)
		writeSet(w, pay.Proposed)
	case core.ESSPayload:
		w.WriteByte(tagESSPayload)
		writeSet(w, pay.Proposed)
		writeHistory(w, pay.History)
		writeCounters(w, pay.Counters)
	default:
		return fmt.Errorf("wire: unsupported payload type %T", p)
	}
	return nil
}

func decodePayload(d *decoder) (giraf.Payload, error) {
	if len(d.b) == 0 {
		return nil, fmt.Errorf("wire: truncated payload tag: %w", io.ErrUnexpectedEOF)
	}
	tag := d.b[0]
	d.b = d.b[1:]
	switch tag {
	case tagSetPayload:
		s, err := readSet(d)
		if err != nil {
			return nil, err
		}
		return core.SetPayload{Proposed: s}, nil
	case tagESSPayload:
		s, err := readSet(d)
		if err != nil {
			return nil, err
		}
		h, err := readHistory(d)
		if err != nil {
			return nil, err
		}
		c, err := readCounters(d)
		if err != nil {
			return nil, err
		}
		return core.MakeESSPayload(s, h, c), nil
	default:
		return nil, fmt.Errorf("wire: unknown payload tag %d", tag)
	}
}

// frameVec is WriteFrame's scratch: the frames' length headers, the
// vector that interleaves them with the bodies, and out, the copy of the
// vector's slice header that the vectored write consumes (so vec keeps its
// backing array). Pooled, so a write costs no allocation once the pool is
// warm.
type frameVec struct {
	hdrs []byte
	vec  net.Buffers
	out  net.Buffers
}

var frameVecs = sync.Pool{New: func() any { return new(frameVec) }}

// WriteFrame writes each of frames to w as one length-prefixed frame, all
// of them with one vectored write: a single writev when w is a net.Conn,
// one Write per header and body otherwise. With no frames it writes
// nothing.
func WriteFrame(w io.Writer, frames ...[]byte) error {
	fv := frameVecs.Get().(*frameVec)
	defer frameVecs.Put(fv)
	fv.hdrs = fv.hdrs[:0]
	for _, data := range frames {
		if len(data) > MaxElement {
			return fmt.Errorf("wire: frame of %d bytes exceeds limit %d", len(data), MaxElement)
		}
		fv.hdrs = binary.BigEndian.AppendUint32(fv.hdrs, uint32(len(data)))
	}
	// Slice the headers only once all are appended: an append may move them.
	fv.vec = fv.vec[:0]
	for i, data := range frames {
		fv.vec = append(fv.vec, fv.hdrs[4*i:4*i+4], data)
	}
	fv.out = fv.vec
	_, err := fv.out.WriteTo(w)
	clear(fv.vec) // drop the bodies: the pool must not pin them
	if err != nil {
		return fmt.Errorf("wire: writing frame: %w", err)
	}
	return nil
}

// ReadFrame reads one length-prefixed frame from r.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err // io.EOF passes through for clean shutdown
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxElement {
		return nil, fmt.Errorf("wire: frame length %d exceeds limit %d", n, MaxElement)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("wire: truncated frame: %w", err)
	}
	return buf, nil
}
