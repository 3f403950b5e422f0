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
	"fmt"
	"io"

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

// readRound decodes a round number (uvarint bounded by MaxRound).
func readRound(r *bytes.Reader) (uint64, error) {
	n, err := binary.ReadUvarint(r)
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

func readUvarint(r *bytes.Reader) (uint64, error) {
	n, err := binary.ReadUvarint(r)
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

func readValue(r *bytes.Reader) (values.Value, error) {
	n, err := readUvarint(r)
	if err != nil {
		return "", err
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", fmt.Errorf("wire: truncated value: %w", err)
	}
	// Interning collapses the thousands of copies of each proposal value
	// that arrive across frames onto one shared backing allocation.
	return values.Intern(values.Value(buf)), nil
}

func writeSet(w *bytes.Buffer, s values.Set) {
	sorted := s.Sorted()
	writeUvarint(w, uint64(len(sorted)))
	for _, v := range sorted {
		writeValue(w, v)
	}
}

func readSet(r *bytes.Reader) (values.Set, error) {
	n, err := readUvarint(r)
	if err != nil {
		return values.Set{}, err
	}
	out := values.NewSet()
	for i := uint64(0); i < n; i++ {
		v, err := readValue(r)
		if err != nil {
			return values.Set{}, err
		}
		out.Add(v)
	}
	return out, nil
}

func writeHistory(w *bytes.Buffer, h values.History) {
	writeUvarint(w, uint64(h.Len()))
	for _, v := range h.Values() {
		writeValue(w, v)
	}
}

func readHistory(r *bytes.Reader) (values.History, error) {
	n, err := readUvarint(r)
	if err != nil {
		return values.History{}, err
	}
	var out values.History
	for i := uint64(0); i < n; i++ {
		v, err := readValue(r)
		if err != nil {
			return values.History{}, err
		}
		out = out.Append(v)
	}
	return out, nil
}

func writeCounters(w *bytes.Buffer, c values.Counters) {
	hs := c.Histories()
	writeUvarint(w, uint64(len(hs)))
	for _, h := range hs {
		writeHistory(w, h)
		writeUvarint(w, uint64(c.Get(h)))
	}
}

func readCounters(r *bytes.Reader) (values.Counters, error) {
	n, err := readUvarint(r)
	if err != nil {
		return values.Counters{}, err
	}
	out := values.NewCounters()
	for i := uint64(0); i < n; i++ {
		h, err := readHistory(r)
		if err != nil {
			return values.Counters{}, err
		}
		cnt, err := readUvarint(r)
		if err != nil {
			return values.Counters{}, err
		}
		out.Set(h, int(cnt))
	}
	return out, nil
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

func decodePayload(r *bytes.Reader) (giraf.Payload, error) {
	tag, err := r.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("wire: truncated payload tag: %w", err)
	}
	switch tag {
	case tagSetPayload:
		s, err := readSet(r)
		if err != nil {
			return nil, err
		}
		return core.SetPayload{Proposed: s}, nil
	case tagESSPayload:
		s, err := readSet(r)
		if err != nil {
			return nil, err
		}
		h, err := readHistory(r)
		if err != nil {
			return nil, err
		}
		c, err := readCounters(r)
		if err != nil {
			return nil, err
		}
		return core.MakeESSPayload(s, h, c), nil
	default:
		return nil, fmt.Errorf("wire: unknown payload tag %d", tag)
	}
}

// WriteFrame writes a length-prefixed frame to w.
func WriteFrame(w io.Writer, data []byte) error {
	if len(data) > MaxElement {
		return fmt.Errorf("wire: frame of %d bytes exceeds limit %d", len(data), MaxElement)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(data)))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("wire: writing frame header: %w", err)
	}
	if _, err := w.Write(data); err != nil {
		return fmt.Errorf("wire: writing frame body: %w", err)
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
