package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"anonconsensus/internal/giraf"
	"anonconsensus/internal/values"
)

// epochMagic tags a delta envelope body, the one data-frame form on the
// wire: many in-flight instances share one hub connection and each frame
// names its instance epoch. Layout: 0xD6, a uvarint epoch (≥ 1), then
// round, set fingerprint, references, new payloads. Any other leading
// byte — the retired untagged 0xD5 form included — is ErrBadFrame. The
// control plane keeps its own magic (0xC7) and is untouched.
const epochMagic byte = 0xD6

// MaxEpoch bounds instance epochs on the wire, for the same reason
// MaxRound bounds rounds: a corrupt varint must not smuggle absurd
// values past the decoder.
const MaxEpoch uint64 = 1 << 40

// ErrBadFrame wraps all content-level decode failures (corrupt body,
// unknown tag, unresolvable delta reference), as opposed to transport I/O
// errors. Readers skip bad frames — crash-fault model: a peer producing
// garbage is treated as crashed, not as fatal to the local node.
var ErrBadFrame = errors.New("wire: bad frame")

func writeFingerprint(w *bytes.Buffer, fp values.Fingerprint) {
	var buf [16]byte
	binary.BigEndian.PutUint64(buf[:8], fp.Hi)
	binary.BigEndian.PutUint64(buf[8:], fp.Lo)
	w.Write(buf[:])
}

// readFingerprint reads a fingerprint straight out of body, the slice r
// reads, and advances r past it: no scratch buffer to move to the heap.
func readFingerprint(body []byte, r *bytes.Reader) (values.Fingerprint, error) {
	if r.Len() < 16 {
		return values.Fingerprint{}, fmt.Errorf("%w: truncated fingerprint: %d bytes left", ErrBadFrame, r.Len())
	}
	b := body[len(body)-r.Len():]
	if _, err := r.Seek(16, io.SeekCurrent); err != nil {
		return values.Fingerprint{}, fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	return values.Fingerprint{
		Hi: binary.BigEndian.Uint64(b[:8]),
		Lo: binary.BigEndian.Uint64(b[8:16]),
	}, nil
}

// EncodeDeltaEnvelopeEpoch serializes an envelope already in delta form
// (giraf.DeltaTracker.Shrink output), tagged with an instance epoch in
// [1, MaxEpoch]: new payloads travel tagged and in full, previously-sent
// payloads travel as 16-byte fingerprint references, and the whole-set
// fingerprint rides along so receivers can skip re-merging identical sets.
func EncodeDeltaEnvelopeEpoch(env giraf.Envelope, epoch uint64) ([]byte, error) {
	if epoch == 0 || epoch > MaxEpoch {
		return nil, fmt.Errorf("wire: epoch %d outside [1, %d]", epoch, MaxEpoch)
	}
	var w bytes.Buffer
	w.WriteByte(epochMagic)
	writeUvarint(&w, epoch)
	writeUvarint(&w, uint64(env.Round))
	writeFingerprint(&w, env.SetFingerprint)
	writeUvarint(&w, uint64(len(env.Refs)))
	for _, fp := range env.Refs {
		writeFingerprint(&w, fp)
	}
	writeUvarint(&w, uint64(len(env.Payloads)))
	for _, p := range env.Payloads {
		if err := encodePayload(&w, p); err != nil {
			return nil, err
		}
	}
	return w.Bytes(), nil
}

// DecodeDeltaEnvelopeEpoch parses a data frame and returns the envelope
// alongside its instance epoch (≥ 1). The result is still in delta form;
// resolve it with a giraf.ResolveTable.
func DecodeDeltaEnvelopeEpoch(data []byte) (giraf.Envelope, uint64, error) {
	if len(data) == 0 || data[0] != epochMagic {
		return giraf.Envelope{}, 0, fmt.Errorf("%w: not a delta envelope", ErrBadFrame)
	}
	body := data[1:]
	r := bytes.NewReader(body)
	epoch, err := readEpoch(r)
	if err != nil {
		return giraf.Envelope{}, 0, err
	}
	round, err := readRound(r)
	if err != nil {
		return giraf.Envelope{}, 0, fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	env := giraf.Envelope{Round: int(round)}
	if env.SetFingerprint, err = readFingerprint(body, r); err != nil {
		return giraf.Envelope{}, 0, err
	}
	nRefs, err := readUvarint(r)
	if err != nil {
		return giraf.Envelope{}, 0, fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	for i := uint64(0); i < nRefs; i++ {
		fp, err := readFingerprint(body, r)
		if err != nil {
			return giraf.Envelope{}, 0, err
		}
		env.Refs = append(env.Refs, fp)
	}
	nNew, err := readUvarint(r)
	if err != nil {
		return giraf.Envelope{}, 0, fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	for i := uint64(0); i < nNew; i++ {
		p, err := decodePayload(r)
		if err != nil {
			return giraf.Envelope{}, 0, fmt.Errorf("%w: %v", ErrBadFrame, err)
		}
		env.Payloads = append(env.Payloads, p)
	}
	if r.Len() != 0 {
		return giraf.Envelope{}, 0, fmt.Errorf("%w: %d trailing bytes after delta envelope", ErrBadFrame, r.Len())
	}
	return env, epoch, nil
}

// DataFrameEpoch peeks a frame's instance epoch without decoding its
// body. ok is false when the frame is not a data frame (control frames,
// garbage) or its epoch tag is malformed. Hubs use this to epoch-scope
// their replay log and fault hook without paying for a full decode.
func DataFrameEpoch(frame []byte) (epoch uint64, ok bool) {
	if len(frame) == 0 || frame[0] != epochMagic {
		return 0, false
	}
	ep, err := readEpoch(bytes.NewReader(frame[1:]))
	return ep, err == nil
}

// readEpoch reads and bounds a frame's epoch tag.
func readEpoch(r *bytes.Reader) (uint64, error) {
	epoch, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, fmt.Errorf("%w: truncated epoch: %v", ErrBadFrame, err)
	}
	if epoch == 0 || epoch > MaxEpoch {
		return 0, fmt.Errorf("%w: epoch %d outside [1, %d]", ErrBadFrame, epoch, MaxEpoch)
	}
	return epoch, nil
}

// EnvelopeWriter writes delta-compressed envelope frames to one reliable
// FIFO stream. A payload goes out in full whenever it was not part of the
// previous frame — the full-set fallback that keeps late joiners and the
// reliable-link assumption intact, because a hub replays the whole frame
// log to every new connection in order and references never reach past
// the sender's previous frame. Not safe for concurrent use.
type EnvelopeWriter struct {
	w       io.Writer
	tracker *giraf.DeltaTracker
	epoch   uint64

	// FramesOut / BytesOut / PayloadsElided expose cheap counters so
	// transports can report how much the delta plane saves.
	FramesOut      int
	BytesOut       int
	PayloadsElided int
}

// NewEnvelopeWriterEpoch returns a writer with empty delta state whose
// frames carry the given instance epoch (≥ 1). Each epoch
// is its own delta stream: the writer's tracker spans only this epoch's
// frames, matching the per-epoch ResolveTable on the receiving side.
func NewEnvelopeWriterEpoch(w io.Writer, epoch uint64) *EnvelopeWriter {
	return &EnvelopeWriter{w: w, tracker: giraf.NewDeltaTracker(), epoch: epoch}
}

// WriteEnvelope shrinks env against the stream history and writes one
// frame.
func (ew *EnvelopeWriter) WriteEnvelope(env giraf.Envelope) error {
	delta := ew.tracker.Shrink(env)
	data, err := EncodeDeltaEnvelopeEpoch(delta, ew.epoch)
	if err != nil {
		return err
	}
	ew.FramesOut++
	ew.BytesOut += len(data)
	ew.PayloadsElided += len(delta.Refs)
	return WriteFrame(ew.w, data)
}
