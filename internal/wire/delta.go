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

// readFingerprint reads a fingerprint straight out of the body.
func readFingerprint(d *decoder) (values.Fingerprint, error) {
	if len(d.b) < 16 {
		return values.Fingerprint{}, fmt.Errorf("%w: truncated fingerprint: %d bytes left", ErrBadFrame, len(d.b))
	}
	fp := values.Fingerprint{
		Hi: binary.BigEndian.Uint64(d.b[:8]),
		Lo: binary.BigEndian.Uint64(d.b[8:16]),
	}
	d.b = d.b[16:]
	return fp, nil
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
	d := decoder{b: data[1:]}
	epoch, err := readEpoch(&d)
	if err != nil {
		return giraf.Envelope{}, 0, err
	}
	round, err := readRound(&d)
	if err != nil {
		return giraf.Envelope{}, 0, fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	env := giraf.Envelope{Round: int(round)}
	if env.SetFingerprint, err = readFingerprint(&d); err != nil {
		return giraf.Envelope{}, 0, err
	}
	nRefs, err := readUvarint(&d)
	if err != nil {
		return giraf.Envelope{}, 0, fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	if nRefs > 0 {
		// A reference takes 16 bytes, so the body bounds the capacity
		// whatever count the frame claims.
		env.Refs = make([]values.Fingerprint, 0, min(nRefs, uint64(len(d.b)/16)))
	}
	for i := uint64(0); i < nRefs; i++ {
		fp, err := readFingerprint(&d)
		if err != nil {
			return giraf.Envelope{}, 0, err
		}
		env.Refs = append(env.Refs, fp)
	}
	nNew, err := readUvarint(&d)
	if err != nil {
		return giraf.Envelope{}, 0, fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	if nNew > 0 {
		// A payload takes at least its tag and a count.
		env.Payloads = make([]giraf.Payload, 0, min(nNew, uint64(len(d.b)/2)))
	}
	for i := uint64(0); i < nNew; i++ {
		p, err := decodePayload(&d)
		if err != nil {
			return giraf.Envelope{}, 0, fmt.Errorf("%w: %v", ErrBadFrame, err)
		}
		env.Payloads = append(env.Payloads, p)
	}
	if len(d.b) != 0 {
		return giraf.Envelope{}, 0, fmt.Errorf("%w: %d trailing bytes after delta envelope", ErrBadFrame, len(d.b))
	}
	return env, epoch, nil
}

// DataFrameHeader peeks a frame's instance epoch and round without
// decoding the rest of its body. ok is false (and epoch and round zero)
// when the frame is not a data frame (control frames, garbage) or its
// epoch or round tag is malformed. Hubs use this to epoch-scope their
// replay log and to key link faults by round without paying for a full
// decode.
func DataFrameHeader(frame []byte) (epoch uint64, round int, ok bool) {
	if len(frame) == 0 || frame[0] != epochMagic {
		return 0, 0, false
	}
	ep, n := binary.Uvarint(frame[1:])
	if n <= 0 || ep == 0 || ep > MaxEpoch {
		return 0, 0, false
	}
	r, m := binary.Uvarint(frame[1+n:])
	if m <= 0 || r > MaxRound {
		return 0, 0, false
	}
	return ep, int(r), true
}

// readEpoch reads and bounds a frame's epoch tag.
func readEpoch(d *decoder) (uint64, error) {
	epoch, err := d.uvarint()
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
