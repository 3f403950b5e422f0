package wire

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/iotest"

	"anonconsensus/internal/core"
	"anonconsensus/internal/giraf"
	"anonconsensus/internal/values"
)

// FuzzDecodeEnvelope: arbitrary bytes must never panic the payload codec
// behind the frame decoder, and anything it accepts must
// re-encode/decode to identical canonical payload keys (round-trip
// stability).
func FuzzDecodeEnvelope(f *testing.F) {
	seed, _ := EncodeDeltaEnvelopeEpoch(giraf.Envelope{
		Round: 3,
		Payloads: []giraf.Payload{
			core.SetPayload{Proposed: values.NewSet(values.Num(1), values.Num(2))},
			core.MakeESSPayload(values.NewSet(values.Num(1)), values.NewHistory(values.Num(1)), values.NewCounters()),
		},
	}, 1)
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{epochMagic, 0x01, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		env, epoch, err := DecodeDeltaEnvelopeEpoch(data)
		if err != nil {
			return
		}
		re, err := EncodeDeltaEnvelopeEpoch(env, epoch)
		if err != nil {
			t.Fatalf("re-encoding accepted envelope failed: %v", err)
		}
		env2, _, err := DecodeDeltaEnvelopeEpoch(re)
		if err != nil {
			t.Fatalf("decoding re-encoded envelope failed: %v", err)
		}
		if env2.Round != env.Round || len(env2.Payloads) != len(env.Payloads) {
			t.Fatal("round-trip changed envelope shape")
		}
		for i := range env.Payloads {
			if env.Payloads[i].PayloadKey() != env2.Payloads[i].PayloadKey() {
				t.Fatal("round-trip changed a canonical payload key")
			}
		}
	})
}

// FuzzDecodeDeltaEnvelope: the delta decoder and the cheap header peek
// must never panic and must agree on the epoch and round of whatever they
// accept, and accepted
// frames must round-trip with stable epoch, refs and fingerprints.
func FuzzDecodeDeltaEnvelope(f *testing.F) {
	full := giraf.Envelope{
		Round: 2,
		Payloads: []giraf.Payload{
			core.SetPayload{Proposed: values.NewSet(values.Num(7))},
		},
		SetFingerprint: values.FingerprintString("E"),
	}
	tracker := giraf.NewDeltaTracker()
	first, _ := EncodeDeltaEnvelopeEpoch(tracker.Shrink(full), 1)
	second, _ := EncodeDeltaEnvelopeEpoch(tracker.Shrink(full), 1) // all refs now
	epochTagged, _ := EncodeDeltaEnvelopeEpoch(giraf.Envelope{
		Round:          3,
		Payloads:       []giraf.Payload{core.SetPayload{Proposed: values.NewSet(values.Num(9))}},
		SetFingerprint: values.FingerprintString("F"),
	}, 42)
	f.Add(first)
	f.Add(second)
	f.Add(append([]byte{0xD5}, first[2:]...)) // the retired untagged form: rejected
	f.Add(epochTagged)
	f.Add([]byte{epochMagic, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		env, epoch, err := DecodeDeltaEnvelopeEpoch(data)
		if err != nil {
			return
		}
		peeked, round, ok := DataFrameHeader(data)
		if !ok || peeked != epoch || round != env.Round {
			t.Fatalf("DataFrameHeader = (%d, %d, %v), decoder said epoch %d round %d", peeked, round, ok, epoch, env.Round)
		}
		re, err := EncodeDeltaEnvelopeEpoch(env, epoch)
		if err != nil {
			t.Fatalf("re-encoding accepted delta envelope failed: %v", err)
		}
		env2, epoch2, err := DecodeDeltaEnvelopeEpoch(re)
		if err != nil || epoch2 != epoch {
			t.Fatalf("epoch round-trip failed: epoch %d → %d, err %v", epoch, epoch2, err)
		}
		if env2.Round != env.Round || len(env2.Refs) != len(env.Refs) ||
			len(env2.Payloads) != len(env.Payloads) || env2.SetFingerprint != env.SetFingerprint {
			t.Fatal("delta round-trip changed envelope shape")
		}
		for i := range env.Refs {
			if env.Refs[i] != env2.Refs[i] {
				t.Fatal("delta round-trip changed a reference fingerprint")
			}
		}
	})
}

// FuzzReadFrame: framing must reject garbage without panicking, and
// whatever it accepts must re-frame byte-identically.
func FuzzReadFrame(f *testing.F) {
	var framed bytes.Buffer
	_ = WriteFrame(&framed, []byte("hello"))
	f.Add(framed.Bytes())
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		body, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteFrame(&out, body); err != nil {
			t.Fatalf("re-framing accepted body failed: %v", err)
		}
		if !bytes.Equal(out.Bytes(), data[:out.Len()]) {
			t.Fatal("re-framing is not byte-identical to the accepted prefix")
		}
	})
}

// readFrames reads frames off r until the first error.
func readFrames(r io.Reader) ([][]byte, error) {
	var frames [][]byte
	for {
		frame, err := ReadFrame(r)
		if err != nil {
			return frames, err
		}
		frames = append(frames, frame)
	}
}

// FuzzReadFrames: a stream of concatenated frames read through one
// 16-byte bufio.Reader over a source that returns half of each request —
// so buffer refills land mid-header and mid-body — yields the frames, and
// the ending (clean EOF or not), that reading the bytes straight from
// memory yields; and the frames re-frame into the stream's accepted
// prefix.
func FuzzReadFrames(f *testing.F) {
	var stream bytes.Buffer
	_ = WriteFrame(&stream, []byte("hello"), nil, bytes.Repeat([]byte("longer than the reader's buffer "), 3), []byte{0xD6, 1, 1})
	f.Add(stream.Bytes())
	f.Add(append(append([]byte(nil), stream.Bytes()...), 0, 0)) // a truncated header at the end
	f.Add([]byte{0, 0, 0, 9, 1, 2})                             // a truncated body
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := readFrames(bytes.NewReader(data))
		got, gotErr := readFrames(bufio.NewReaderSize(iotest.HalfReader(bytes.NewReader(data)), 16))
		if len(got) != len(want) {
			t.Fatalf("buffered read got %d frames, direct read %d", len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("frame %d differs: % x, want % x", i, got[i], want[i])
			}
		}
		if (gotErr == io.EOF) != (wantErr == io.EOF) || errors.Is(gotErr, io.ErrUnexpectedEOF) != errors.Is(wantErr, io.ErrUnexpectedEOF) {
			t.Fatalf("buffered read ended with %v, direct read with %v", gotErr, wantErr)
		}
		var out bytes.Buffer
		if err := WriteFrame(&out, got...); err != nil {
			t.Fatalf("re-framing accepted frames failed: %v", err)
		}
		if !bytes.Equal(out.Bytes(), data[:out.Len()]) {
			t.Fatal("re-framing is not byte-identical to the accepted prefix")
		}
	})
}
