package wire

import (
	"bytes"
	"testing"

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

// FuzzDecodeDeltaEnvelope: the delta decoder and the cheap epoch peek
// must never panic and must agree on whatever they accept, and accepted
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
		peeked, ok := DataFrameEpoch(data)
		if !ok || peeked != epoch {
			t.Fatalf("DataFrameEpoch = (%d, %v), decoder said epoch %d", peeked, ok, epoch)
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
