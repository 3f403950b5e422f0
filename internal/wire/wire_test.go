package wire

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"anonconsensus/internal/core"
	"anonconsensus/internal/giraf"
	"anonconsensus/internal/values"
)

func randSet(bs []byte) values.Set {
	s := values.NewSet()
	for _, b := range bs {
		s.Add(values.Num(int64(b % 32)))
	}
	return s
}

func randHistory(bs []byte) values.History {
	h := values.NewHistory(values.Num(0))
	for _, b := range bs {
		h = h.Append(values.Num(int64(b % 4)))
	}
	return h
}

// encodeEnv and decodeEnv round-trip a full-form envelope through the
// epoch-tagged frame codec, the one path the shared payload codec
// (encodePayload/decodePayload) is reachable by.
func encodeEnv(env giraf.Envelope) ([]byte, error) { return EncodeDeltaEnvelopeEpoch(env, 1) }

func decodeEnv(data []byte) (giraf.Envelope, error) {
	env, _, err := DecodeDeltaEnvelopeEpoch(data)
	return env, err
}

func TestEnvelopeRoundTripSetPayloads(t *testing.T) {
	env := giraf.Envelope{
		Round: 12,
		Payloads: []giraf.Payload{
			core.SetPayload{Proposed: values.NewSet(values.Num(1), values.Bot)},
			core.SetPayload{Proposed: values.NewSet()},
		},
	}
	data, err := encodeEnv(env)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeEnv(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Round != 12 || len(got.Payloads) != 2 {
		t.Fatalf("decoded %+v", got)
	}
	for i := range env.Payloads {
		if got.Payloads[i].PayloadKey() != env.Payloads[i].PayloadKey() {
			t.Errorf("payload %d key mismatch", i)
		}
	}
}

func TestEnvelopeRoundTripESSPayloads(t *testing.T) {
	h := values.NewHistory(values.Num(1)).Append(values.Num(2))
	c := values.NewCounters()
	c.Set(values.NewHistory(values.Num(1)), 3)
	c.Set(h, 7)
	env := giraf.Envelope{
		Round: 5,
		Payloads: []giraf.Payload{
			core.ESSPayload{
				Proposed: values.NewSet(values.Num(2), values.Bot),
				History:  h,
				Counters: c,
			},
		},
	}
	data, err := encodeEnv(env)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeEnv(data)
	if err != nil {
		t.Fatal(err)
	}
	gp := got.Payloads[0].(core.ESSPayload)
	if gp.PayloadKey() != env.Payloads[0].PayloadKey() {
		t.Error("ESS payload key mismatch after round trip")
	}
	if gp.Counters.Get(h) != 7 {
		t.Errorf("counter = %d, want 7", gp.Counters.Get(h))
	}
}

func TestQuickEnvelopeRoundTrip(t *testing.T) {
	f := func(round uint16, setSeeds [][]byte, histSeed []byte, cnt uint8) bool {
		env := giraf.Envelope{Round: int(round)}
		if len(setSeeds) > 5 {
			setSeeds = setSeeds[:5]
		}
		for i, seed := range setSeeds {
			if i%2 == 0 {
				env.Payloads = append(env.Payloads, core.SetPayload{Proposed: randSet(seed)})
				continue
			}
			c := values.NewCounters()
			h := randHistory(histSeed)
			c.Set(h, int(cnt%50)+1)
			env.Payloads = append(env.Payloads, core.ESSPayload{
				Proposed: randSet(seed),
				History:  h,
				Counters: c,
			})
		}
		data, err := encodeEnv(env)
		if err != nil {
			return false
		}
		got, err := decodeEnv(data)
		if err != nil || got.Round != env.Round || len(got.Payloads) != len(env.Payloads) {
			return false
		}
		for i := range env.Payloads {
			if got.Payloads[i].PayloadKey() != env.Payloads[i].PayloadKey() {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(41))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickDecodeNeverPanics(t *testing.T) {
	f := func(junk []byte) bool {
		_, _ = decodeEnv(junk)
		// Past the magic and epoch, so the junk reaches the body and
		// payload decoders instead of dying on its first byte.
		_, _ = decodeEnv(append([]byte{epochMagic, 1}, junk...))
		return true
	}
	cfg := &quick.Config{MaxCount: 800, Rand: rand.New(rand.NewSource(42))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestDecodeCanonicalizesSets feeds set payloads whose values a hostile or
// foreign encoder listed out of order or repeated. Each must decode to the
// canonical set: the same members, key and fingerprint as NewSet gives.
func TestDecodeCanonicalizesSets(t *testing.T) {
	empty, err := encodeEnv(giraf.Envelope{Round: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, listed := range [][]values.Value{
		{"b", "a"},
		{"b", "a", "b"},
		{"c", "c", "c"},
		{values.Num(3), values.Bot, values.Num(1), values.Num(2), values.Num(1)},
	} {
		// The empty envelope ends with its payload count, 0: count one
		// payload instead and append it.
		var w bytes.Buffer
		w.Write(empty[:len(empty)-1])
		w.WriteByte(1)
		w.WriteByte(tagSetPayload)
		writeUvarint(&w, uint64(len(listed)))
		for _, v := range listed {
			writeValue(&w, v)
		}
		env, err := decodeEnv(w.Bytes())
		if err != nil {
			t.Fatalf("%q: %v", listed, err)
		}
		got := env.Payloads[0].(core.SetPayload).Proposed
		want := values.NewSet(listed...)
		if got.Len() != want.Len() || got.Key() != want.Key() || got.Fingerprint() != want.Fingerprint() || !got.Equal(want) {
			t.Errorf("%q decoded to %v (key %q), want %v (key %q)", listed, got, got.Key(), want, want.Key())
		}
		for _, v := range listed {
			if !got.Contains(v) {
				t.Errorf("%q decoded to %v, which does not contain %q", listed, got, v)
			}
		}
	}
}

func TestDecodeRejectsTrailingBytes(t *testing.T) {
	data, err := encodeEnv(giraf.Envelope{Round: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeEnv(append(data, 0xFF)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestEncodeRejectsUnknownPayload(t *testing.T) {
	if _, err := encodeEnv(giraf.Envelope{Round: 1, Payloads: []giraf.Payload{bogusPayload{}}}); err == nil {
		t.Error("unknown payload type accepted")
	}
}

type bogusPayload struct{}

func (bogusPayload) PayloadKey() string { return "bogus" }
func (p bogusPayload) PayloadFingerprint() values.Fingerprint {
	return values.FingerprintString(p.PayloadKey())
}
func (p bogusPayload) PayloadEncodedSize() int { return len(p.PayloadKey()) }

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	msgs := [][]byte{[]byte("hello"), {}, []byte("world")}
	for _, m := range msgs {
		if err := WriteFrame(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range msgs {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("frame = %q, want %q", got, want)
		}
	}
	if _, err := ReadFrame(&buf); err == nil {
		t.Error("read past last frame must fail")
	}
}

func TestFrameLengthLimit(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, make([]byte, MaxElement+1)); err == nil {
		t.Error("oversized frame accepted on write")
	}
	// Hand-craft an oversized header.
	buf.Reset()
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := ReadFrame(&buf); err == nil {
		t.Error("oversized frame accepted on read")
	}
}

func TestFrameTruncatedBody(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, []byte("abcdef")); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-3]
	if _, err := ReadFrame(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated frame accepted")
	}
}
