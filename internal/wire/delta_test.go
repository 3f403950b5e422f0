package wire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"testing"

	"anonconsensus/internal/core"
	"anonconsensus/internal/giraf"
	"anonconsensus/internal/values"
)

// fullEnvelope returns the full envelope of sets as EndOfRound builds it:
// the payloads in fingerprint order.
func fullEnvelope(round int, sets ...values.Set) giraf.Envelope {
	env := giraf.Envelope{Round: round}
	sets = slices.Clone(sets)
	slices.SortFunc(sets, func(a, b values.Set) int { return a.Fingerprint().Compare(b.Fingerprint()) })
	var h values.Hasher
	for _, s := range sets {
		p := core.SetPayload{Proposed: s}
		env.Payloads = append(env.Payloads, p)
		h.WriteFingerprint(p.PayloadFingerprint())
	}
	env.SetFingerprint = h.Sum()
	return env
}

// readEnvelope reads one frame off a single-epoch stream and resolves it
// against table, the way a node's reader does. Content-level failures
// come back wrapped in ErrBadFrame; transport errors (io.EOF) unchanged.
func readEnvelope(r io.Reader, table *giraf.ResolveTable) (giraf.Envelope, error) {
	frame, err := ReadFrame(r)
	if err != nil {
		return giraf.Envelope{}, err
	}
	delta, _, err := DecodeDeltaEnvelopeEpoch(frame)
	if err != nil {
		return giraf.Envelope{}, err
	}
	full, err := table.Resolve(delta)
	if err != nil {
		return giraf.Envelope{}, fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	return full, nil
}

// TestEnvelopeStreamRoundTrip drives a writer/reader pair over an
// in-memory stream: every envelope must come back structurally identical
// (same round, same payload keys in the same fingerprint order) even when
// later frames are pure references.
func TestEnvelopeStreamRoundTrip(t *testing.T) {
	s1 := values.NewSet(values.Num(1), values.Num(2))
	s2 := values.NewSet(values.Num(1))
	// Round 2 carries s2 in full ahead of the ref to s1, so its resolved
	// order differs from its arrival order only if s1 sorts first.
	if s1.Fingerprint().Compare(s2.Fingerprint()) > 0 {
		t.Fatal("s1 must sort before s2")
	}
	envs := []giraf.Envelope{
		fullEnvelope(1, s1),
		fullEnvelope(2, s1, s2),
		fullEnvelope(3, s1, s2), // identical set: everything travels as refs
	}

	var stream bytes.Buffer
	w := NewEnvelopeWriterEpoch(&stream, 1)
	for _, env := range envs {
		if err := w.WriteEnvelope(env); err != nil {
			t.Fatal(err)
		}
	}
	if w.PayloadsElided != 3 { // round2 elides s1; round3 elides s1 and s2
		t.Errorf("PayloadsElided = %d, want 3", w.PayloadsElided)
	}

	table := giraf.NewResolveTable()
	for _, want := range envs {
		got, err := readEnvelope(&stream, table)
		if err != nil {
			t.Fatal(err)
		}
		if got.Round != want.Round || len(got.Payloads) != len(want.Payloads) {
			t.Fatalf("round %d: shape mismatch (%d payloads, want %d)", want.Round, len(got.Payloads), len(want.Payloads))
		}
		if got.SetFingerprint != want.SetFingerprint {
			t.Fatalf("round %d: set fingerprint changed in transit", want.Round)
		}
		for i := range want.Payloads {
			if got.Payloads[i].PayloadKey() != want.Payloads[i].PayloadKey() {
				t.Fatalf("round %d payload %d: key mismatch", want.Round, i)
			}
		}
	}
	if _, err := readEnvelope(&stream, table); err != io.EOF {
		t.Fatalf("want EOF at stream end, got %v", err)
	}
}

// TestDeltaShrinksWire pins the point of the exercise: rebroadcasting a
// stable payload set must cost a fraction of the full encoding.
func TestDeltaShrinksWire(t *testing.T) {
	big := values.NewSet()
	for i := int64(0); i < 64; i++ {
		big.Add(values.Num(i))
	}
	env := fullEnvelope(1, big)
	full, err := EncodeDeltaEnvelopeEpoch(env, 1) // first send: everything in full
	if err != nil {
		t.Fatal(err)
	}

	tracker := giraf.NewDeltaTracker()
	_ = tracker.Shrink(env) // first send: payload now known
	repeat := tracker.Shrink(fullEnvelope(2, big))
	delta, err := EncodeDeltaEnvelopeEpoch(repeat, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(delta) >= len(full)/4 {
		t.Errorf("repeat frame is %d bytes, full form %d: delta not shrinking the wire", len(delta), len(full))
	}
}

// TestLateJoinerReplay mimics the hub contract: a reader that starts from
// the beginning of the logged stream resolves everything, which is why
// replay-from-log keeps delta broadcast compatible with late joiners.
func TestLateJoinerReplay(t *testing.T) {
	s := values.NewSet(values.Num(5))
	var stream bytes.Buffer
	w := NewEnvelopeWriterEpoch(&stream, 1)
	for round := 1; round <= 5; round++ {
		if err := w.WriteEnvelope(fullEnvelope(round, s)); err != nil {
			t.Fatal(err)
		}
	}
	log := stream.Bytes()

	// A late joiner replays the whole log in order: every ref resolves.
	replay, table := bytes.NewReader(log), giraf.NewResolveTable()
	for round := 1; round <= 5; round++ {
		env, err := readEnvelope(replay, table)
		if err != nil {
			t.Fatalf("late joiner failed at round %d: %v", round, err)
		}
		if len(env.Payloads) != 1 {
			t.Fatalf("round %d resolved to %d payloads", round, len(env.Payloads))
		}
	}

	// A reader that skips the prefix hits an unresolvable reference and
	// reports it as a bad frame (not a crash, not silent corruption).
	var tail bytes.Buffer
	// Find the second frame boundary by re-reading with framing only.
	first, err := ReadFrame(bytes.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	tail.Write(log[4+len(first):])
	if _, err := readEnvelope(&tail, giraf.NewResolveTable()); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("want ErrBadFrame for unresolvable tail, got %v", err)
	}
}

// TestDeltaRejectsStatelessFrames: a body with neither magic — the shape
// of the retired stateless v1 envelope (round uvarint, payload count,
// tagged payloads) — must be rejected loudly, not misparsed.
func TestDeltaRejectsStatelessFrames(t *testing.T) {
	var v1 bytes.Buffer
	writeUvarint(&v1, 1) // round
	writeUvarint(&v1, 1) // payload count
	if err := encodePayload(&v1, core.SetPayload{Proposed: values.NewSet(values.Num(1))}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeDeltaEnvelopeEpoch(v1.Bytes()); !errors.Is(err, ErrBadFrame) {
		t.Errorf("delta decoder accepted a stateless v1 body: %v", err)
	}
	if _, _, ok := DataFrameHeader(v1.Bytes()); ok {
		t.Error("DataFrameHeader accepted a stateless v1 body")
	}
}

// TestEpochEnvelopeRoundTrip pins the one data-frame form: epoch-tagged
// 0xD6 frames round-trip envelope and epoch, and the cheap peek agrees.
func TestEpochEnvelopeRoundTrip(t *testing.T) {
	env := fullEnvelope(3, values.NewSet(values.Num(1), values.Num(2)))
	for _, epoch := range []uint64{1, 2, 7, 1 << 20, MaxEpoch} {
		data, err := EncodeDeltaEnvelopeEpoch(env, epoch)
		if err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
		if data[0] != epochMagic {
			t.Fatalf("epoch %d: leading byte %#x, want %#x", epoch, data[0], epochMagic)
		}
		got, gotEpoch, err := DecodeDeltaEnvelopeEpoch(data)
		if err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
		if gotEpoch != epoch {
			t.Fatalf("epoch %d came back as %d", epoch, gotEpoch)
		}
		if got.Round != env.Round || got.SetFingerprint != env.SetFingerprint {
			t.Fatalf("epoch %d: envelope mangled in transit", epoch)
		}
		if peeked, round, ok := DataFrameHeader(data); !ok || peeked != epoch || round != env.Round {
			t.Fatalf("DataFrameHeader = (%d, %d, %v), want (%d, %d, true)", peeked, round, ok, epoch, env.Round)
		}
	}
}

// TestEpochEnvelopeRejects pins the malformed-epoch failure modes,
// including both retired ways of saying "epoch 0": the encoder refuses
// it, a 0xD6 frame tagged 0 is a bad frame, and so is the untagged 0xD5
// form that once stood for it.
func TestEpochEnvelopeRejects(t *testing.T) {
	env := fullEnvelope(1, values.NewSet(values.Num(1)))
	for _, epoch := range []uint64{0, MaxEpoch + 1} {
		if _, err := EncodeDeltaEnvelopeEpoch(env, epoch); err == nil {
			t.Fatalf("encoder accepted epoch %d", epoch)
		}
	}
	good, err := EncodeDeltaEnvelopeEpoch(env, 1)
	if err != nil {
		t.Fatal(err)
	}
	body := good[2:] // past the magic and the one-byte epoch tag
	for name, frame := range map[string][]byte{
		"0xD6 tagged epoch 0":   append([]byte{epochMagic, 0}, body...),
		"untagged 0xD5 form":    append([]byte{0xD5}, body...),
		"empty frame":           nil,
		"truncated epoch tag":   {epochMagic},
		"truncated round tag":   {epochMagic, 1},
		"round beyond MaxRound": {epochMagic, 1, 0x81, 0x80, 0x80, 0x80, 0x80, 0x20},
		"epoch beyond MaxEpoch": append([]byte{epochMagic, 0x81, 0x80, 0x80, 0x80, 0x80, 0x20}, body...),
		"control frame":         EncodeHeartbeat(Heartbeat{Seq: 1}),
	} {
		if _, _, err := DecodeDeltaEnvelopeEpoch(frame); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: decoder returned %v, want ErrBadFrame", name, err)
		}
		if _, _, ok := DataFrameHeader(frame); ok {
			t.Errorf("%s: DataFrameHeader accepted it", name)
		}
	}
}

// TestEpochWriterStreams pins the per-epoch delta family: two writers on
// different epochs each maintain their own tracker, and a reader
// demultiplexing by epoch resolves each stream against its own table.
func TestEpochWriterStreams(t *testing.T) {
	s := values.NewSet(values.Num(1), values.Num(2))
	var stream bytes.Buffer
	w1 := NewEnvelopeWriterEpoch(&stream, 1)
	w2 := NewEnvelopeWriterEpoch(&stream, 2)
	for round := 1; round <= 3; round++ {
		if err := w1.WriteEnvelope(fullEnvelope(round, s)); err != nil {
			t.Fatal(err)
		}
		if err := w2.WriteEnvelope(fullEnvelope(round, s)); err != nil {
			t.Fatal(err)
		}
	}
	// Each stream elides its payload from round 2 on, independently.
	if w1.PayloadsElided != 2 || w2.PayloadsElided != 2 {
		t.Fatalf("PayloadsElided = (%d, %d), want (2, 2)", w1.PayloadsElided, w2.PayloadsElided)
	}
	tables := map[uint64]*giraf.ResolveTable{1: giraf.NewResolveTable(), 2: giraf.NewResolveTable()}
	counts := map[uint64]int{}
	for {
		frame, err := ReadFrame(&stream)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		delta, epoch, err := DecodeDeltaEnvelopeEpoch(frame)
		if err != nil {
			t.Fatal(err)
		}
		full, err := tables[epoch].Resolve(delta)
		if err != nil {
			t.Fatalf("epoch %d round %d: %v", epoch, delta.Round, err)
		}
		if len(full.Payloads) != 1 {
			t.Fatalf("epoch %d round %d: %d payloads, want 1", epoch, full.Round, len(full.Payloads))
		}
		counts[epoch]++
	}
	if counts[1] != 3 || counts[2] != 3 {
		t.Fatalf("frame counts per epoch = %v, want 3 each", counts)
	}
}
