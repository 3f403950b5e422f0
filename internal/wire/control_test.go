package wire

import (
	"errors"
	"testing"
)

func TestControlRoundTrip(t *testing.T) {
	hello := Hello{Token: 0xDEADBEEF01, Cursor: 12345}
	gotH, err := DecodeHello(EncodeHello(hello))
	if err != nil {
		t.Fatal(err)
	}
	if gotH != hello {
		t.Fatalf("hello round trip: got %+v want %+v", gotH, hello)
	}

	welcome := Welcome{Token: 7, ResumeFrom: 99, Pending: 3, Incarnation: 1 << 40}
	gotW, err := DecodeWelcome(EncodeWelcome(welcome))
	if err != nil {
		t.Fatal(err)
	}
	if gotW != welcome {
		t.Fatalf("welcome round trip: got %+v want %+v", gotW, welcome)
	}

	mark := Mark{Epoch: 300, Round: 7}
	gotM, err := DecodeMark(AppendMark([]byte("kept"), mark)[4:])
	if err != nil {
		t.Fatal(err)
	}
	if gotM != mark {
		t.Fatalf("mark round trip: got %+v want %+v", gotM, mark)
	}

	hb := Heartbeat{Seq: 42}
	gotB, err := DecodeHeartbeat(EncodeHeartbeat(hb))
	if err != nil {
		t.Fatal(err)
	}
	if gotB != hb {
		t.Fatalf("heartbeat round trip: got %+v want %+v", gotB, hb)
	}
	ack := Heartbeat{Seq: 42, Cursor: 1 << 40}
	gotA, err := DecodeHeartbeatAck(EncodeHeartbeatAck(ack))
	if err != nil {
		t.Fatal(err)
	}
	if gotA != ack {
		t.Fatalf("heartbeat ack round trip: got %+v want %+v", gotA, ack)
	}
}

func TestControlKindDetection(t *testing.T) {
	frame := EncodeHello(Hello{Token: 1, Cursor: 2})
	if !IsControlFrame(frame) {
		t.Error("hello not recognized as control frame")
	}
	if kind, ok := ControlKind(frame); !ok || kind != ControlHello {
		t.Errorf("ControlKind = %d, %v", kind, ok)
	}
	// Envelope frames must never look like control frames.
	for _, data := range [][]byte{
		{0x01, 0x00},       // neither magic: a bare uvarint pair
		{epochMagic, 0x01}, // delta envelope prefix
		{},                 // empty
		{controlMagic},     // magic alone, too short
	} {
		if IsControlFrame(data) {
			t.Errorf("frame %v misdetected as control", data)
		}
	}
}

func TestControlDecodeRejects(t *testing.T) {
	// Wrong kind.
	if _, err := DecodeWelcome(EncodeHello(Hello{})); !errors.Is(err, ErrBadFrame) {
		t.Errorf("wrong kind: %v", err)
	}
	// Truncated field.
	frame := EncodeWelcome(Welcome{Token: 300, ResumeFrom: 300, Pending: 300})
	if _, err := DecodeWelcome(frame[:len(frame)-2]); !errors.Is(err, ErrBadFrame) {
		t.Errorf("truncated: %v", err)
	}
	// Trailing garbage.
	if _, err := DecodeHello(append(EncodeHello(Hello{}), 0x00)); !errors.Is(err, ErrBadFrame) {
		t.Errorf("trailing bytes: %v", err)
	}
	// Not a control frame at all.
	if _, err := DecodeHeartbeat([]byte{0x01, 0x02, 0x03}); !errors.Is(err, ErrBadFrame) {
		t.Errorf("non-control: %v", err)
	}
	// A mark outside a data frame's epoch bounds.
	for _, epoch := range []uint64{0, MaxEpoch + 1} {
		if _, err := DecodeMark(AppendMark(nil, Mark{Epoch: epoch, Round: 1})); !errors.Is(err, ErrBadFrame) {
			t.Errorf("mark for epoch %d: %v", epoch, err)
		}
	}
}

// TestControlDistinctFromDelta pins the magic separation: a control frame
// must be rejected by the delta decoder and vice versa, loudly rather
// than misparsed.
func TestControlDistinctFromDelta(t *testing.T) {
	if _, _, err := DecodeDeltaEnvelopeEpoch(EncodeHeartbeat(Heartbeat{Seq: 9})); !errors.Is(err, ErrBadFrame) {
		t.Errorf("delta decoder accepted a control frame: %v", err)
	}
	if IsControlFrame([]byte{epochMagic, controlVersion, ControlHello}) {
		t.Error("delta-magic frame misdetected as control")
	}
}
