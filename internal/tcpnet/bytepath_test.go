package tcpnet

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"anonconsensus/internal/wire"
)

// raceEnabled is set by race_test.go: the race detector's instrumentation
// moves locals to the heap, so the allocation pins hold only without it.
var raceEnabled bool

// byteCounter is an io.Writer that counts and discards.
type byteCounter struct{ n *atomic.Int64 }

func (c byteCounter) Write(p []byte) (int, error) {
	c.n.Add(int64(len(p)))
	return len(p), nil
}

// TestHubFanOutAllocBudget pins the hub's relay cost: allocations per frame
// per session through Hub.broadcast and the sessions' write loops, with
// four sessions draining into counters and no heartbeat. Each run
// broadcasts a burst and waits until every session has received all of it.
func TestHubFanOutAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const sessions, burst = 4, 64
	hub, err := NewHub("127.0.0.1:0", WithHeartbeat(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	var received atomic.Int64
	for i := 0; i < sessions; i++ {
		conn, _ := helloClient(t, hub, wire.Hello{})
		go func() { _, _ = io.Copy(byteCounter{&received}, conn) }()
	}
	frame := epochFrame(t, 1, 1)
	// Not a receiver: every session gets the burst. Its marks queue up
	// undrained, with no write loop of its own.
	from := &session{index: -1, cond: sync.NewCond(&hub.mu)}
	perRun := int64(sessions * burst * (4 + len(frame)))
	var want int64
	allocs := testing.AllocsPerRun(20, func() {
		for i := 0; i < burst; i++ {
			hub.broadcast(from, frame)
		}
		want += perRun
		for received.Load() < want {
			runtime.Gosched()
		}
	})
	// The budget is per frame per session. Before the write loop batched,
	// every frame cost each session one allocation (WriteFrame's header)
	// and every broadcast one more (the epoch peek's reader): 1.254 here.
	// Now the whole run shares about one.
	const budget = 0.05
	perFrame := allocs / (sessions * burst)
	t.Logf("%.3f allocs per frame per session", perFrame)
	if perFrame > budget {
		t.Errorf("hub fan-out: %.3f allocs per frame per session, budget %v", perFrame, budget)
	}
}

// TestHubWriteLoopBatchesInOrder: a session whose queue holds more frames
// than one write-loop batch, some larger than a read buffer, reads every
// frame intact and in order, with the hub's heartbeats landing between
// them. A forward delay on every 50th frame splits batches and gives the
// heartbeat loop its turns; the delay function is still asked once per
// frame.
func TestHubWriteLoopBatchesInOrder(t *testing.T) {
	const total = 3*maxBatch + 5
	var delayCalls atomic.Int64
	hub, err := NewHub("127.0.0.1:0",
		WithHeartbeat(time.Millisecond, 1<<20),
		WithForwardDelay(func(sessionIndex int) time.Duration {
			if sessionIndex == 0 {
				return 0 // the sender's own session
			}
			if delayCalls.Add(1)%50 == 0 {
				return 5 * time.Millisecond
			}
			return 0
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	frames := make([][]byte, total)
	for i := range frames {
		size := 8 + i%29
		if i%17 == 0 {
			size = 10_000 // spans more than one 4 KB read buffer
		}
		frames[i] = make([]byte, size)
		binary.BigEndian.PutUint32(frames[i], uint32(i))
		for j := 4; j < size; j++ {
			frames[i][j] = byte(i + j)
		}
	}
	sender, _ := helloClient(t, hub, wire.Hello{})
	if err := wire.WriteFrame(sender, frames...); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		hub.mu.Lock()
		logged := len(hub.log)
		hub.mu.Unlock()
		if logged == total {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("hub logged %d of %d frames", logged, total)
		}
		time.Sleep(time.Millisecond)
	}
	// A session opened now finds the whole log queued at once: its write
	// loop must take it in several batches.
	receiver, welcome := helloClient(t, hub, wire.Hello{})
	if welcome.Pending != total {
		t.Fatalf("Welcome announces %d pending frames, want %d", welcome.Pending, total)
	}
	_ = receiver.SetReadDeadline(time.Now().Add(5 * time.Second))
	heartbeats := 0
	for i := 0; i < total; {
		frame, err := wire.ReadFrame(receiver)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if wire.IsControlFrame(frame) {
			if _, err := wire.DecodeHeartbeat(frame); err != nil {
				t.Fatalf("control frame before data frame %d is not an intact heartbeat: %v", i, err)
			}
			heartbeats++
			continue
		}
		if !bytes.Equal(frame, frames[i]) {
			t.Fatalf("data frame %d: got %d bytes starting % x, want frame %d (%d bytes)",
				i, len(frame), frame[:min(len(frame), 4)], i, len(frames[i]))
		}
		i++
	}
	if heartbeats == 0 {
		t.Error("no heartbeat landed between the data frames")
	}
	if got := delayCalls.Load(); got != total {
		t.Errorf("the forward delay was asked %d times for %d frames", got, total)
	}
}

// TestMuxReaderKeepsBytesBehindWelcome: a hub that writes its Welcome and
// the replayed frames in one segment, on the first dial and on a resume,
// loses none of them. dialHub has already read them into its buffer by
// the time it returns, so the node must read on through that buffer.
func TestMuxReaderKeepsBytesBehindWelcome(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	const token = 7
	// The first dial gets rounds 1 and 2, then the hub goes away; the
	// resume gets round 3 and stays open until the node closes.
	attaches := [][][]byte{
		{epochFrame(t, 1, 1), epochFrame(t, 1, 2)},
		{epochFrame(t, 1, 3)},
	}
	hellos := make(chan wire.Hello, len(attaches))
	go func() {
		for attach, replay := range attaches {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			frame, err := wire.ReadFrame(conn)
			hello, herr := wire.DecodeHello(frame)
			if err != nil || herr != nil {
				_ = conn.Close()
				return
			}
			hellos <- hello
			welcome := wire.EncodeWelcome(wire.Welcome{
				Token:      token,
				ResumeFrom: hello.Cursor,
				Pending:    uint64(len(replay)),
			})
			_ = wire.WriteFrame(conn, append([][]byte{welcome}, replay...)...) // one writev: one segment
			if attach == len(attaches)-1 {
				_, _ = io.Copy(io.Discard, conn)
			}
			_ = conn.Close()
		}
	}()
	m, err := DialMux(context.Background(), MuxConfig{
		HubAddr:   ln.Addr().String(),
		Reconnect: ReconnectPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	m.mu.Lock()
	inbox := m.epochs[1].inbox
	m.mu.Unlock()
	for i, env := range awaitInbox(t, inbox, 3) {
		if env.Round != i+1 {
			t.Fatalf("inbox entry %d is round %d, want %d", i, env.Round, i+1)
		}
	}
	<-hellos
	if resume := <-hellos; resume.Token != token || resume.Cursor != 2 {
		t.Fatalf("resume Hello = %+v, want token %d at cursor 2", resume, token)
	}
}
