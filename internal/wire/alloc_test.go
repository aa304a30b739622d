package wire

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"ppm/internal/journal"
	"ppm/internal/metrics"
	"ppm/internal/sim"
	"ppm/internal/simnet"
)

// opLessEnvelope is the frame shape of the overwhelming majority of
// simulated traffic: no op-identity trailer, no trace trailer.
func opLessEnvelope() Envelope {
	return Envelope{
		Type:  MsgControl,
		ReqID: 42,
		Body:  []byte("u\x00\x04host\x00\x00\x00\x07\x01\x00\x00\x00\x00"),
	}
}

// TestEncodeOpLessFrameZeroAllocs pins the PERFORMANCE.md contract:
// encoding an op-less envelope through a reused encoder touches the
// allocator zero times once the buffer is warm. A regression here means
// a per-message allocation crept back into the framing hot path.
func TestEncodeOpLessFrameZeroAllocs(t *testing.T) {
	ev := opLessEnvelope()
	enc := NewEncoder(ev.EncodedSize())
	allocs := testing.AllocsPerRun(200, func() {
		enc.Reset()
		ev.EncodeTo(enc)
	})
	if allocs != 0 {
		t.Fatalf("encode of op-less frame: %.1f allocs/op, want 0", allocs)
	}
}

// TestDecodeOpLessFrameZeroAllocs pins the decode side: borrowing the
// body instead of copying it makes parsing allocation-free.
func TestDecodeOpLessFrameZeroAllocs(t *testing.T) {
	frame := opLessEnvelope().Encode()
	allocs := testing.AllocsPerRun(200, func() {
		ev, err := DecodeEnvelopeBorrow(frame)
		if err != nil || ev.Type != MsgControl {
			t.Fatal("bad decode")
		}
	})
	if allocs != 0 {
		t.Fatalf("borrow-decode of op-less frame: %.1f allocs/op, want 0", allocs)
	}
}

// TestRoundTripOpLessFrameZeroAllocs pins the full encode→decode hot
// path at zero allocations per frame.
func TestRoundTripOpLessFrameZeroAllocs(t *testing.T) {
	ev := opLessEnvelope()
	enc := NewEncoder(ev.EncodedSize())
	allocs := testing.AllocsPerRun(200, func() {
		enc.Reset()
		frame := ev.EncodeTo(enc)
		got, err := DecodeEnvelopeBorrow(frame)
		if err != nil || got.ReqID != ev.ReqID {
			t.Fatal("bad round trip")
		}
	})
	if allocs != 0 {
		t.Fatalf("round trip of op-less frame: %.1f allocs/op, want 0", allocs)
	}
}

// TestEncodeToMatchesEncode proves the reusable-encoder path and the
// allocating path produce byte-identical frames, trailers included.
func TestEncodeToMatchesEncode(t *testing.T) {
	cases := []Envelope{
		opLessEnvelope(),
		{Type: MsgSnapshotReq, ReqID: 7, Body: []byte("abc"), OpID: 99},
		{Type: MsgPing, ReqID: 1, Body: nil, TraceID: 5, SpanID: 6},
		{Type: MsgBroadcast, ReqID: 3, Body: []byte{1, 2, 3}, OpID: 4, TraceID: 8, SpanID: 9},
	}
	enc := NewEncoder(0)
	for _, ev := range cases {
		enc.Reset()
		got := ev.EncodeTo(enc)
		want := ev.Encode()
		if !bytes.Equal(got, want) {
			t.Errorf("%v: EncodeTo %x != Encode %x", ev.Type, got, want)
		}
		if len(want) != ev.EncodedSize() {
			t.Errorf("%v: EncodedSize %d, frame is %d bytes", ev.Type, ev.EncodedSize(), len(want))
		}
	}
}

// TestMsgTypeStringTable pins the table-based String against every
// known type plus the out-of-range fallback.
func TestMsgTypeStringTable(t *testing.T) {
	if MsgHello.String() != "Hello" || MsgWatchResp.String() != "WatchResp" {
		t.Fatalf("known names wrong: %q %q", MsgHello.String(), MsgWatchResp.String())
	}
	if MsgType(0).String() != "MsgType(0)" {
		t.Fatalf("zero type: %q", MsgType(0).String())
	}
	if MsgType(999).String() != "MsgType(999)" {
		t.Fatalf("unknown type: %q", MsgType(999).String())
	}
	allocs := testing.AllocsPerRun(100, func() {
		_ = MsgControl.String()
	})
	if allocs != 0 {
		t.Fatalf("MsgType.String: %.1f allocs/op, want 0", allocs)
	}
}

// TestLoggedCodecZeroAllocs pins the two framing paths — Send and the
// logged decode, each counting and journaling its frame — with the
// registry and the journal both wired: a traced frame with a body goes
// out through Send, crosses a circuit and is decoded by the receiving
// handler without one allocation once the pools are warm.
func TestLoggedCodecZeroAllocs(t *testing.T) {
	reg := metrics.New(nil)
	jr := journal.New(func() time.Duration { return 0 })
	jr.SetCapacity(64)
	rec := journal.NewRecorder(reg, nil, jr)
	sched := sim.NewScheduler(1)
	net := simnet.New(sched, simnet.Options{})
	for _, h := range []string{"vax1", "vax2"} {
		if err := net.AddHost(h); err != nil {
			t.Fatal(err)
		}
	}
	if err := net.AddSegment("lan", "vax1", "vax2"); err != nil {
		t.Fatal(err)
	}
	decoded := 0
	if err := net.Listen("vax2", 7, func(c *simnet.Conn) {
		c.SetHandler(func(b []byte) {
			if _, err := DecodeEnvelopeLogged(b, rec, "vax2"); err != nil {
				t.Fatal(err)
			}
			decoded++
		})
	}); err != nil {
		t.Fatal(err)
	}
	var conn *simnet.Conn
	net.Dial("vax1", simnet.Addr{Host: "vax2", Port: 7}, func(c *simnet.Conn, err error) {
		if err != nil {
			t.Fatal(err)
		}
		conn = c
	})
	for sched.Step() {
	}
	ev := opLessEnvelope()
	ev.TraceID, ev.SpanID = 7, 9
	run := func() {
		if err := Send(conn, ev, rec, "vax1"); err != nil {
			t.Fatal(err)
		}
		for sched.Step() {
		}
	}
	for i := 0; i < 64; i++ {
		run()
	}
	if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
		t.Fatalf("send + logged decode: %.1f allocs/op, want 0", allocs)
	}
	if got := reg.Snapshot().Counter("wire.msgs.Control"); got != 64+201 || decoded != 64+201 {
		t.Fatalf("wire.msgs.Control = %d, %d decoded, over %d frames", got, decoded, 64+201)
	}
	recs := jr.Records()
	want := fmt.Sprintf("Control %dB", len(ev.Encode()))
	for i, kind := range []journal.Kind{journal.WireEncode, journal.WireDecode} {
		if got := recs[len(recs)-2+i]; got.Detail != want || got.Kind != kind || got.Trace != 7 || got.Span != 9 {
			t.Fatalf("%v record %v", kind, got)
		}
	}
}
