package wire

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"ppm/internal/journal"
	"ppm/internal/metrics"
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

// TestDecodeBorrowMatchesDecode proves the borrowing parse agrees with
// the copying parse and that the borrowed body aliases the input.
func TestDecodeBorrowMatchesDecode(t *testing.T) {
	ev := Envelope{Type: MsgControl, ReqID: 11, Body: []byte("payload"), OpID: 3, TraceID: 1, SpanID: 2}
	frame := ev.Encode()
	copied, err := DecodeEnvelope(frame)
	if err != nil {
		t.Fatal(err)
	}
	borrowed, err := DecodeEnvelopeBorrow(frame)
	if err != nil {
		t.Fatal(err)
	}
	if copied.Type != borrowed.Type || copied.ReqID != borrowed.ReqID ||
		copied.OpID != borrowed.OpID || copied.TraceID != borrowed.TraceID ||
		copied.SpanID != borrowed.SpanID || !bytes.Equal(copied.Body, borrowed.Body) {
		t.Fatalf("borrow decode %+v != copy decode %+v", borrowed, copied)
	}
	// Mutating the frame must show through the borrowed body (alias)
	// but not the copied one.
	frame[15]++
	if bytes.Equal(copied.Body, borrowed.Body) {
		t.Fatal("borrowed body does not alias the input frame")
	}
}

// TestPooledEncoderReuse exercises the Get/Put cycle: frames produced
// across reuses are correct and the pool never hands out an encoder
// with stale bytes.
func TestPooledEncoderReuse(t *testing.T) {
	for i := 0; i < 64; i++ {
		enc := GetEncoder()
		if len(enc.Bytes()) != 0 {
			t.Fatalf("pooled encoder arrived dirty: %d bytes", len(enc.Bytes()))
		}
		ev := Envelope{Type: MsgPing, ReqID: uint64(i), Body: []byte{byte(i)}}
		frame := ev.EncodeTo(enc)
		got, err := DecodeEnvelopeBorrow(frame)
		if err != nil || got.ReqID != uint64(i) || got.Body[0] != byte(i) {
			t.Fatalf("reuse %d: decode mismatch (%v, %v)", i, got, err)
		}
		PutEncoder(enc)
	}
	PutEncoder(nil) // must not panic
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

// TestLoggedCodecZeroAllocs pins the two wire observation points — the
// recorder's Record and its per-type counter handles reached through
// the codec — with the registry and the journal both wired: counting and journaling a
// frame add no allocation to encoding or decoding it. A frame with a
// body still pays DecodeEnvelope's one body copy, journal or no
// journal.
func TestLoggedCodecZeroAllocs(t *testing.T) {
	reg := metrics.New(nil)
	jr := journal.New(func() time.Duration { return 0 })
	jr.SetCapacity(64)
	rec := journal.NewRecorder(reg, nil, jr)
	ev := opLessEnvelope()
	ev.TraceID, ev.SpanID = 7, 9
	bodyless := Envelope{Type: MsgPing, ReqID: 1}.Encode()
	enc := NewEncoder(ev.EncodedSize())
	run := func() {
		enc.Reset()
		ev.EncodeLoggedTo(enc, rec, "vax1")
		if _, err := DecodeEnvelopeLogged(bodyless, rec, "vax2"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		run()
	}
	if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
		t.Fatalf("logged encode + decode: %.1f allocs/op, want 0", allocs)
	}
	if got := reg.Snapshot().Counter("wire.msgs.Control"); got != 64+201 {
		t.Fatalf("wire.msgs.Control = %d over %d frames", got, 64+201)
	}
	recs := jr.Records()
	want := fmt.Sprintf("Control %dB", len(ev.Encode()))
	if got := recs[len(recs)-2]; got.Detail != want || got.Kind != journal.WireEncode || got.Trace != 7 || got.Span != 9 {
		t.Fatalf("encode record %v", got)
	}
	if got, want := recs[len(recs)-1].Detail, fmt.Sprintf("Ping %dB", len(bodyless)); got != want {
		t.Fatalf("decode record %q", got)
	}

	frame := ev.Encode()
	decode := func(rec *journal.Recorder) float64 {
		return testing.AllocsPerRun(200, func() {
			if _, err := DecodeEnvelopeLogged(frame, rec, "vax2"); err != nil {
				t.Fatal(err)
			}
		})
	}
	if with, without := decode(rec), decode(nil); with != without {
		t.Fatalf("decoding a frame with a body: %.1f allocs/op journaled, %.1f not", with, without)
	}
}
