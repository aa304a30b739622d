package wire

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"ppm/internal/journal"
)

// TestEnvelopeTraceTrailerRoundTrip: envelopes with a trace context
// carry it in the optional trailer and get it back on decode.
func TestEnvelopeTraceTrailerRoundTrip(t *testing.T) {
	ev := Envelope{Type: MsgControl, ReqID: 42, Body: []byte("body")}
	ev.SetTrace(7, 13)
	out, err := DecodeEnvelopeBorrow(ev.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if out.TraceID != 7 || out.SpanID != 13 {
		t.Fatalf("trace context lost: got (%d, %d), want (7, 13)", out.TraceID, out.SpanID)
	}
	if out.Type != ev.Type || out.ReqID != ev.ReqID || string(out.Body) != "body" {
		t.Fatalf("payload corrupted by trailer: %+v", out)
	}
}

// TestEnvelopeUntracedUnchanged: without a trace context the encoding
// must be byte-identical to the pre-trailer format — untraced runs put
// zero extra bytes on the wire.
func TestEnvelopeUntracedUnchanged(t *testing.T) {
	ev := Envelope{Type: MsgPing, ReqID: 9, Body: []byte("xyz")}
	b := ev.Encode()
	if want := 14 + len(ev.Body); len(b) != want {
		t.Fatalf("untraced envelope is %d bytes, want %d", len(b), want)
	}
	out, err := DecodeEnvelopeBorrow(b)
	if err != nil {
		t.Fatal(err)
	}
	if out.TraceID != 0 || out.SpanID != 0 {
		t.Fatalf("untraced envelope decoded with a trace context: %+v", out)
	}
}

// TestEnvelopeZeroPaddingIsNotATrace: trailing zero bytes (padded
// frames) must not be misread as a trace trailer.
func TestEnvelopeZeroPaddingIsNotATrace(t *testing.T) {
	ev := Envelope{Type: MsgPing, ReqID: 1, Body: []byte("p")}
	b := append(ev.Encode(), make([]byte, 32)...)
	out, err := DecodeEnvelopeBorrow(b)
	if err != nil {
		t.Fatal(err)
	}
	if out.TraceID != 0 || out.SpanID != 0 {
		t.Fatalf("zero padding decoded as a trace context: %+v", out)
	}
}

// FuzzDecodeEnvelope throws arbitrary bytes at the envelope parser,
// seeded with the frames the trailer tests build: op and trace trailers
// alone and together, zero padding, truncations. Decoding never panics;
// the logged decode agrees with the bare one and journals exactly the
// frames it accepts, one wire.decode record each of the frame's size;
// and the body never holds more than the frame carried. A frame that
// decodes re-encodes to one whose header and body are the input's own
// bytes — the trailers come back in canonical order, an input may carry
// them in any — and which decodes to the same envelope, less a span id
// under trace id 0: an untraced envelope carries no trace trailer.
func FuzzDecodeEnvelope(f *testing.F) {
	plain := Envelope{Type: MsgPing, ReqID: 9, Body: []byte("xyz")}
	op := Envelope{Type: MsgControl, ReqID: 42, Body: []byte("body"), OpID: 99}
	traced := Envelope{Type: MsgControl, ReqID: 42, Body: []byte("body"), TraceID: 7, SpanID: 13}
	both := op
	both.SetTrace(7, 13)
	for _, ev := range []Envelope{plain, op, traced, both, {Type: MsgPing, ReqID: 1}} {
		frame := ev.Encode()
		f.Add(frame)
		f.Add(append(ev.Encode(), make([]byte, 32)...)) // fixed-size frames pad with zeros
		f.Add(frame[:len(frame)-1])
		f.Add(frame[:len(frame)/2])
	}
	f.Add([]byte{0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff})                      // a body length the frame does not carry
	f.Add(append(plain.Encode(), traceFlag, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 5)) // a span id under trace id 0
	f.Fuzz(func(t *testing.T, frame []byte) {
		jr := journal.New(func() time.Duration { return 0 })
		ev, err := DecodeEnvelopeLogged(frame, journal.NewRecorder(nil, nil, jr), "vax2")
		bare, berr := DecodeEnvelopeBorrow(frame)
		if (err == nil) != (berr == nil) || !reflect.DeepEqual(ev, bare) {
			t.Fatalf("DecodeEnvelopeLogged %+v, %v; DecodeEnvelopeBorrow %+v, %v", ev, err, bare, berr)
		}
		recs := jr.Records()
		if err != nil {
			if len(recs) != 0 || !reflect.DeepEqual(ev, Envelope{}) {
				t.Fatalf("a rejected frame decoded to %+v and left %d records", ev, len(recs))
			}
			return
		}
		if len(recs) != 1 || recs[0].Kind != journal.WireDecode || !strings.HasSuffix(recs[0].Detail, fmt.Sprintf(" %dB", len(frame))) ||
			recs[0].Trace != ev.TraceID || recs[0].Span != ev.SpanID {
			t.Fatalf("a %d-byte frame decoding to %+v recorded %v", len(frame), ev, recs)
		}
		if 14+len(ev.Body) > len(frame) {
			t.Fatalf("a %d-byte frame decoded to a %d-byte body", len(frame), len(ev.Body))
		}
		again := ev.Encode()
		if n := 14 + len(ev.Body); len(again) != ev.EncodedSize() || !bytes.Equal(again[:n], frame[:n]) {
			t.Fatalf("frame % x re-encodes to % x: header and body differ", frame, again)
		}
		if ev.TraceID == 0 {
			ev.SpanID = 0
		}
		if back, err := DecodeEnvelopeBorrow(again); err != nil || !reflect.DeepEqual(back, ev) {
			t.Fatalf("re-encoded frame decodes to %+v (%v), was %+v", back, err, ev)
		}
	})
}
