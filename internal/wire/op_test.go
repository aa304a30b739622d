package wire

import (
	"testing"
	"time"
)

// TestEnvelopeOpIDTrailerRoundTrip: the operation identity rides the
// optional trailer and comes back on decode, alongside the trace
// context when both are present.
func TestEnvelopeOpIDTrailerRoundTrip(t *testing.T) {
	ev := Envelope{Type: MsgControl, ReqID: 42, Body: []byte("body"), OpID: 99}
	out, err := DecodeEnvelopeBorrow(ev.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if out.OpID != 99 {
		t.Fatalf("op id lost: got %d, want 99", out.OpID)
	}
	if out.Type != ev.Type || out.ReqID != ev.ReqID || string(out.Body) != "body" {
		t.Fatalf("payload corrupted by trailer: %+v", out)
	}

	ev.SetTrace(7, 13)
	out, err = DecodeEnvelopeBorrow(ev.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if out.OpID != 99 || out.TraceID != 7 || out.SpanID != 13 {
		t.Fatalf("combined trailers lost: %+v", out)
	}
}

// TestEnvelopeWithoutOpIDUnchanged: without an operation identity the
// frame is byte-identical to the pre-trailer format, and retransmitting
// the same op under a new ReqID changes only the ReqID field.
func TestEnvelopeWithoutOpIDUnchanged(t *testing.T) {
	ev := Envelope{Type: MsgPing, ReqID: 9, Body: []byte("xyz")}
	b := ev.Encode()
	if want := 14 + len(ev.Body); len(b) != want {
		t.Fatalf("op-less envelope is %d bytes, want %d", len(b), want)
	}
	out, err := DecodeEnvelopeBorrow(b)
	if err != nil {
		t.Fatal(err)
	}
	if out.OpID != 0 {
		t.Fatalf("op-less envelope decoded with op id %d", out.OpID)
	}
}

// TestEnvelopeZeroPaddingIsNotAnOp: trailing zero bytes must not be
// misread as an operation-identity trailer.
func TestEnvelopeZeroPaddingIsNotAnOp(t *testing.T) {
	ev := Envelope{Type: MsgPing, ReqID: 1, Body: []byte("p")}
	b := append(ev.Encode(), make([]byte, 32)...)
	out, err := DecodeEnvelopeBorrow(b)
	if err != nil {
		t.Fatal(err)
	}
	if out.OpID != 0 {
		t.Fatalf("zero padding decoded as op id %d", out.OpID)
	}
}

// TestReplyCachePutGet: cached replies come back under their op key;
// unknown keys miss, and both the origin and the incarnation
// distinguish keys.
func TestReplyCachePutGet(t *testing.T) {
	c := NewReplyCache(time.Minute)
	key := OpKey("vax1", 30, 7)
	if _, ok := c.Get(key); ok {
		t.Fatal("empty cache hit")
	}
	c.Put(key, MsgControlResp, []byte("resp"), 0)
	r, ok := c.Get(key)
	if !ok || r.Type != MsgControlResp || string(r.Body) != "resp" {
		t.Fatalf("get = %+v ok=%v", r, ok)
	}
	if _, ok := c.Get(OpKey("vax2", 30, 7)); ok {
		t.Fatal("same op from another origin must be a distinct key")
	}
	if _, ok := c.Get(OpKey("vax1", 31, 7)); ok {
		t.Fatal("same op from another incarnation must be a distinct key")
	}
}

// TestReplyCacheEvictsByAge: entries older than the window are evicted
// on the next insertion; entries still inside it survive any amount of
// churn (a count bound would let a burst evict a replayable entry).
// Re-putting an existing key overwrites in place.
func TestReplyCacheEvictsByAge(t *testing.T) {
	c := NewReplyCache(time.Minute)
	c.Put(OpKey("h", 1, 1), MsgPong, []byte("1"), 0)
	c.Put(OpKey("h", 1, 2), MsgPong, []byte("2"), 30*time.Second)
	c.Put(OpKey("h", 1, 1), MsgPong, []byte("1b"), 40*time.Second) // overwrite, no growth
	if c.Len() != 2 {
		t.Fatalf("len = %d after overwrite", c.Len())
	}
	// At t=70s op 1 (inserted at t=0) has outlived the window; op 2 has
	// not.
	c.Put(OpKey("h", 1, 3), MsgPong, []byte("3"), 70*time.Second)
	if _, ok := c.Get(OpKey("h", 1, 1)); ok {
		t.Fatal("expired entry survived eviction")
	}
	for _, op := range []uint64{2, 3} {
		if _, ok := c.Get(OpKey("h", 1, op)); !ok {
			t.Fatalf("op %d evicted while still in the window", op)
		}
	}
}

// TestReplyCacheWindowBoundsChurn: a non-positive window falls back to
// the default, and steady traffic keeps only the live window resident.
func TestReplyCacheWindowBoundsChurn(t *testing.T) {
	c := NewReplyCache(0)
	step := time.Second
	for op := uint64(1); op <= 1000; op++ {
		c.Put(OpKey("h", 1, op), MsgPong, nil, time.Duration(op)*step)
	}
	want := int(defaultReplyCacheWindow/step) + 1 // entries within the window
	if c.Len() != want {
		t.Fatalf("len = %d, want %d (one window of traffic)", c.Len(), want)
	}
}

// TestReplyCachePurgePrefix: purging one incarnation's prefix removes
// exactly its entries and leaves other incarnations and origins alone.
func TestReplyCachePurgePrefix(t *testing.T) {
	c := NewReplyCache(time.Minute)
	c.Put(OpKey("a", 1, 1), MsgPong, nil, 0)
	c.Put(OpKey("a", 1, 2), MsgPong, nil, 0)
	c.Put(OpKey("a", 2, 1), MsgPong, nil, 0)
	c.Put(OpKey("b", 1, 1), MsgPong, nil, 0)
	if n := c.PurgePrefix(OpPrefix("a", 1)); n != 2 {
		t.Fatalf("purged %d entries, want 2", n)
	}
	if _, ok := c.Get(OpKey("a", 1, 1)); ok {
		t.Fatal("purged entry still present")
	}
	for _, key := range []string{OpKey("a", 2, 1), OpKey("b", 1, 1)} {
		if _, ok := c.Get(key); !ok {
			t.Fatalf("unrelated entry %s purged", key)
		}
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d after purge, want 2", c.Len())
	}
}
