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

// get is Lookup for a key's cached reply alone.
func get(c *ReplyCache, key OpKey) (CachedReply, bool) {
	r, replied, _ := c.Lookup(key, 0)
	return r, replied
}

// TestReplyCachePutGet: a started operation is running until its reply
// is put, then its reply comes back under its op key; unknown keys miss,
// and both the origin and the incarnation distinguish keys.
func TestReplyCachePutGet(t *testing.T) {
	c := NewReplyCache(time.Minute)
	key := OpKey{Origin: "vax1", Inc: 30, Seq: 7}
	if _, ok := get(c, key); ok {
		t.Fatal("empty cache hit")
	}
	c.Start(key, 0)
	if _, replied, running := c.Lookup(key, 0); replied || !running {
		t.Fatalf("started op: replied %v, running %v; want running", replied, running)
	}
	c.Put(key, MsgControlResp, []byte("resp"), 0)
	r, ok, running := c.Lookup(key, 0)
	if !ok || running || r.Type != MsgControlResp || string(r.Body) != "resp" {
		t.Fatalf("lookup = %+v replied=%v running=%v", r, ok, running)
	}
	if _, ok := get(c, OpKey{Origin: "vax2", Inc: 30, Seq: 7}); ok {
		t.Fatal("same op from another origin must be a distinct key")
	}
	if _, ok := get(c, OpKey{Origin: "vax1", Inc: 31, Seq: 7}); ok {
		t.Fatal("same op from another incarnation must be a distinct key")
	}
}

// TestReplyCacheEvictsByAge: entries older than the window are evicted
// on the next insertion; entries still inside it survive any amount of
// churn (a count bound would let a burst evict a replayable entry).
// Re-putting an existing key overwrites in place.
func TestReplyCacheEvictsByAge(t *testing.T) {
	c := NewReplyCache(time.Minute)
	c.Put(OpKey{Origin: "h", Inc: 1, Seq: 1}, MsgPong, []byte("1"), 0)
	c.Put(OpKey{Origin: "h", Inc: 1, Seq: 2}, MsgPong, []byte("2"), 30*time.Second)
	c.Put(OpKey{Origin: "h", Inc: 1, Seq: 1}, MsgPong, []byte("1b"), 40*time.Second) // overwrite, no growth
	if c.Len() != 2 {
		t.Fatalf("len = %d after overwrite", c.Len())
	}
	// At t=70s op 1 (inserted at t=0) has outlived the window; op 2 has
	// not.
	c.Put(OpKey{Origin: "h", Inc: 1, Seq: 3}, MsgPong, []byte("3"), 70*time.Second)
	if _, ok := get(c, OpKey{Origin: "h", Inc: 1, Seq: 1}); ok {
		t.Fatal("expired entry survived eviction")
	}
	for _, op := range []uint64{2, 3} {
		if _, ok := get(c, OpKey{Origin: "h", Inc: 1, Seq: op}); !ok {
			t.Fatalf("op %d evicted while still in the window", op)
		}
	}
	// Another origin's entry ages out the same way: at t=140s ops 2
	// and 3 (t=30s, 70s) have outlived the window too.
	c.Put(OpKey{Origin: "g", Inc: 5, Seq: 1}, MsgPong, []byte("g"), 140*time.Second)
	if _, ok := get(c, OpKey{Origin: "h", Inc: 1, Seq: 3}); ok || c.Len() != 1 {
		t.Fatalf("another origin's put left %d entries, want only its own", c.Len())
	}
}

// TestReplyCacheWindowBoundsChurn: a non-positive window falls back to
// the default, and steady traffic keeps only the live window resident.
func TestReplyCacheWindowBoundsChurn(t *testing.T) {
	c := NewReplyCache(0)
	step := time.Second
	for op := uint64(1); op <= 1000; op++ {
		c.Put(OpKey{Origin: "h", Inc: 1, Seq: op}, MsgPong, nil, time.Duration(op)*step)
	}
	want := int(defaultReplyCacheWindow/step) + 1 // entries within the window
	if c.Len() != want {
		t.Fatalf("len = %d, want %d (one window of traffic)", c.Len(), want)
	}
}

// TestReplyCachePurgeIncarnation: purging one incarnation removes
// exactly its replies and running marks and leaves other incarnations
// and origins alone.
func TestReplyCachePurgeIncarnation(t *testing.T) {
	c := NewReplyCache(time.Minute)
	c.Put(OpKey{Origin: "a", Inc: 1, Seq: 1}, MsgPong, nil, 0)
	c.Put(OpKey{Origin: "a", Inc: 1, Seq: 2}, MsgPong, nil, 0)
	c.Put(OpKey{Origin: "a", Inc: 2, Seq: 1}, MsgPong, nil, 0)
	c.Put(OpKey{Origin: "b", Inc: 1, Seq: 1}, MsgPong, nil, 0)
	c.Start(OpKey{Origin: "a", Inc: 1, Seq: 3}, 0)
	c.Start(OpKey{Origin: "b", Inc: 1, Seq: 2}, 0)
	if n := c.Purge("a", 1); n != 2 {
		t.Fatalf("purged %d entries, want 2", n)
	}
	if _, _, running := c.Lookup(OpKey{Origin: "a", Inc: 1, Seq: 3}, 0); running || c.Running() != 1 {
		t.Fatalf("%d operations still marked running after the purge, want b's one", c.Running())
	}
	if _, ok := get(c, OpKey{Origin: "a", Inc: 1, Seq: 1}); ok {
		t.Fatal("purged entry still present")
	}
	for _, key := range []OpKey{{Origin: "a", Inc: 2, Seq: 1}, {Origin: "b", Inc: 1, Seq: 1}} {
		if _, ok := get(c, key); !ok {
			t.Fatalf("unrelated entry %s purged", key)
		}
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d after purge, want 2", c.Len())
	}
	// A new incarnation takes the purged one's place in the table.
	c.Put(OpKey{Origin: "a", Inc: 3, Seq: 1}, MsgPong, nil, 0)
	for _, key := range []OpKey{{Origin: "a", Inc: 2, Seq: 1}, {Origin: "b", Inc: 1, Seq: 1}, {Origin: "a", Inc: 3, Seq: 1}} {
		if _, ok := get(c, key); !ok {
			t.Fatalf("entry %s missing after a new incarnation arrived", key)
		}
	}
	if _, ok := get(c, OpKey{Origin: "a", Inc: 1, Seq: 2}); ok || len(c.incs) != 3 {
		t.Fatalf("purged incarnation answers, or the table grew to %d places", len(c.incs))
	}
}
