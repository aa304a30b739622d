package wire

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestRoundTripScalars(t *testing.T) {
	e := NewEncoder(0)
	e.U8(7)
	e.U16(300)
	e.U32(70000)
	e.U64(1 << 40)
	e.String("hello")
	e.Bytes32([]byte{1, 2, 3})
	c := Coder{e: *e}
	c.Strs(&[]string{"a", "bb"})

	d := &decoder{buf: c.e.Bytes()}
	if d.U8() != 7 || d.U16() != 300 || d.U32() != 70000 || d.U64() != 1<<40 {
		t.Fatal("unsigned round trip failed")
	}
	if d.String() != "hello" {
		t.Fatal("string round trip failed")
	}
	if !bytes.Equal(d.Bytes32(), []byte{1, 2, 3}) {
		t.Fatal("bytes round trip failed")
	}
	var ss []string
	c = Coder{d: *d, decoding: true}
	c.Strs(&ss)
	if len(ss) != 2 || ss[0] != "a" || ss[1] != "bb" {
		t.Fatal("string slice round trip failed")
	}
	if c.d.err != nil {
		t.Fatal(c.d.err)
	}
	if c.d.remaining() != 0 {
		t.Fatalf("remaining = %d", c.d.remaining())
	}
}

func TestDecoderShortBufferSticky(t *testing.T) {
	d := &decoder{buf: []byte{0x01}}
	_ = d.U32() // needs 4 bytes
	if d.err == nil {
		t.Fatal("expected short-buffer error")
	}
	// Sticky: further reads return zero values and keep the error.
	if d.U8() != 0 || d.String() != "" || d.Bytes32() != nil {
		t.Fatal("post-error reads should return zero values")
	}
	if d.err == nil || d.err.Error() != "decode: wire: short buffer" {
		t.Fatalf("sticky error: %v", d.err)
	}
}

func TestDecoderStringLengthBeyondBuffer(t *testing.T) {
	e := NewEncoder(0)
	e.U16(100) // claims 100 bytes follow
	d := &decoder{buf: e.Bytes()}
	if d.String() != "" || d.err == nil {
		t.Fatal("oversized string length should fail")
	}
}

func TestDecoderBytes32HugeLengthRejected(t *testing.T) {
	e := NewEncoder(0)
	e.U32(1 << 30)
	d := &decoder{buf: e.Bytes()}
	if d.Bytes32() != nil || d.err == nil {
		t.Fatal("huge claimed length must not allocate or succeed")
	}
}

// TestDecoderStringSliceHugeCountRejected: a string list claiming 65535
// elements over an empty buffer fails, holding at most the one element
// its walk began (Decode leaves what it read before the short read).
func TestDecoderStringSliceHugeCountRejected(t *testing.T) {
	e := NewEncoder(0)
	e.U16(65535)
	c := Coder{d: decoder{buf: e.Bytes()}, decoding: true}
	var ss []string
	if c.Strs(&ss); cap(ss) > 1 || c.d.err == nil {
		t.Fatalf("huge claimed count must fail cleanly: %d slots, err %v", cap(ss), c.d.err)
	}
}

func TestPadReachesFixedSize(t *testing.T) {
	e := NewEncoder(0)
	e.String("x")
	e.pad(112)
	if len(e.Bytes()) != 112 {
		t.Fatalf("len = %d, want 112", len(e.Bytes()))
	}
	// pad never truncates.
	e.pad(50)
	if len(e.Bytes()) != 112 {
		t.Fatal("pad should not shrink the buffer")
	}
}

func TestBytes32ReturnsCopy(t *testing.T) {
	e := NewEncoder(0)
	e.Bytes32([]byte{1, 2, 3})
	raw := e.Bytes()
	d := &decoder{buf: raw}
	got := d.Bytes32()
	raw[4] = 99 // mutate the underlying buffer
	if got[0] != 1 {
		t.Fatal("Bytes32 must copy out of the shared buffer")
	}
}

func TestStringTruncatedAtU16Max(t *testing.T) {
	long := make([]byte, 70000)
	for i := range long {
		long[i] = 'a'
	}
	e := NewEncoder(0)
	e.String(string(long))
	d := &decoder{buf: e.Bytes()}
	s := d.String()
	if len(s) != 65535 {
		t.Fatalf("len = %d, want 65535", len(s))
	}
	if d.err != nil {
		t.Fatal(d.err)
	}
}

// Property: any sequence of (string, u64, u8) triples round-trips.
func TestPropertyTripleRoundTrip(t *testing.T) {
	f := func(ss []string, vs []uint64, bs []uint8) bool {
		n := len(ss)
		if len(vs) < n {
			n = len(vs)
		}
		if len(bs) < n {
			n = len(bs)
		}
		e := NewEncoder(0)
		for i := 0; i < n; i++ {
			s := ss[i]
			if len(s) > 1000 {
				s = s[:1000]
			}
			e.String(s)
			e.U64(vs[i])
			e.U8(bs[i])
		}
		d := &decoder{buf: e.Bytes()}
		for i := 0; i < n; i++ {
			s := ss[i]
			if len(s) > 1000 {
				s = s[:1000]
			}
			if d.String() != s || d.U64() != vs[i] || d.U8() != bs[i] {
				return false
			}
		}
		return d.err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: the decoder never panics on arbitrary input.
func TestPropertyDecoderRobustToGarbage(t *testing.T) {
	f := func(garbage []byte) bool {
		d := &decoder{buf: garbage}
		_ = d.String()
		_ = d.U64()
		_ = d.Bytes32()
		c := Coder{d: *d, decoding: true}
		var ss []string
		c.Strs(&ss)
		_ = c.d.U32()
		return true // reaching here (no panic) is the property
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
