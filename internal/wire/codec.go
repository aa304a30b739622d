// Package wire defines the PPM's on-the-wire protocol: a compact binary
// codec, the message types exchanged between tools, LPMs, the kernel
// and the process manager daemons, and the signed timestamps used to
// deduplicate broadcast requests.
//
// The encoding is deliberately explicit (fixed-width integers, length-
// prefixed strings) so that message sizes are deterministic; the
// simulated network charges transmission time by the encoded size, and
// the paper's kernel event messages are exactly 112 bytes.
package wire

import (
	"encoding/binary"
	"errors"
	"math"
	"sync"
)

// errShortBuffer reports a frame that ends before its declared content.
// The decoder stores it ready-made, so the entry points that hand it
// to callers return a field and stay inlinable (see Decode).
var errShortBuffer = errors.New("decode: wire: short buffer")

// Encoder builds a binary message. The zero value is ready to use.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an encoder with capacity preallocated.
func NewEncoder(capacity int) *Encoder {
	return &Encoder{buf: make([]byte, 0, capacity)}
}

// Reset empties the encoder, retaining the backing buffer so a
// long-lived encoder reaches a steady state where encoding allocates
// nothing. Bytes returned before the Reset are invalidated by it.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// encPool recycles the encoders Send frames into. A pooled encoder's
// frame is valid only until the encoder goes back, so Send returns it
// only once the network has copied the frame.
var encPool = sync.Pool{
	New: func() any { return NewEncoder(256) },
}

// Bytes returns the encoded buffer. The caller must not modify it while
// continuing to use the encoder.
func (e *Encoder) Bytes() []byte { return e.buf }

// U8 appends one byte.
func (e *Encoder) U8(v uint8) { e.buf = append(e.buf, v) }

// U16 appends a big-endian 16-bit integer.
func (e *Encoder) U16(v uint16) {
	e.buf = binary.BigEndian.AppendUint16(e.buf, v)
}

// U32 appends a big-endian 32-bit integer.
func (e *Encoder) U32(v uint32) {
	e.buf = binary.BigEndian.AppendUint32(e.buf, v)
}

// U64 appends a big-endian 64-bit integer.
func (e *Encoder) U64(v uint64) {
	e.buf = binary.BigEndian.AppendUint64(e.buf, v)
}

// String appends a length-prefixed UTF-8 string (u16 length).
func (e *Encoder) String(s string) {
	if len(s) > math.MaxUint16 {
		s = s[:math.MaxUint16]
	}
	e.U16(uint16(len(s)))
	e.buf = append(e.buf, s...)
}

// Bytes32 appends a length-prefixed byte slice (u32 length).
func (e *Encoder) Bytes32(b []byte) {
	e.U32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// decoder reads a binary message produced by Encoder. Errors are
// sticky: after the first failure all reads return zero values and err
// holds the failure.
type decoder struct {
	buf []byte
	off int
	err error
}

// remaining returns the number of unread bytes.
func (d *decoder) remaining() int { return len(d.buf) - d.off }

func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.off+n > len(d.buf) {
		d.err = errShortBuffer
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// U8 reads one byte.
func (d *decoder) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 reads a big-endian 16-bit integer.
func (d *decoder) U16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

// U32 reads a big-endian 32-bit integer.
func (d *decoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// U64 reads a big-endian 64-bit integer.
func (d *decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// String reads a length-prefixed string.
func (d *decoder) String() string { return string(d.raw()) }

// raw reads a length-prefixed string in place: the bytes alias the
// input.
func (d *decoder) raw() []byte { return d.take(int(d.U16())) }

// Bytes32 reads a u32-length-prefixed byte slice (copied).
func (d *decoder) Bytes32() []byte {
	b := d.Bytes32Borrow()
	if b == nil {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// Bytes32Borrow reads a u32-length-prefixed byte slice without
// copying: the result aliases the decoder's input buffer and is only
// valid while that buffer is. Callers that hand the slice to deferred
// work must use Bytes32 instead.
func (d *decoder) Bytes32Borrow() []byte {
	n := int(d.U32())
	if n > d.remaining() {
		d.err = errShortBuffer
		return nil
	}
	return d.take(n)
}
