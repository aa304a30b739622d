package wire

import (
	"math"
	"time"

	"ppm/internal/proc"
	"ppm/internal/ring"
)

// Message is a body that crosses the wire. Fields visits every field
// once, in wire order, through the coder's field methods; the same walk
// encodes and decodes, so the two directions cannot drift apart — and
// simnet charges virtual time by encoded size, so a drift would be a
// silent change to the paper's tables. Fields has a pointer receiver
// and, where the size is known, starts with c.Size.
type Message interface {
	Fields(c *Coder)
}

// Encode returns m's wire form in a fresh buffer the caller owns.
//
// Encode and Decode reach the walk through an interface, and m and the
// coder stay off the heap only because both functions are small enough
// to inline: at a call site holding a concrete *T the compiler then
// devirtualizes m.Fields and sees that neither escapes. Keep them this
// small (no error wrapping, no generics — a generic Decode[M] is not
// devirtualized); TestBodyAllocs holds the counts and fails on a
// toolchain that stops inlining them.
func Encode(m Message) []byte {
	var c Coder
	m.Fields(&c)
	return c.e.buf
}

// EncodeTo is Encode into buf's storage, from its start: the buffer is
// grown only when m does not fit, and the caller reuses what it returns.
func EncodeTo(buf []byte, m Message) []byte {
	c := Coder{e: Encoder{buf: buf[:0]}}
	m.Fields(&c)
	return c.e.buf
}

// Decode fills m from its wire form b, overwriting every field. Zero
// padding or unknown trailing bytes after the last field are permitted.
// On error m holds the fields read before the buffer ran out.
func Decode(b []byte, m Message) error {
	c := Coder{d: decoder{buf: b}, decoding: true}
	m.Fields(&c)
	return c.d.err
}

// DecodeHop is Decode over a borrowed body — one that nothing else
// writes while m is in use, such as an arrival's for its dispatch —
// without copying it: byte fields and wire-form lists alias b, and each
// string is read through names, so a host name seen before costs no
// allocation.
func DecodeHop(b []byte, m Message, names *ring.Names) error {
	c := Coder{d: decoder{buf: b}, decoding: true, names: names}
	m.Fields(&c)
	return c.d.err
}

// Coder carries one walk over a message's fields: each field method
// takes a pointer and writes the field to the encoder or reads it from
// the decoder, according to the walk's direction.
type Coder struct {
	e        Encoder
	d        decoder
	decoding bool
	// skipping reads past strings without materializing them: the walk
	// a List runs over its elements to find where they end.
	skipping bool
	names    *ring.Names // DecodeHop's walk
}

// Size preallocates the encode buffer for a body of about n bytes; the
// size hint lives with the fields it sums. Decoding ignores it.
func (c *Coder) Size(n int) {
	if !c.decoding && c.e.buf == nil {
		c.e.buf = make([]byte, 0, n)
	}
}

// Bool walks a boolean as one byte; any nonzero byte decodes as true.
func (c *Coder) Bool(p *bool) {
	if c.decoding {
		*p = c.d.U8() != 0
	} else if *p {
		c.e.U8(1)
	} else {
		c.e.U8(0)
	}
}

// U8 walks one byte.
func (c *Coder) U8(p *uint8) {
	if c.decoding {
		*p = c.d.U8()
	} else {
		c.e.U8(*p)
	}
}

// U16 walks a big-endian 16-bit integer.
func (c *Coder) U16(p *uint16) {
	if c.decoding {
		*p = c.d.U16()
	} else {
		c.e.U16(*p)
	}
}

// U64 walks a big-endian 64-bit integer.
func (c *Coder) U64(p *uint64) {
	if c.decoding {
		*p = c.d.U64()
	} else {
		c.e.U64(*p)
	}
}

// I32 walks a big-endian signed 32-bit integer.
func (c *Coder) I32(p *int32) {
	if c.decoding {
		*p = int32(c.d.U32())
	} else {
		c.e.U32(uint32(*p))
	}
}

// I64 walks a big-endian signed 64-bit integer.
func (c *Coder) I64(p *int64) {
	if c.decoding {
		*p = int64(c.d.U64())
	} else {
		c.e.U64(uint64(*p))
	}
}

// Int walks an int that is 32 bits on the wire (signals, exit codes,
// table sizes).
func (c *Coder) Int(p *int) {
	if c.decoding {
		*p = int(int32(c.d.U32()))
	} else {
		c.e.U32(uint32(*p))
	}
}

// Enum walks an int-typed enumeration that is one byte on the wire
// (process states, event kinds).
func (c *Coder) Enum(p *int) {
	if c.decoding {
		*p = int(c.d.U8())
	} else {
		c.e.U8(uint8(*p))
	}
}

// Duration walks a time.Duration as signed 64-bit nanoseconds.
func (c *Coder) Duration(p *time.Duration) { c.I64((*int64)(p)) }

// Str walks a u16-length-prefixed string.
func (c *Coder) Str(p *string) {
	switch {
	case !c.decoding:
		c.e.String(*p)
	case c.skipping:
		c.d.raw()
	case c.names != nil:
		*p = c.names.Intern(c.d.raw())
	default:
		*p = c.d.String()
	}
}

// Bytes walks a u32-length-prefixed byte slice; the decoded slice is a
// copy, except under DecodeHop.
func (c *Coder) Bytes(p *[]byte) {
	switch {
	case !c.decoding:
		c.e.Bytes32(*p)
	case c.names != nil:
		*p = c.d.Bytes32Borrow()
	default:
		*p = c.d.Bytes32()
	}
}

// Strs walks a u16-counted list of strings.
func (c *Coder) Strs(p *[]string) {
	for i, n := 0, Len(c, p); c.More(i, n); i++ {
		c.Str(Elem(c, p, i))
	}
}

// Len walks the u16 element count that starts a counted list and
// returns how many elements follow. Decoding empties *p and sizes it
// for the count, but for no more elements than bytes left: a hostile
// count gets what the input can hold. Encoding cuts a longer list to
// the first math.MaxUint16, the most the count can say.
func Len[T any](c *Coder, p *[]T) int {
	if c.decoding {
		n := int(c.d.U16())
		if k := min(n, c.d.remaining()); cap(*p) < k {
			*p = make([]T, 0, k)
		}
		*p = (*p)[:0]
		return n
	}
	n := min(len(*p), math.MaxUint16)
	c.e.U16(uint16(n))
	return n
}

// Elem returns element i of a counted list for the walk to visit,
// appending a zero element first when decoding. Together with More it
// fills a decoded list with the elements actually present. (A list
// helper taking the per-element walk as a func would call it
// indirectly and push the coder and every element to the heap.)
func Elem[T any](c *Coder, p *[]T, i int) *T {
	if c.decoding {
		var zero T
		*p = append(*p, zero)
	}
	return &(*p)[i]
}

// More reports whether a counted list of n elements has an i-th to
// visit; decoding stops at the first short read.
func (c *Coder) More(i, n int) bool { return i < n && c.d.err == nil }

// GPID walks a network-global process identity.
func (c *Coder) GPID(p *proc.GPID) {
	c.Str(&p.Host)
	c.I32((*int32)(&p.PID))
}

// Rusage walks a resource-usage record.
func (c *Coder) Rusage(p *proc.Rusage) {
	c.Duration(&p.CPUTime)
	c.I64(&p.Syscalls)
	c.I64(&p.MsgsSent)
	c.I64(&p.MsgsRecv)
	c.I64(&p.MaxRSSKB)
}

// Info walks one process record.
func (c *Coder) Info(p *proc.Info) {
	c.GPID(&p.ID)
	c.GPID(&p.Parent)
	c.Str(&p.Name)
	c.Str(&p.User)
	c.Enum((*int)(&p.State))
	c.Rusage(&p.Rusage)
	c.Int(&p.ExitCode)
	c.Duration(&p.StartedAt)
	c.Duration(&p.ExitedAt)
}

// Event walks one process event. It is the whole of the kernel event
// message before its padding (EncodeKernelEvent).
func (c *Coder) Event(p *proc.Event) {
	c.Duration(&p.At)
	c.Enum((*int)(&p.Kind))
	c.GPID(&p.Proc)
	c.GPID(&p.Child)
	c.Int((*int)(&p.Signal))
	c.Str(&p.Detail)
	c.Rusage(&p.Rusage)
}

// Infos walks a counted list of process records.
func (c *Coder) Infos(p *[]proc.Info) {
	for i, n := 0, Len(c, p); c.More(i, n); i++ {
		c.Info(Elem(c, p, i))
	}
}

// Events walks a counted list of process events.
func (c *Coder) Events(p *[]proc.Event) {
	for i, n := 0, Len(c, p); c.More(i, n); i++ {
		c.Event(Elem(c, p, i))
	}
}
