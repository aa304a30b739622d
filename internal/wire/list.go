package wire

import (
	"bytes"
	"encoding/binary"
	"math"

	"ppm/internal/proc"
	"ppm/internal/ring"
)

// List is a counted list held in its wire form: the element count and
// the elements' encoding, byte for byte as the list's walk wrote them.
// A flood's interior hops append whole lists without reading an element
// (Splice); only the origin reads them, once (Values). A list holds at
// most math.MaxUint16 elements, the most its count can say: Add and
// Splice stop there, so a list is always what encoding its values one
// after the other would write.
type List[T proc.Info | string] struct {
	n int
	b []byte // the elements, without the count
}

// Listed walks a counted list held in wire form. Decoding finds the
// list's end by walking its elements in the skip direction — the reads,
// and so the short-buffer checks, of decoding them, plus a check that
// the count is not beyond the bytes left — and keeps their
// bytes: a copy under Decode, the input itself under DecodeHop.
func Listed[T proc.Info | string](c *Coder, p *List[T]) {
	if !c.decoding {
		c.e.U16(uint16(p.n))
		c.e.buf = append(c.e.buf, p.b...)
		return
	}
	n, start := int(c.d.U16()), c.d.off
	if n > c.d.remaining() { // every element takes at least a 2-byte length
		c.d.err = errShortBuffer
	}
	skip[T](c, n)
	b := c.d.buf[start:c.d.off:c.d.off]
	switch {
	case c.d.err != nil || n == 0:
		*p = List[T]{}
	case c.names == nil:
		*p = List[T]{n: n, b: bytes.Clone(b)}
	default:
		*p = List[T]{n: n, b: b}
	}
}

// skip reads past n list elements, stopping at a short read.
func skip[T proc.Info | string](c *Coder, n int) {
	c.skipping = true
	var x T
	for i := 0; c.More(i, n); i++ {
		elem(c, &x)
	}
	c.skipping = false
}

// elem walks one list element.
func elem[T proc.Info | string](c *Coder, p *T) {
	switch p := any(p).(type) {
	case *proc.Info:
		c.Info(p)
	case *string:
		c.Str(p)
	}
}

// size is the length of the elements' wire form.
func (l *List[T]) size() int { return len(l.b) }

// Add appends v.
func (l *List[T]) Add(v T) {
	if l.n == math.MaxUint16 {
		return
	}
	c := Coder{e: Encoder{buf: l.b}}
	c.Size(96)
	elem(&c, &v)
	l.n, l.b = l.n+1, c.e.buf
}

// Splice appends o's elements, byte for byte, copied into l's buffer:
// o's may be reused as soon as Splice returns.
func (l *List[T]) Splice(o List[T]) {
	k := min(o.n, math.MaxUint16-l.n)
	if k < o.n { // the first k elements only
		c := Coder{d: decoder{buf: o.b}, decoding: true}
		skip[T](&c, k)
		o.b = o.b[:c.d.off]
	}
	l.b = append(l.b, o.b...)
	l.n += k
}

// AddBytes appends to a string list the element whose bytes are b, a
// message's wire form; nothing when b is empty or longer than a
// string's length can say.
func AddBytes(l *List[string], b []byte) {
	if l.n == math.MaxUint16 || len(b) == 0 || len(b) > math.MaxUint16 {
		return
	}
	l.b = append(binary.BigEndian.AppendUint16(l.b, uint16(len(b))), b...)
	l.n++
}

// Reset empties l to be filled again in the buffer it wrote. A list
// decoded in place (DecodeHop) holds its input, capped: Add and Splice
// copy it out before writing, so only a list they built is Reset.
func (l *List[T]) Reset() { *l = List[T]{b: l.b[:0]} }

// Values decodes the elements, each string read through names as
// DecodeHop reads it (nil: copied).
func (l List[T]) Values(names *ring.Names) []T {
	if l.n == 0 {
		return nil
	}
	c := Coder{d: decoder{buf: l.b}, decoding: true, names: names}
	out := make([]T, l.n)
	for i := range out {
		elem(&c, &out[i])
	}
	return out
}

// Strings reads a string list's elements in place, first to last.
type Strings struct {
	d    decoder
	left int
}

// StringsOf returns a reader over l's elements.
func StringsOf(l List[string]) Strings {
	return Strings{d: decoder{buf: l.b}, left: l.n}
}

// Next returns the next element, aliasing the list, or false after the
// last.
func (s *Strings) Next() ([]byte, bool) {
	if s.left == 0 {
		return nil, false
	}
	s.left--
	return s.d.raw(), true
}
