package wire

import (
	"bytes"
	"math"

	"ppm/internal/proc"
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

// ListOf returns vs in wire form.
func ListOf[T proc.Info | string](vs ...T) List[T] {
	var l List[T]
	if len(vs) > 0 {
		l.b = make([]byte, 0, 96*len(vs)) // about a process record's size
	}
	for i := range vs {
		l.Add(vs[i])
	}
	return l
}

// Listed walks a counted list held in wire form. Decoding finds the
// list's end by walking its elements in the skip direction — the reads,
// and so the short-buffer checks, of decoding them, plus StringSlice's
// check that the count is not beyond the bytes left — and keeps their
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

// Splice appends o's elements, byte for byte. An empty list takes o's
// bytes without copying them; either list's next Add or Splice copies.
func (l *List[T]) Splice(o List[T]) {
	k, b := min(o.n, math.MaxUint16-l.n), o.b
	if k < o.n { // the first k elements only
		c := Coder{d: decoder{buf: b}, decoding: true}
		skip[T](&c, k)
		b = b[:c.d.off]
	}
	if l.b == nil {
		l.b = b[:len(b):len(b)]
	} else {
		l.b = append(l.b, b...)
	}
	l.n += k
}

// With returns l with v after it, in a buffer of its own.
func (l List[T]) With(v T) List[T] {
	var w List[T]
	w.Splice(l)
	w.Add(v)
	return w
}

// Values decodes the elements.
func (l List[T]) Values() []T {
	if l.n == 0 {
		return nil
	}
	c := Coder{d: decoder{buf: l.b}, decoding: true}
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
func StringsOf(l List[string]) Strings { return Strings{d: decoder{buf: l.b}, left: l.n} }

// Next returns the next element, aliasing the list, or false after the
// last.
func (s *Strings) Next() ([]byte, bool) {
	if s.left == 0 {
		return nil, false
	}
	s.left--
	return s.d.raw(), true
}
