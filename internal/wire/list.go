package wire

import (
	"bytes"
	"encoding/binary"
	"math"

	"ppm/internal/proc"
)

// List is a counted list held in its wire form: the element count and
// the elements' encoding, byte for byte as the list's walk wrote them.
// A flood's interior hops append whole lists without reading an element
// or copying one (Splice); only the origin reads them, once (Values). A
// list holds at most math.MaxUint16 elements, the most its count can
// say: Add and Splice stop there, so a list is always what encoding its
// values one after the other would write.
type List[T proc.Info | string] struct {
	n int
	b []byte // the elements, without the count: the first run of them
	// runs are further runs of whole elements after b: lists spliced in
	// as they were, aliased, not copied.
	runs [][]byte
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
		for _, r := range p.runs {
			c.e.buf = append(c.e.buf, r...)
		}
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
func (l *List[T]) size() int {
	n := len(l.b)
	for _, r := range l.runs {
		n += len(r)
	}
	return n
}

// last is the run an append goes to.
func (l *List[T]) last() *[]byte {
	if len(l.runs) > 0 {
		return &l.runs[len(l.runs)-1]
	}
	return &l.b
}

// Add appends v to the last run, which copies that run first when it
// is another list's.
func (l *List[T]) Add(v T) {
	if l.n == math.MaxUint16 {
		return
	}
	last := l.last()
	c := Coder{e: Encoder{buf: *last}}
	c.Size(96)
	elem(&c, &v)
	l.n, *last = l.n+1, c.e.buf
}

// Splice appends o's elements, byte for byte. A run of them shorter
// than bigRun is copied in; a longer one is taken as it is, as a run of
// l's, so o's buffers must stay unchanged while l is in use.
func (l *List[T]) Splice(o List[T]) {
	k := min(o.n, math.MaxUint16-l.n)
	if k < o.n { // the first k elements only
		o = o.prefix(k)
	}
	l.adopt(o.b)
	for _, r := range o.runs {
		l.adopt(r)
	}
	l.n += k
}

// bigRun is the length from which a spliced run is cheaper to point at
// than to copy: a few process records or status reports. A flood's
// interior hops then pass their subtrees' data up without copying it.
const bigRun = 64

// adopt appends a run of whole elements. A run taken as it is is capped,
// so that no append of l's can write into it. A short one is copied onto
// the last run, or, rather than copy a long last run along with it, into
// a new run with room for the next short ones. The first run is taken as
// it is unless l's own buffer (Reset) has room for it.
func (l *List[T]) adopt(run []byte) {
	last := l.last()
	switch {
	case len(run) == 0:
	case len(l.b) == 0 && cap(l.b) < len(run):
		l.b = run[:len(run):len(run)]
	case cap(*last)-len(*last) >= len(run) || len(run) < bigRun && len(*last) < bigRun:
		*last = append(*last, run...)
	case len(run) < bigRun:
		l.runs = append(l.runs, append(make([]byte, 0, 2*bigRun), run...))
	default:
		l.runs = append(l.runs, run[:len(run):len(run)])
	}
}

// prefix returns l's first k elements in a buffer of their own.
func (l List[T]) prefix(k int) List[T] {
	p := List[T]{n: k}
	for _, run := range append([][]byte{l.b}, l.runs...) {
		c := Coder{d: decoder{buf: run}, decoding: true}
		for ; k > 0 && c.d.off < len(run); k-- {
			skip[T](&c, 1)
		}
		p.b = append(p.b, run[:c.d.off]...)
	}
	return p
}

// ElementOf returns a string list whose one element is m's wire form,
// in one buffer: m is walked in, then moved up behind its length. The
// list is empty when the form is longer than a string's length can say.
func ElementOf(m Message) List[string] {
	b := Encode(m)
	n := len(b)
	if n > math.MaxUint16 {
		return List[string]{}
	}
	b = append(b, 0, 0) // Fields' size hint usually leaves the room
	copy(b[2:], b[:n])
	binary.BigEndian.PutUint16(b, uint16(n))
	return List[string]{n: 1, b: b}
}

// Reset empties l to be filled again, keeping its first run's buffer
// when l wrote it, and the slice of further runs, cleared. A run l took
// as it was is capped (adopt), so a first run with no room left may be
// another list's: it is dropped, like every further run, and a reset
// list pins nothing it spliced.
func (l *List[T]) Reset() {
	b := l.b[:0]
	if cap(l.b) == len(l.b) {
		b = nil
	}
	clear(l.runs)
	*l = List[T]{b: b, runs: l.runs[:0]}
}

// Values decodes the elements.
func (l List[T]) Values() []T {
	if l.n == 0 {
		return nil
	}
	c := Coder{d: decoder{buf: l.b}, decoding: true}
	out := make([]T, l.n)
	for i, next := 0, 0; i < len(out); i++ {
		for c.d.off == len(c.d.buf) && next < len(l.runs) {
			c.d, next = decoder{buf: l.runs[next]}, next+1
		}
		elem(&c, &out[i])
	}
	return out
}

// Strings reads a string list's elements in place, first to last.
type Strings struct {
	d    decoder
	runs [][]byte // the runs after d's
	left int
}

// StringsOf returns a reader over l's elements.
func StringsOf(l List[string]) Strings {
	return Strings{d: decoder{buf: l.b}, runs: l.runs, left: l.n}
}

// Next returns the next element, aliasing the list, or false after the
// last.
func (s *Strings) Next() ([]byte, bool) {
	if s.left == 0 {
		return nil, false
	}
	for s.d.off == len(s.d.buf) && len(s.runs) > 0 {
		s.d, s.runs = decoder{buf: s.runs[0]}, s.runs[1:]
	}
	s.left--
	return s.d.raw(), true
}
