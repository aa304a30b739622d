package wire

import (
	"ppm/internal/calib"
	"ppm/internal/proc"
)

// The fixed-size kernel event codec: only this package's tests call
// it (the simulated kernel hands LPMs typed events, not bytes), so it
// lives in a _test.go file, visible to package wire_test as well.

// EncodeKernelEvent produces the fixed-size 112-byte kernel-to-LPM
// event message of the paper's Table 1: the event walk, zero-padded.
// Long host names or details are truncated to keep the size fixed.
func EncodeKernelEvent(ev proc.Event) []byte {
	if len(ev.Detail) > 16 {
		ev.Detail = ev.Detail[:16]
	}
	if len(ev.Proc.Host) > 14 {
		ev.Proc.Host = ev.Proc.Host[:14]
	}
	if len(ev.Child.Host) > 14 {
		ev.Child.Host = ev.Child.Host[:14]
	}
	var c Coder
	c.Size(calib.KernelMsgBytes)
	c.Event(&ev)
	c.e.pad(calib.KernelMsgBytes)
	b := c.e.buf
	if len(b) > calib.KernelMsgBytes {
		b = b[:calib.KernelMsgBytes]
	}
	return b
}

// DecodeKernelEvent parses a kernel event message.
func DecodeKernelEvent(b []byte) (proc.Event, error) {
	c := Coder{d: decoder{buf: b}, decoding: true}
	var ev proc.Event
	c.Event(&ev)
	if c.d.err != nil {
		return proc.Event{}, c.d.err
	}
	return ev, nil
}

// pad appends zero bytes until the buffer reaches size. It is used to
// give kernel event messages their fixed 112-byte size. If the buffer
// already exceeds size, pad does nothing.
func (e *Encoder) pad(size int) {
	for len(e.buf) < size {
		e.buf = append(e.buf, 0)
	}
}

// ListOf returns vs in wire form. Only tests build a list from values:
// a flood adds its elements one at a time, into recycled buffers.
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
