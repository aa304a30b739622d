// Package ring holds the bounded containers the PPM's record keepers
// share: Buffer, a ring that overwrites its oldest element (the LPM's
// history store, the flight recorder), with a Queue beside it for what
// its elements keep out of line, and Window, a map whose entries expire
// a fixed span of virtual time after insertion (cached replies,
// in-flight operation markers, broadcast-stamp dedup). All are
// single-goroutine, like the simulation they serve.
package ring

import (
	"time"
)

// Buffer is a bounded FIFO: once capacity elements are held, each Push
// overwrites the oldest in O(1).
type Buffer[T any] struct {
	capacity int
	// chunks are blocks of chunkLen slots (the last one shorter when the
	// bound is not a multiple), added as the buffer first fills: a large
	// bound costs nothing until it is used, and growing neither copies
	// what is held nor keeps more than one block of slack.
	chunks [][]T
	// flat replaces chunks the moment the buffer first fills: one array
	// of exactly capacity slots, which wastes nothing on allocator size
	// classes — what a ring that runs full for the rest of its life
	// should cost.
	flat  []T
	start int // slot of the oldest element
	count int
}

// chunkLen is the number of slots in a block: 1.5 KiB of history or
// journal slots.
const chunkLen = 32

// NewBuffer creates a buffer retaining at most capacity elements
// (capacity must be positive).
func NewBuffer[T any](capacity int) *Buffer[T] {
	return &Buffer[T]{capacity: capacity}
}

func (b *Buffer[T]) slot(i int) *T {
	if b.flat != nil {
		return &b.flat[i]
	}
	return &b.chunks[i/chunkLen][i%chunkLen]
}

// Next makes room for one more element, the newest, and returns its
// slot for the caller to fill in place. When the buffer was full the
// slot is the oldest element's, which it still holds, and evicted is
// true; otherwise the slot may hold what a Reset discarded.
//
//ppmlint:hotpath pin=TestJournalAppendZeroAllocs
func (b *Buffer[T]) Next() (p *T, evicted bool) {
	if b.count == b.capacity {
		p = b.slot(b.start)
		if b.start++; b.start == b.capacity {
			b.start = 0
		}
		return p, true
	}
	// Below capacity start is 0 (only eviction moves it, Reset zeroes
	// it) and the elements occupy slots [0, count).
	if b.flat == nil && b.count == len(b.chunks)*chunkLen {
		b.grow()
	}
	b.count++
	if b.count == b.capacity && b.flat == nil {
		b.flatten()
	}
	return b.slot(b.count - 1), false
}

// grow adds the next block, never past the bound: a full buffer holds
// exactly capacity slots.
func (b *Buffer[T]) grow() {
	b.chunks = append(b.chunks, make([]T, min(chunkLen, b.capacity-len(b.chunks)*chunkLen)))
}

func (b *Buffer[T]) flatten() {
	b.flat = make([]T, 0, b.capacity)
	for _, c := range b.chunks {
		b.flat = append(b.flat, c...)
	}
	b.chunks = nil
}

// Len returns the number of retained elements.
func (b *Buffer[T]) Len() int { return b.count }

// Slots returns the number of slots b has allocated, retained or not.
func (b *Buffer[T]) Slots() int {
	n := cap(b.flat)
	for _, c := range b.chunks {
		n += cap(c)
	}
	return n
}

// At returns the i-th retained element, oldest first.
func (b *Buffer[T]) At(i int) T {
	if i += b.start; i >= b.capacity { // i < count <= capacity: no division
		i -= b.capacity
	}
	return *b.slot(i)
}

// Reset discards every retained element, keeping the slots.
func (b *Buffer[T]) Reset() { b.start, b.count = 0, 0 }

// Queue is an unbounded FIFO kept beside a Buffer for what some of its
// elements hold out of line: pushed as such an element is appended,
// popped as it is evicted, so the two stay in step. It grows by
// doubling, so a steady mix stops allocating once the queue holds the
// most that the buffer retains at once.
type Queue[T any] struct {
	buf     []T
	head, n int
}

// Push appends v.
func (q *Queue[T]) Push(v T) {
	if q.n == len(q.buf) {
		buf := make([]T, max(8, 2*q.n))
		copy(buf[copy(buf, q.buf[q.head:]):], q.buf[:q.head])
		q.buf, q.head = buf, 0
	}
	q.buf[(q.head+q.n)%len(q.buf)] = v
	q.n++
}

// Pop drops the oldest element, zeroing its slot so that nothing it
// referenced is kept alive.
func (q *Queue[T]) Pop() {
	var zero T
	q.buf[q.head] = zero
	q.head = (q.head + 1) % len(q.buf)
	q.n--
}

// At returns the i-th queued element, oldest first.
func (q *Queue[T]) At(i int) T { return q.buf[(q.head+i)%len(q.buf)] }

// Len returns the number of queued elements.
func (q *Queue[T]) Len() int { return q.n }

// Reset drops every element, keeping the slots.
func (q *Queue[T]) Reset() {
	clear(q.buf)
	q.head, q.n = 0, 0
}

// Window is a map whose entries are dropped once they have outlived a
// fixed span of virtual time. Insertion order is virtual-time order
// under the single-threaded simulation, so expiry inspects exactly the
// expired entries plus one.
type Window[K comparable, V any] struct {
	span  time.Duration
	live  map[K]aged[V]
	order []slot[K] // insertion order; order[head:] are not yet expired
	head  int
	// puts counts insertions since live was built. A Go map that takes
	// an insertion for every deletion keeps growing although what it
	// holds does not, so live is rebuilt to size once the insertions
	// outnumber its entries several times over (a map of a few dozen
	// entries has too few to grow that way).
	puts int
	// Evicted, if set, takes each value expiry or Purge drops, for reuse.
	Evicted func(V)
}

type aged[V any] struct {
	v  V
	at time.Duration
}

// slot is one entry of the expiry queue, naming the insertion it
// describes.
type slot[K comparable] struct {
	key K
	at  time.Duration
}

// NewWindow creates a window retaining each entry for span of virtual
// time after its insertion.
func NewWindow[K comparable, V any](span time.Duration) *Window[K, V] {
	return &Window[K, V]{span: span, live: make(map[K]aged[V])}
}

// Get returns the value held under key. It expires nothing: callers
// that need a fresh view Expire first.
func (w *Window[K, V]) Get(key K) (V, bool) {
	e, ok := w.live[key]
	return e.v, ok
}

// Put stores v under key at virtual time now, after expiring what now
// has outlived. Re-putting a held key replaces its value in place: the
// entry keeps its original age.
func (w *Window[K, V]) Put(key K, v V, now time.Duration) {
	w.Expire(now)
	if e, ok := w.live[key]; ok {
		e.v = v
		w.live[key] = e
		return
	}
	w.live[key] = aged[V]{v: v, at: now}
	w.order = append(w.order, slot[K]{key: key, at: now})
	if w.puts++; len(w.live) >= 64 && w.puts > 4*len(w.live) {
		w.rebuild()
	}
}

// rebuild moves the held entries into a map sized for them, in
// insertion order.
func (w *Window[K, V]) rebuild() {
	live := make(map[K]aged[V], len(w.live))
	for _, s := range w.order[w.head:] {
		if e, ok := w.live[s.key]; ok && e.at == s.at {
			live[s.key] = e
		}
	}
	w.live, w.puts = live, 0
}

// Delete drops key ahead of its expiry. Its slot stays queued until it
// expires, unless such slots are most of the queue: then the queue is
// cut to the held entries' slots, so a window whose entries mostly leave
// by Delete (in-flight markers) queues about as many slots as it holds.
func (w *Window[K, V]) Delete(key K) {
	delete(w.live, key)
	if q := len(w.order) - w.head; q >= 64 && q > 4*len(w.live) {
		w.filter(nil)
	}
}

// Expire drops every entry older than the span at virtual time now. An
// entry exactly span old is still held.
func (w *Window[K, V]) Expire(now time.Duration) {
	for w.head < len(w.order) {
		s := w.order[w.head]
		if now-s.at <= w.span {
			break
		}
		w.head++
		// The key may have been deleted and stored afresh since; only
		// drop the insertion this slot describes.
		if e, ok := w.live[s.key]; ok && e.at == s.at {
			delete(w.live, s.key)
			if w.Evicted != nil {
				w.Evicted(e.v)
			}
		}
	}
	// Reclaim the drained prefix in place once it is a quarter of the
	// queue: the footprint stays close to the live entries, and a steady
	// stream of entries allocates nothing for the queue.
	if w.head > len(w.order)/4 {
		n := copy(w.order, w.order[w.head:])
		clear(w.order[n:])
		w.order, w.head = w.order[:n], 0
		if cap(w.order) > 4*n+16 { // drained after a burst: give the peak back
			w.order = append([]slot[K](nil), w.order...)
		}
	}
}

// Purge drops every entry whose key drop reports and reports how many
// were dropped. The survivors keep their order.
func (w *Window[K, V]) Purge(drop func(K) bool) int { return w.filter(drop) }

// filter cuts the queue, in place, to the slots of held entries, less
// those drop (if set) reports, which it drops and counts.
func (w *Window[K, V]) filter(drop func(K) bool) int {
	n, dropped := 0, 0
	for _, s := range w.order[w.head:] {
		switch e, ok := w.live[s.key]; {
		case !ok || e.at != s.at: // deleted, or stored afresh later in the queue
		case drop != nil && drop(s.key):
			delete(w.live, s.key)
			if w.Evicted != nil {
				w.Evicted(e.v)
			}
			dropped++
		default:
			w.order[n] = s
			n++
		}
	}
	clear(w.order[n:])
	w.order, w.head = w.order[:n], 0
	return dropped
}

// Len returns the number of held entries.
func (w *Window[K, V]) Len() int { return len(w.live) }
