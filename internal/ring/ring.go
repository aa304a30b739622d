// Package ring holds the bounded containers the PPM's record keepers
// share: Buffer, a ring that overwrites its oldest element (the LPM's
// history store, the flight recorder), with a Queue beside it for what
// its elements keep out of line; Window, a map whose entries expire a
// fixed span of virtual time after insertion (cached replies, in-flight
// operation markers, broadcast-stamp dedup); and Names, the table of
// names their records index and the wire decodes through. All are
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
	span time.Duration
	// queue holds each entry once, in insertion order; queue[head:] are
	// not yet expired. queue[i] is at position base+i, which dropping the
	// drained prefix (advancing base) leaves valid.
	queue      []item[K, V]
	head, base int
	// index maps each held key to its entry's position. A Go map taking an
	// insertion per deletion grows though its contents do not, so once puts,
	// its insertions since it was filled, outnumber its entries it is cleared
	// (keeping its table) and refilled; peak is its most entries since made.
	index      map[K]int
	puts, peak int
	// Evicted, if set, takes each value expiry or Purge drops, for reuse.
	Evicted func(V)
}

// item is one entry of the queue; a deleted one stays queued, dead,
// until it expires or the queue is compacted.
type item[K comparable, V any] struct {
	key  K
	v    V
	at   time.Duration
	dead bool
}

// NewWindow creates a window retaining each entry for span of virtual
// time after its insertion.
func NewWindow[K comparable, V any](span time.Duration) *Window[K, V] {
	return &Window[K, V]{span: span, index: make(map[K]int)}
}

// Get returns the value held under key. It expires nothing: callers
// that need a fresh view Expire first.
func (w *Window[K, V]) Get(key K) (v V, ok bool) {
	i, ok := w.index[key]
	if ok {
		v = w.queue[i-w.base].v
	}
	return v, ok
}

// Put stores v under key at virtual time now, after expiring what now
// has outlived. Re-putting a held key replaces its value in place: the
// entry keeps its original age.
func (w *Window[K, V]) Put(key K, v V, now time.Duration) {
	w.Expire(now)
	if i, ok := w.index[key]; ok {
		w.queue[i-w.base].v = v
		return
	}
	w.index[key] = w.base + len(w.queue)
	w.queue = append(w.queue, item[K, V]{key: key, v: v, at: now})
	w.peak = max(w.peak, len(w.index))
	if w.puts++; w.puts > max(len(w.index), 64) {
		w.Purge(nil)
	}
}

// Delete drops key ahead of its expiry. Its entry stays queued, dead,
// until it expires, unless such entries are most of the queue: then the
// queue is compacted, so a window whose entries mostly leave by Delete
// (in-flight markers) queues about as many entries as it holds.
func (w *Window[K, V]) Delete(key K) {
	if i, ok := w.index[key]; ok {
		delete(w.index, key)
		w.queue[i-w.base] = item[K, V]{at: w.queue[i-w.base].at, dead: true}
	}
	if q := len(w.queue) - w.head; q >= 64 && q > 4*len(w.index) {
		w.Purge(nil)
	}
}

// Expire drops every entry older than the span at virtual time now. An
// entry exactly span old is still held.
func (w *Window[K, V]) Expire(now time.Duration) {
	for w.head < len(w.queue) {
		e := &w.queue[w.head]
		if now-e.at <= w.span {
			break
		}
		w.head++
		if !e.dead {
			delete(w.index, e.key)
			if w.Evicted != nil {
				w.Evicted(e.v)
			}
		}
		*e = item[K, V]{}
	}
	// Reclaim the drained prefix in place once it is a quarter of the
	// queue: the footprint stays close to the live entries, and a steady
	// stream of entries, or of bursts up to 64, allocates nothing for it.
	if w.head > len(w.queue)/4 {
		n := copy(w.queue, w.queue[w.head:])
		clear(w.queue[n:])
		w.queue, w.base, w.head = w.queue[:n], w.base+w.head, 0
		if cap(w.queue) > 4*n+64 { // drained after a burst: give the peak back
			w.queue = append([]item[K, V](nil), w.queue...)
		}
	}
}

// Purge drops every entry whose key drop (if set) reports and reports how
// many were dropped. The survivors keep their order: the queue is cut to
// them in place, and they are indexed afresh, in a new map if the old
// one was sized for far more of them.
func (w *Window[K, V]) Purge(drop func(K) bool) int {
	if n := len(w.index); w.peak > 4*n+64 {
		w.index, w.peak = make(map[K]int, n), n
	} else {
		clear(w.index)
	}
	n, dropped := 0, 0
	for _, e := range w.queue[w.head:] {
		switch {
		case e.dead:
		case drop != nil && drop(e.key):
			if w.Evicted != nil {
				w.Evicted(e.v)
			}
			dropped++
		default:
			w.index[e.key] = n
			w.queue[n] = e
			n++
		}
	}
	clear(w.queue[n:])
	w.queue, w.base, w.head, w.puts = w.queue[:n], 0, 0, 0
	return dropped
}

// Len returns the number of held entries.
func (w *Window[K, V]) Len() int { return len(w.index) }

// Names is a table of names, index ↔ string: index 0 is "", then each
// name in order of first sight. cache remembers, per hash of a name, the
// index last matched, so a held name seldom reaches the map.
type Names struct {
	names []string
	index map[string]uint32
	cache [256]uint32
}

// NewNames returns a table holding only "".
func NewNames() *Names { return &Names{names: []string{""}, index: make(map[string]uint32)} }

// Cached returns s's index if the cache holds it. It inlines, so a held
// name costs its caller no call; Index is the way in for the rest.
//
//ppmlint:hotpath pin=TestNamesZeroAllocs
func (n *Names) Cached(s string) (uint32, bool) {
	if s == "" {
		return 0, true
	}
	i := n.cache[nameHash(s)]
	return i, n.names[i] == s
}

// Index returns s's index, adding s on first sight: it never refuses
// the owner's own names.
//
//ppmlint:hotpath pin=TestNamesZeroAllocs
func (n *Names) Index(s string) uint32 {
	if i, ok := n.Cached(s); ok {
		return i
	}
	i, ok := n.index[s]
	if !ok {
		i = uint32(len(n.names))
		n.names = append(n.names, s)
		n.index[s] = i
	}
	n.cache[nameHash(s)] = i
	return i
}

// Intern returns the string b spells, the table's own if it holds one,
// so a name read off the wire before costs no allocation. It adds b only
// while the table holds fewer than 1,024 names: what peers naming
// ever-new ones can pin.
//
//ppmlint:hotpath pin=TestNamesZeroAllocs
func (n *Names) Intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	h := nameHash(b)
	if s := n.names[n.cache[h]]; s == string(b) {
		return s
	}
	if i, ok := n.index[string(b)]; ok {
		n.cache[h] = i
		return n.names[i]
	}
	if len(n.names) >= 1024 {
		return string(b)
	}
	return n.names[n.Index(string(b))]
}

// Name returns the name at index i.
func (n *Names) Name(i uint32) string { return n.names[i] }

// Len returns the number of indices in use, "" included.
func (n *Names) Len() int { return len(n.names) }

// nameHash files a name in the cache by its length and its first,
// middle and last bytes: cheap, and apart for the dozen names of an
// installation.
func nameHash[T string | []byte](s T) uint8 {
	n := len(s)
	return uint8((uint32(n) | uint32(s[0])<<8 | uint32(s[n/2])<<16 | uint32(s[n-1])<<24) * 0x9E3779B1 >> 24)
}
