package ring

import (
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestBuffer drives one buffer through a script of pushes and resets
// and checks what it retains: FIFO order below capacity, overwrite of
// the oldest at capacity, and reuse of the backing array after a reset.
func TestBuffer(t *testing.T) {
	cases := []struct {
		name     string
		capacity int
		pushes   int // values 1..pushes, in order
		resetAt  int // reset after this many pushes (0 = never)
		want     []int
		evicted  int
	}{
		{"empty", 4, 0, 0, []int{}, 0},
		{"below capacity", 4, 3, 0, []int{1, 2, 3}, 0},
		{"exactly full", 4, 4, 0, []int{1, 2, 3, 4}, 0},
		{"wrapped once", 4, 6, 0, []int{3, 4, 5, 6}, 2},
		{"wrapped many times", 3, 11, 0, []int{9, 10, 11}, 8},
		{"capacity one", 1, 3, 0, []int{3}, 2},
		{"reset below capacity", 4, 5, 2, []int{3, 4, 5}, 0},
		{"reset after wrapping", 3, 9, 5, []int{7, 8, 9}, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBuffer[int](tc.capacity)
			evicted := 0
			for v := 1; v <= tc.pushes; v++ {
				full, oldest := b.Len() == tc.capacity, 0
				if full {
					oldest = b.At(0)
				}
				p, ev := b.Next()
				if ev != full || ev && *p != oldest {
					t.Fatalf("Next() before %d = %d, %v; want the oldest's slot, %d, evicted iff full (%v)", v, *p, ev, oldest, full)
				}
				*p = v
				if ev {
					evicted++
				}
				if v == tc.resetAt {
					b.Reset()
					if b.Len() != 0 {
						t.Fatalf("Len after Reset = %d", b.Len())
					}
				}
			}
			if b.Len() != len(tc.want) {
				t.Fatalf("Len = %d, want %d", b.Len(), len(tc.want))
			}
			for i, w := range tc.want {
				if got := b.At(i); got != w {
					t.Fatalf("At(%d) = %d, want %d", i, got, w)
				}
			}
			if evicted != tc.evicted {
				t.Fatalf("evicted %d, want %d", evicted, tc.evicted)
			}
			if n := b.Slots(); n > tc.capacity {
				t.Fatalf("the buffer grew to %d slots under a bound of %d", n, tc.capacity)
			}
		})
	}
}

// TestBufferGrowsOnDemand: a large bound costs nothing until it is
// used — the slots track the retained count a block at a time, not the
// bound, and a bound that is not a whole number of blocks is still met
// exactly.
func TestBufferGrowsOnDemand(t *testing.T) {
	b := NewBuffer[int](1 << 16)
	for v := 0; v < 10; v++ {
		*slotOf(b.Next()) = v
	}
	if n := b.Slots(); n > chunkLen {
		t.Fatalf("10 elements under a 64Ki bound hold %d slots", n)
	}
	for v := 10; v < 3*chunkLen+1; v++ {
		*slotOf(b.Next()) = v
	}
	if n := b.Slots(); n != 4*chunkLen {
		t.Fatalf("%d elements hold %d slots, want %d", 3*chunkLen+1, n, 4*chunkLen)
	}

	const bound = 2*chunkLen + 5
	b = NewBuffer[int](bound)
	for v := 0; v < 3*bound; v++ {
		*slotOf(b.Next()) = v
	}
	if n := b.Slots(); n != bound || b.chunks != nil {
		t.Fatalf("a full buffer bounded at %d holds %d slots, %d of them in blocks", bound, n, n-cap(b.flat))
	}
	for i, want := 0, 2*bound; i < bound; i, want = i+1, want+1 {
		if got := b.At(i); got != want {
			t.Fatalf("At(%d) = %d, want %d", i, got, want)
		}
	}
}

// slotOf is the slot Next made room for, whether or not it evicted.
func slotOf[T any](p *T, _ bool) *T { return p }

// TestQueue drives a queue through growth, wrap-around and reset:
// elements come out in the order they went in, and a popped slot no
// longer holds its element.
func TestQueue(t *testing.T) {
	var q Queue[string]
	next, first := 0, 0
	for round := 0; round < 50; round++ {
		for i := 0; i < round%7+1; i++ {
			q.Push(strconv.Itoa(next))
			next++
		}
		for i := 0; i < round%5 && q.n > 0; i++ {
			head := q.head
			q.Pop()
			if q.buf[head] != "" {
				t.Fatalf("popped slot still holds %q", q.buf[head])
			}
			first++
		}
		if q.n != next-first {
			t.Fatalf("round %d: Len = %d, want %d", round, q.n, next-first)
		}
		for i := 0; i < q.n; i++ {
			if got, want := q.At(i), strconv.Itoa(first+i); got != want {
				t.Fatalf("round %d: At(%d) = %q, want %q", round, i, got, want)
			}
		}
	}
	q.Reset()
	if q.n != 0 || q.buf[0] != "" {
		t.Fatalf("after Reset: Len = %d, slot 0 = %q", q.n, q.buf[0])
	}
}

// TestWindow drives one window through a script of operations at
// explicit virtual times and checks which keys it still holds.
func TestWindow(t *testing.T) {
	const span = 10 * time.Second
	type op struct {
		do  string // put, delete, expire, purge
		key string
		val int
		at  time.Duration
	}
	sec := func(n int) time.Duration { return time.Duration(n) * time.Second }
	cases := []struct {
		name string
		ops  []op
		want map[string]int
	}{
		{"held inside the span", []op{
			{"put", "a", 1, sec(0)}, {"expire", "", 0, sec(9)},
		}, map[string]int{"a": 1}},
		{"held exactly at the span edge", []op{
			{"put", "a", 1, sec(0)}, {"expire", "", 0, sec(10)},
		}, map[string]int{"a": 1}},
		{"dropped past the span", []op{
			{"put", "a", 1, sec(0)}, {"expire", "", 0, sec(10) + 1},
		}, map[string]int{}},
		{"put expires older entries first", []op{
			{"put", "a", 1, sec(0)}, {"put", "b", 2, sec(6)}, {"put", "c", 3, sec(12)},
		}, map[string]int{"b": 2, "c": 3}},
		{"re-put replaces the value but keeps the age", []op{
			{"put", "a", 1, sec(0)}, {"put", "a", 2, sec(8)}, {"expire", "", 0, sec(9)},
		}, map[string]int{"a": 2}},
		{"re-put does not extend retention", []op{
			{"put", "a", 1, sec(0)}, {"put", "a", 2, sec(8)}, {"expire", "", 0, sec(11)},
		}, map[string]int{}},
		{"delete drops ahead of expiry", []op{
			{"put", "a", 1, sec(0)}, {"put", "b", 2, sec(1)}, {"delete", "a", 0, 0},
		}, map[string]int{"b": 2}},
		{"a key stored afresh outlives its deleted predecessor's slot", []op{
			{"put", "a", 1, sec(0)}, {"delete", "a", 0, 0}, {"put", "a", 2, sec(5)},
			{"expire", "", 0, sec(12)},
		}, map[string]int{"a": 2}},
		{"purge by prefix keeps the rest in order", []op{
			{"put", "x#1#1", 1, sec(0)}, {"put", "y#1#1", 2, sec(1)}, {"put", "x#1#2", 3, sec(2)},
			{"put", "x#2#1", 4, sec(3)}, {"purge", "x#1#", 2, 0}, {"expire", "", 0, sec(12)},
		}, map[string]int{"x#2#1": 4}},
		{"purge of nothing", []op{
			{"put", "a", 1, sec(0)}, {"purge", "z", 0, 0},
		}, map[string]int{"a": 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := NewWindow[string, int](span)
			for _, o := range tc.ops {
				switch o.do {
				case "put":
					w.Put(o.key, o.val, o.at)
				case "delete":
					w.Delete(o.key)
				case "expire":
					w.Expire(o.at)
				case "purge":
					if n := w.Purge(func(k string) bool { return strings.HasPrefix(k, o.key) }); n != o.val {
						t.Fatalf("purge of prefix %q dropped %d, want %d", o.key, n, o.val)
					}
				}
			}
			if w.Len() != len(tc.want) {
				t.Fatalf("Len = %d, want %d (%v)", w.Len(), len(tc.want), w.live)
			}
			for k, v := range tc.want {
				if got, ok := w.Get(k); !ok || got != v {
					t.Fatalf("Get(%q) = %d, %v; want %d", k, got, ok, v)
				}
			}
		})
	}
}

// TestWindowQueueStaysProportional: steady churn through the window
// must not let the expiry queue outgrow the live entries (the drained
// prefix is reclaimed), a fully drained window holds no queue, and
// deletions do not leave the queue mostly stale slots.
func TestWindowQueueStaysProportional(t *testing.T) {
	w := NewWindow[string, struct{}](10 * time.Second)
	for i := 0; i < 1000; i++ {
		w.Put(string(rune('a'+i%26))+time.Duration(i).String(), struct{}{}, time.Duration(i)*time.Second)
		if live := len(w.order) - w.head; live != w.Len() {
			t.Fatalf("step %d: %d queued, %d live", i, live, w.Len())
		}
		if len(w.order) > 2*w.Len()+1 {
			t.Fatalf("step %d: queue of %d slots for %d live entries", i, len(w.order), w.Len())
		}
	}
	w.Expire(time.Hour)
	if w.Len() != 0 || w.head != 0 || len(w.order) != 0 {
		t.Fatalf("drained window: len=%d head=%d queue=%d", w.Len(), w.head, len(w.order))
	}
	// Entries that leave by Delete long before they expire (in-flight
	// markers) leave their slots behind; the queue keeps few of them.
	for i := 0; i < 1000; i++ {
		k := strconv.Itoa(i)
		w.Put(k, struct{}{}, time.Hour+time.Duration(i)*time.Millisecond)
		if i%10 != 0 {
			w.Delete(k)
		}
		if q := len(w.order) - w.head; q > 4*w.Len()+64 {
			t.Fatalf("step %d: %d slots queued for %d held entries", i, q, w.Len())
		}
	}
	if w.Len() != 100 {
		t.Fatalf("held %d entries, want the 100 never deleted", w.Len())
	}
}

// TestWindowChurnAllocatesLittle: a window that takes one entry for each
// one it expires compacts its queue in place and, every few windows'
// worth of entries, moves its entries to a map sized for them — a Go map
// taking an insertion per deletion grows although its contents do not.
// Warm, that is a few hundredths of an allocation per entry, and the
// rebuilt map still holds exactly the live entries.
func TestWindowChurnAllocatesLittle(t *testing.T) {
	const live = 200
	keys := make([]string, 4096)
	for i := range keys {
		keys[i] = "k" + strconv.Itoa(i)
	}
	w := NewWindow[string, int](live - 1)
	i := 0
	put := func() {
		w.Put(keys[i%len(keys)], i, time.Duration(i))
		i++
	}
	for j := 0; j < 20*live; j++ {
		put()
	}
	queue := &w.order[:1][0]
	if allocs := testing.AllocsPerRun(16*live, put); allocs > 0.05 {
		t.Errorf("a warm window allocates %.3f times per entry, want at most 0.05", allocs)
	}
	if &w.order[:1][0] != queue {
		t.Error("steady churn reallocated the expiry queue; it should be compacted in place")
	}
	if w.Len() != live {
		t.Fatalf("%d entries held, want the last %d", w.Len(), live)
	}
	for j := i - 2*live; j < i; j++ {
		v, ok := w.Get(keys[j%len(keys)])
		if want := j >= i-live; ok != want || ok && v != j {
			t.Fatalf("entry %d: %d, %v; held %v", j, v, ok, want)
		}
	}
}
