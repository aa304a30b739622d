package ring

import (
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
	"unsafe"
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
				t.Fatalf("Len = %d, want %d (%v)", w.Len(), len(tc.want), w.index)
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
		if live := len(w.queue) - w.head; live != w.Len() {
			t.Fatalf("step %d: %d queued, %d live", i, live, w.Len())
		}
		if len(w.queue) > 2*w.Len()+1 {
			t.Fatalf("step %d: queue of %d slots for %d live entries", i, len(w.queue), w.Len())
		}
	}
	w.Expire(time.Hour)
	if w.Len() != 0 || w.head != 0 || len(w.queue) != 0 {
		t.Fatalf("drained window: len=%d head=%d queue=%d", w.Len(), w.head, len(w.queue))
	}
	// Entries that leave by Delete long before they expire (in-flight
	// markers) leave their slots behind; the queue keeps few of them.
	for i := 0; i < 1000; i++ {
		k := strconv.Itoa(i)
		w.Put(k, struct{}{}, time.Hour+time.Duration(i)*time.Millisecond)
		if i%10 != 0 {
			w.Delete(k)
		}
		if q := len(w.queue) - w.head; q > 4*w.Len()+64 {
			t.Fatalf("step %d: %d slots queued for %d held entries", i, q, w.Len())
		}
	}
	if w.Len() != 100 {
		t.Fatalf("held %d entries, want the 100 never deleted", w.Len())
	}
}

// TestWindowChurnAllocatesLittle: a warm window allocates nothing per
// entry, whether its entries leave by expiry (cached replies, stamps),
// mostly by Delete (in-flight markers), or a burst at a time with none
// outliving the next burst (a flood's): its queue is compacted in place
// and keeps the room a burst needs, and its index is cleared and filled
// again, keeping its table, before insertions that each follow a
// deletion can grow it. It still holds exactly the live entries.
func TestWindowChurnAllocatesLittle(t *testing.T) {
	const live = 200
	keys := make([]string, 4096)
	for i := range keys {
		keys[i] = "k" + strconv.Itoa(i)
	}
	for _, tc := range []struct {
		name  string
		span  time.Duration
		kept  int // every kept-th entry stays to expire; the rest are deleted at once
		burst int // entries put at one instant
	}{
		{"expiry", live - 1, 1, 1},
		{"in-flight markers", 10*live - 1, 10, 1},
		{"bursts", 23, 1, 24},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := NewWindow[string, int](tc.span)
			at := func(j int) time.Duration { return time.Duration(j / tc.burst * tc.burst) }
			i := 0
			put := func() {
				k := keys[i%len(keys)]
				w.Put(k, i, at(i))
				if i%tc.kept != 0 {
					w.Delete(k)
				}
				i++
			}
			for j := 0; j < 20*live*tc.kept; j++ {
				put()
			}
			queue := &w.queue[:1][0]
			if allocs := testing.AllocsPerRun(16*live, put); allocs != 0 {
				t.Errorf("a warm window allocates %.3f times per entry, want 0", allocs)
			}
			if b := allocBytes(func() {
				for j := 0; j < 16*live; j++ {
					put()
				}
			}); b != 0 {
				t.Errorf("a warm window allocates %d bytes over %d entries, want 0", b, 16*live)
			}
			if &w.queue[:1][0] != queue {
				t.Error("steady churn reallocated the expiry queue; it should be compacted in place")
			}
			held := 0
			for j := i - len(keys) + 1; j < i; j++ {
				v, ok := w.Get(keys[j%len(keys)])
				want := j%tc.kept == 0 && at(i-1)-at(j) <= tc.span
				if ok != want || ok && v != j {
					t.Fatalf("entry %d: %d, %v; held %v", j, v, ok, want)
				}
				if want {
					held++
				}
			}
			if w.Len() != held {
				t.Fatalf("%d entries held, want the last %d kept", w.Len(), held)
			}
		})
	}
}

// allocBytes returns the fewest bytes f allocated over five calls, by
// runtime.MemStats.TotalAlloc; the minimum drops what another goroutine
// allocated meanwhile.
func allocBytes(f func()) uint64 {
	least := ^uint64(0)
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestWindowMatchesModel drives a window and a plain reference — a slice
// of entries in insertion order — through the same seeded random
// operations at non-decreasing virtual times, and after each compares
// every key, the held count and the values given to Evicted. The phases
// vary the mix so the window compacts its queue past its base, clears
// and fills its index, and compacts after deletions; keys are re-put
// while held, deleted and put again, and expiry lands exactly span after
// an insertion.
func TestWindowMatchesModel(t *testing.T) {
	const span, keys = 50, 300
	type ref struct {
		key, v int
		at     time.Duration
	}
	var model []ref
	find := func(k int) int {
		for i, e := range model {
			if e.key == k {
				return i
			}
		}
		return -1
	}
	var gotEvicted, wantEvicted []int
	dropWhere := func(drop func(ref) bool, evict bool) (n int) {
		kept := model[:0]
		for _, e := range model {
			if !drop(e) {
				kept = append(kept, e)
				continue
			}
			if evict {
				wantEvicted = append(wantEvicted, e.v)
			}
			n++
		}
		model = kept
		return n
	}
	expire := func(now time.Duration) { dropWhere(func(e ref) bool { return now-e.at > span }, true) }

	w := NewWindow[int, int](span)
	w.Evicted = func(v int) { gotEvicted = append(gotEvicted, v) }
	rng := rand.New(rand.NewSource(1))
	var now time.Duration
	next := 0 // values are unique, so an eviction names its entry
	for step := 0; step < 40000; step++ {
		phase := step / 2000 % 4 // 0 steady, 1 burst, 2 delete-heavy, 3 sparse
		k := rng.Intn(keys)
		touched := k
		switch r := rng.Intn(100); {
		case r < 3 && len(model) > 0 && rng.Intn(2) == 0:
			// Exactly span after a held entry's insertion: still held.
			now = max(now, model[rng.Intn(len(model))].at+span)
			w.Expire(now)
			expire(now)
		case r < 3:
			p := rng.Intn(7)
			drop := func(k int) bool { return k%7 == p }
			if got, want := w.Purge(drop), dropWhere(func(e ref) bool { return drop(e.key) }, true); got != want {
				t.Fatalf("step %d: Purge dropped %d, want %d", step, got, want)
			}
		case r < 10 || phase == 2 && r < 50:
			if i := find(k); i >= 0 || rng.Intn(4) == 0 {
				w.Delete(k)
				dropWhere(func(e ref) bool { return e.key == k }, false)
			} else if len(model) > 0 {
				k = model[rng.Intn(len(model))].key
				touched = k
				w.Delete(k)
				dropWhere(func(e ref) bool { return e.key == k }, false)
			}
		case r < 15:
			now += time.Duration(rng.Intn(span / 2))
			w.Expire(now)
			expire(now)
		default:
			switch phase {
			case 0:
				now += time.Duration(rng.Intn(2))
			case 3:
				now += time.Duration(rng.Intn(span))
			}
			next++
			w.Put(k, next, now)
			expire(now)
			if i := find(k); i >= 0 {
				model[i].v = next
			} else {
				model = append(model, ref{k, next, now})
			}
		}
		if w.Len() != len(model) {
			t.Fatalf("step %d: Len = %d, want %d", step, w.Len(), len(model))
		}
		for k := range keys {
			if step%50 != 0 && k != touched {
				continue
			}
			v, ok := w.Get(k)
			i := find(k)
			if ok != (i >= 0) || ok && v != model[i].v {
				t.Fatalf("step %d: Get(%d) = %d, %v; want held %v", step, k, v, ok, i >= 0)
			}
		}
		if !slices.Equal(gotEvicted, wantEvicted) {
			t.Fatalf("step %d: Evicted took %v, want %v", step, gotEvicted, wantEvicted)
		}
	}
	if w.base == 0 {
		t.Error("the queue was never compacted past its base")
	}
}

// TestNamesMatchesModel drives a table and a plain reference — a slice
// of names and a map inverting it — through the same seeded mix of
// Index, Intern and Name. The pool holds more names than Intern may add,
// and groups whose cache hash collides (same length and first, middle
// and last bytes, as "aXbYc" and "aZbYc"), so the cache is overwritten
// between hits and a held name is found through the map.
func TestNamesMatchesModel(t *testing.T) {
	if nameHash("aXbYc") != nameHash("aZbYc") || nameHash("aXbYc") != nameHash([]byte("aZbYc")) {
		t.Fatal("names alike in length and first, middle and last bytes hash apart")
	}
	var pool []string
	for g := range 40 {
		for v := range 8 { // a group of 8 names sharing one hash
			b := []byte("a" + strconv.Itoa(g) + "-xx-b-yy-" + strconv.Itoa(g) + "c")
			b[len(b)/2-2], b[len(b)/2+2] = byte('A'+v), byte('z'-v)
			if pool = append(pool, string(b)); nameHash(b) != nameHash(pool[8*g]) {
				t.Fatalf("%q and %q hash apart", b, pool[8*g])
			}
		}
	}
	for i := range 1200 {
		pool = append(pool, "h"+strconv.Itoa(i))
	}
	n := NewNames()
	model, index := []string{""}, map[string]uint32{"": 0}
	rng := rand.New(rand.NewSource(1))
	for step := range 60000 {
		s := ""
		if rng.Intn(20) != 0 {
			s = pool[rng.Intn(len(pool))]
		}
		want, held := index[s]
		op := rng.Intn(3)
		switch op {
		case 0:
			if !held {
				want = uint32(len(model))
				model, index[s] = append(model, s), want
			}
			if got := n.Index(s); got != want {
				t.Fatalf("step %d: Index(%q) = %d, want %d", step, s, got, want)
			}
		case 1:
			got := n.Intern([]byte(s))
			if !held && len(model) < 1024 {
				model, index[s], held = append(model, s), uint32(len(model)), true
			}
			if got != s || held && s != "" && unsafe.StringData(got) != unsafe.StringData(n.Name(index[s])) {
				t.Fatalf("step %d: Intern(%q) = %q, not the table's own (held %v)", step, s, got, held)
			}
		case 2:
			i := uint32(rng.Intn(len(model)))
			if got := n.Name(i); got != model[i] {
				t.Fatalf("step %d: Name(%d) = %q, want %q", step, i, got, model[i])
			}
		}
		if n.Len() != len(model) {
			t.Fatalf("step %d: %d names, want %d", step, n.Len(), len(model))
		}
		if i, ok := n.Cached(s); op < 2 && held && (!ok || i != index[s]) {
			t.Fatalf("step %d: %q is not cached right after its lookup", step, s)
		}
	}
	if len(model) <= 1024 || len(n.index) != len(model)-1 {
		t.Fatalf("the table holds %d names (index %d): Index never went past Intern's bound", len(model), len(n.index))
	}
	for s, i := range index {
		if got, ok := n.Cached(s); ok && got != i {
			t.Errorf("Cached(%q) = %d, want %d", s, got, i)
		}
	}
}

// TestNamesZeroAllocs pins the hit paths: a held name costs no
// allocation through Cached, Index or Intern, whether the cache holds it
// or, displaced by a name of the same hash, the map does.
func TestNamesZeroAllocs(t *testing.T) {
	n := NewNames()
	held := []string{"vax1", "vax2", "felipe", "aXbYc", "aZbYc"}
	bytes := make([][]byte, len(held))
	for i, s := range held {
		n.Index(s)
		bytes[i] = []byte(s)
	}
	i := 0
	for name, f := range map[string]func(){
		"Cached": func() { n.Cached(held[i%len(held)]) },
		"Index":  func() { n.Index(held[i%len(held)]) },
		"Intern": func() { n.Intern(bytes[i%len(bytes)]) },
	} {
		if allocs := testing.AllocsPerRun(1000, func() { f(); i++ }); allocs != 0 {
			t.Errorf("%s: %.1f allocs a held name, want 0", name, allocs)
		}
	}
	if n.Len() != len(held)+1 {
		t.Errorf("the table holds %d names, want %d", n.Len(), len(held)+1)
	}
}
