package history

import (
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"ppm/internal/proc"
	"ppm/internal/ring"
)

func ev(at time.Duration, kind proc.EventKind, pid proc.PID) proc.Event {
	return proc.Event{At: at, Kind: kind, Proc: proc.GPID{Host: "h", PID: pid}}
}

func TestAppendAndSelectAll(t *testing.T) {
	s := NewStore(0)
	for i := 0; i < 5; i++ {
		s.Append(ev(time.Duration(i)*time.Second, proc.EvFork, proc.PID(i)))
	}
	got := s.Select(Query{})
	if len(got) != 5 {
		t.Fatalf("len = %d", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].At < got[i-1].At {
			t.Fatal("events out of order")
		}
	}
}

func TestSelectFilters(t *testing.T) {
	s := NewStore(0)
	s.Append(ev(1*time.Second, proc.EvFork, 1))
	s.Append(ev(2*time.Second, proc.EvExit, 1))
	s.Append(ev(3*time.Second, proc.EvFork, 2))
	s.Append(ev(4*time.Second, proc.EvStop, 2))

	byProc := s.Select(Query{Proc: proc.GPID{Host: "h", PID: 1}})
	if len(byProc) != 2 {
		t.Fatalf("byProc = %d", len(byProc))
	}
	byKind := s.Select(Query{Kinds: []proc.EventKind{proc.EvFork}})
	if len(byKind) != 2 {
		t.Fatalf("byKind = %d", len(byKind))
	}
	since := s.Select(Query{Since: 3 * time.Second})
	if len(since) != 2 {
		t.Fatalf("since = %d", len(since))
	}
	limited := s.Select(Query{Limit: 1})
	if len(limited) != 1 || limited[0].At != time.Second {
		t.Fatalf("limited = %+v", limited)
	}
	combo := s.Select(Query{Proc: proc.GPID{Host: "h", PID: 2}, Kinds: []proc.EventKind{proc.EvStop}})
	if len(combo) != 1 || combo[0].Kind != proc.EvStop {
		t.Fatalf("combo = %+v", combo)
	}
}

func TestSelectMatchesChildField(t *testing.T) {
	s := NewStore(0)
	s.Append(proc.Event{
		At: time.Second, Kind: proc.EvFork,
		Proc:  proc.GPID{Host: "h", PID: 1},
		Child: proc.GPID{Host: "h", PID: 2},
	})
	got := s.Select(Query{Proc: proc.GPID{Host: "h", PID: 2}})
	if len(got) != 1 {
		t.Fatal("fork event should match by child too")
	}
}

func TestCapacityEviction(t *testing.T) {
	s := NewStore(3)
	for i := 0; i < 5; i++ {
		s.Append(ev(time.Duration(i)*time.Second, proc.EvSyscall, 1))
	}
	if s.Len() != 3 {
		t.Fatalf("len = %d, want 3", s.Len())
	}
	if s.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", s.Dropped())
	}
	got := s.Select(Query{})
	if got[0].At != 2*time.Second {
		t.Fatalf("oldest retained = %v, want T+2s", got[0].At)
	}
}

func TestExitRecordsSurviveEviction(t *testing.T) {
	s := NewStore(2)
	id := proc.GPID{Host: "h", PID: 9}
	s.RecordExit(proc.Info{ID: id, Name: "job", State: proc.Exited,
		Rusage: proc.Rusage{CPUTime: time.Minute}})
	for i := 0; i < 10; i++ {
		s.Append(ev(time.Duration(i), proc.EvSyscall, 1))
	}
	info, ok := s.ExitedInfo(id)
	if !ok || info.Rusage.CPUTime != time.Minute {
		t.Fatalf("exit record lost: %+v ok=%v", info, ok)
	}
	if _, ok := s.ExitedInfo(proc.GPID{Host: "h", PID: 1}); ok {
		t.Fatal("phantom exit record")
	}
}

func TestWatchFiresOnMatch(t *testing.T) {
	s := NewStore(0)
	var fired []proc.Event
	w := &Watch{
		Proc:   proc.GPID{Host: "h", PID: 7},
		Kind:   proc.EvExit,
		Action: func(e proc.Event) { fired = append(fired, e) },
	}
	id := s.AddWatch(w)
	s.Append(ev(1*time.Second, proc.EvExit, 8)) // wrong proc
	s.Append(ev(2*time.Second, proc.EvFork, 7)) // wrong kind
	s.Append(ev(3*time.Second, proc.EvExit, 7)) // match
	if len(fired) != 1 || w.Hits() != 1 {
		t.Fatalf("fired = %d hits = %d", len(fired), w.Hits())
	}
	s.RemoveWatch(id)
	s.Append(ev(4*time.Second, proc.EvExit, 7))
	if len(fired) != 1 {
		t.Fatal("removed watch fired")
	}
}

func TestWatchSignalFilter(t *testing.T) {
	s := NewStore(0)
	n := 0
	s.AddWatch(&Watch{Kind: proc.EvSignal, Signal: proc.SIGUSR1, Action: func(proc.Event) { n++ }})
	e := ev(1, proc.EvSignal, 1)
	e.Signal = proc.SIGUSR2
	s.Append(e)
	e.Signal = proc.SIGUSR1
	s.Append(e)
	if n != 1 {
		t.Fatalf("n = %d, want 1", n)
	}
}

func TestWatchAnyProcess(t *testing.T) {
	s := NewStore(0)
	n := 0
	s.AddWatch(&Watch{Kind: proc.EvStop, Action: func(proc.Event) { n++ }})
	s.Append(ev(1, proc.EvStop, 1))
	s.Append(ev(2, proc.EvStop, 99))
	if n != 2 {
		t.Fatalf("n = %d, want 2", n)
	}
}

func TestReduce(t *testing.T) {
	s := NewStore(0)
	s.Append(ev(1*time.Second, proc.EvFork, 1))
	s.Append(ev(2*time.Second, proc.EvFork, 2))
	s.Append(ev(5*time.Second, proc.EvExit, 1))
	s.RecordExit(proc.Info{ID: proc.GPID{Host: "h", PID: 1}})
	r := s.Reduce()
	if r.Total != 3 || r.ByKind[proc.EvFork] != 2 || r.ByKind[proc.EvExit] != 1 {
		t.Fatalf("reduce: %+v", r)
	}
	if r.FirstAt != time.Second || r.LastAt != 5*time.Second {
		t.Fatalf("window: %v..%v", r.FirstAt, r.LastAt)
	}
	if r.ExitRecs != 1 {
		t.Fatalf("exitRecs = %d", r.ExitRecs)
	}
	out := r.Format()
	for _, want := range []string{"3 retained", "fork", "exit", "1 exit records"} {
		if !strings.Contains(out, want) {
			t.Fatalf("format missing %q:\n%s", want, out)
		}
	}
}

func TestReduceEmpty(t *testing.T) {
	r := NewStore(0).Reduce()
	if r.Total != 0 {
		t.Fatal("empty store should reduce to zero")
	}
	if strings.Contains(r.Format(), "window") {
		t.Fatal("empty reduction should not print a window")
	}
}

func TestEventsOldestFirstAfterWraparound(t *testing.T) {
	s := NewStore(4)
	// 4+3 appends wrap the ring so the oldest slot is in the middle of
	// the backing array; Events must still come back oldest first.
	for i := 0; i < 7; i++ {
		s.Append(ev(time.Duration(i)*time.Second, proc.EvSyscall, proc.PID(i)))
	}
	got := s.Events()
	if len(got) != 4 {
		t.Fatalf("len = %d, want 4", len(got))
	}
	for i, e := range got {
		if want := time.Duration(3+i) * time.Second; e.At != want {
			t.Fatalf("Events()[%d].At = %v, want %v", i, e.At, want)
		}
	}
	if s.Dropped() != 3 {
		t.Fatalf("dropped = %d, want 3", s.Dropped())
	}
}

func TestEventsReturnsCopy(t *testing.T) {
	s := NewStore(2)
	s.Append(ev(1*time.Second, proc.EvFork, 1))
	got := s.Events()
	got[0].At = 99 * time.Second
	if s.Events()[0].At != time.Second {
		t.Fatal("Events() exposed the ring's backing storage")
	}
}

func TestEventsEmpty(t *testing.T) {
	if got := NewStore(0).Events(); len(got) != 0 {
		t.Fatalf("empty store Events() = %d events", len(got))
	}
}

// Property: with capacity c, after n appends the store holds
// min(n, c) events and they are the most recent ones.
func TestPropertyEvictionKeepsNewest(t *testing.T) {
	f := func(n uint8, c uint8) bool {
		capacity := int(c%32) + 1
		s := NewStore(capacity)
		total := int(n)
		for i := 0; i < total; i++ {
			s.Append(ev(time.Duration(i)*time.Millisecond, proc.EvSyscall, 1))
		}
		want := total
		if want > capacity {
			want = capacity
		}
		got := s.Select(Query{})
		if len(got) != want {
			return false
		}
		for i, e := range got {
			expect := time.Duration(total-want+i) * time.Millisecond
			if e.At != expect {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestStoreGrowsOnDemand: the event ring is sized by what it holds, not
// by its bound. A default-capacity store with ten events must hold
// under 2 KiB of event slots (one block of 32; committing all 4096 slots
// up front would cost 192 KiB per LPM), and at capacity the window still
// slides exactly as before. The bytes are counted on the store, not as the process's
// allocation total, which other tests' goroutines move.
func TestStoreGrowsOnDemand(t *testing.T) {
	s := NewStore(0)
	for i := 0; i < 10; i++ {
		s.Append(ev(time.Duration(i)*time.Second, proc.EvSyscall, 1))
	}
	if held := s.ring.Slots() * int(unsafe.Sizeof(slot{})); held >= 2<<10 {
		t.Fatalf("a default-capacity store holding 10 events holds %d bytes of slots, want < 2 KiB", held)
	}
	if s.Len() != 10 || s.Dropped() != 0 {
		t.Fatalf("len = %d dropped = %d", s.Len(), s.Dropped())
	}

	for i := 10; i < DefaultCapacity+5; i++ {
		s.Append(ev(time.Duration(i)*time.Second, proc.EvSyscall, 1))
	}
	if s.Len() != DefaultCapacity || s.Dropped() != 5 {
		t.Fatalf("at capacity: len = %d dropped = %d, want %d and 5", s.Len(), s.Dropped(), DefaultCapacity)
	}
	got := s.Select(Query{})
	for i, e := range got {
		if want := time.Duration(5+i) * time.Second; e.At != want {
			t.Fatalf("Select()[%d].At = %v, want %v", i, e.At, want)
		}
	}
}

// TestHistorySlotSize: a retained event costs its slot, so the slot's
// size is the history ring's share of heap_live_mb: 4,096 slots per LPM
// at 48 bytes are 192 KiB, where proc.Event's 128 bytes were 512 KiB.
// Growing it is a memory regression on every workload (PERFORMANCE.md),
// like the journal's TestEntrySize.
func TestHistorySlotSize(t *testing.T) {
	if got := unsafe.Sizeof(slot{}); got > 48 {
		t.Fatalf("history slot is %d bytes, budget 48", got)
	}
}

// TestHistoryAppendZeroAllocs: once a store is full and its mix of
// events steady, appending evicts in place (the //ppmlint:hotpath pin
// for Append), whether the event is local, about a foreign process, a
// fork or an exit whose Rusage is kept out of line.
func TestHistoryAppendZeroAllocs(t *testing.T) {
	s := NewStore(64)
	hits := 0
	s.AddWatch(&Watch{Kind: proc.EvExit, Action: func(proc.Event) { hits++ }})
	at := time.Duration(0)
	cycle := func() {
		at += time.Millisecond
		s.Append(proc.Event{At: at, Kind: proc.EvSyscall, Proc: proc.GPID{Host: "h", PID: 1}, Detail: "read"})
		s.Append(proc.Event{At: at, Kind: proc.EvFork, Proc: proc.GPID{Host: "h", PID: 1}, Child: proc.GPID{Host: "h", PID: 2}})
		s.Append(proc.Event{At: at, Kind: proc.EvExit, Proc: proc.GPID{Host: "h", PID: 2},
			Rusage: proc.Rusage{CPUTime: time.Second, Syscalls: 3}})
		s.Append(proc.Event{At: at, Kind: proc.EvExit, Proc: proc.GPID{Host: "far", PID: 7},
			Rusage: proc.Rusage{CPUTime: time.Minute, MsgsSent: 2}})
	}
	for i := 0; i < 64; i++ {
		cycle()
	}
	if s.Dropped() == 0 {
		t.Fatal("warm phase never filled the store")
	}
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("steady-state Append allocates %v times per cycle, want 0", allocs)
	}
	if hits == 0 {
		t.Fatal("the exit watch never fired")
	}
}

// refStore is the store as it was before events were packed: a ring of
// whole proc.Events.
type refStore struct {
	ring    *ring.Buffer[proc.Event]
	dropped int64
}

func (r *refStore) append(ev proc.Event) {
	if r.ring.Push(ev) {
		r.dropped++
	}
}

func (r *refStore) events() []proc.Event {
	out := make([]proc.Event, r.ring.Len())
	for i := range out {
		out[i] = r.ring.At(i)
	}
	return out
}

func (r *refStore) selectEvents(q Query) []proc.Event {
	var out []proc.Event
	for _, ev := range r.events() {
		if !q.Proc.IsZero() && ev.Proc != q.Proc && ev.Child != q.Proc {
			continue
		}
		kindOK := len(q.Kinds) == 0
		for _, k := range q.Kinds {
			kindOK = kindOK || ev.Kind == k
		}
		if ev.At < q.Since || !kindOK {
			continue
		}
		out = append(out, ev)
		if q.Limit > 0 && len(out) >= q.Limit {
			break
		}
	}
	return out
}

func (r *refStore) reduce() Reduction {
	red := Reduction{ByKind: map[proc.EventKind]int64{}, ByProc: map[proc.GPID]int64{}, Dropped: r.dropped}
	for i, ev := range r.events() {
		red.Total++
		red.ByKind[ev.Kind]++
		red.ByProc[ev.Proc]++
		if i == 0 {
			red.FirstAt = ev.At
		}
		red.LastAt = ev.At
	}
	return red
}

// TestPackedStoreMatchesEventRing: a seeded stream of events, most of
// them what an LPM sees and the rest every edge the slot packs — kinds
// outside the enum and at int's extremes, signals likewise, zero and
// foreign children, exits with and without Rusage, more distinct hosts
// than 16 bits index — goes into a Store and into a ring of whole
// events. Across the capacity boundary and while the window slides,
// every reader of the store and every watch's argument match the ring's.
func TestPackedStoreMatchesEventRing(t *testing.T) {
	kinds := []proc.EventKind{proc.EvFork, proc.EvExec, proc.EvExit, proc.EvStop, proc.EvCont,
		proc.EvSignal, proc.EvSyscall, proc.EvIPC, proc.EvOpen, proc.EvClose,
		0, -1, 11, math.MaxInt16, math.MaxInt16 + 1, math.MinInt16, math.MinInt16 - 1, math.MinInt, math.MaxInt}
	signals := []proc.Signal{0, proc.SIGKILL, proc.SIGSTOP, proc.SIGUSR1, -1,
		math.MaxInt16, math.MaxInt16 + 1, math.MinInt16, math.MinInt16 - 1, math.MinInt, math.MaxInt}
	pids := []proc.PID{0, 1, 2, 3, 77, -1, math.MaxInt32, math.MinInt32}
	details := []string{"", "read", "exit 0", "sent 4 bytes to <b,9>"}

	for _, tc := range []struct {
		seed            int64
		capacity, total int
		hosts           int // distinct foreign hosts the stream draws from
	}{
		{1, 1, 50, 3},
		{2, 7, 300, 5},
		{3, 64, 2000, 40},
		{4, 64, 70000, 70000},
	} {
		rng := rand.New(rand.NewSource(tc.seed))
		host := func() string {
			if rng.Intn(4) > 0 {
				return "home"
			}
			return "h" + strconv.Itoa(rng.Intn(tc.hosts))
		}
		s := NewStore(tc.capacity)
		ref := &refStore{ring: ring.NewBuffer[proc.Event](tc.capacity)}

		watches := []Watch{{}, {Kind: proc.EvExit}, {Kind: math.MinInt}, {Proc: proc.GPID{Host: "home", PID: 1}},
			{Kind: proc.EvSignal, Signal: math.MaxInt}, {Signal: math.MinInt16 - 1}}
		got := make([][]proc.Event, len(watches))
		want := make([][]proc.Event, len(watches))
		seen := make([]int, len(watches)) // watch arguments already compared
		for i := range watches {
			w := watches[i]
			w.Action = func(ev proc.Event) { got[i] = append(got[i], ev) }
			s.AddWatch(&w)
		}

		check := func(n int) {
			t.Helper()
			if g, w := s.Events(), ref.events(); !reflect.DeepEqual(g, w) {
				t.Fatalf("seed %d after %d appends: Events() differs from the ring's", tc.seed, n)
			}
			if s.Dropped() != ref.dropped || s.Len() != ref.ring.Len() {
				t.Fatalf("seed %d after %d appends: dropped %d len %d, ring %d and %d",
					tc.seed, n, s.Dropped(), s.Len(), ref.dropped, ref.ring.Len())
			}
			if g, w := s.Reduce(), ref.reduce(); !reflect.DeepEqual(g, w) {
				t.Fatalf("seed %d after %d appends: Reduce() = %+v, ring %+v", tc.seed, n, g, w)
			}
			for j := 0; j < 8; j++ {
				q := Query{Limit: rng.Intn(4)}
				if ref.ring.Len() > 0 && rng.Intn(3) > 0 {
					// A retained event's process or child, so the
					// query matches something.
					e := ref.ring.At(rng.Intn(ref.ring.Len()))
					q.Proc = e.Proc
					if rng.Intn(2) == 0 && !e.Child.IsZero() {
						q.Proc = e.Child
					}
					q.Since = e.At - time.Duration(rng.Intn(3))
				}
				for k := rng.Intn(3); k > 0; k-- {
					q.Kinds = append(q.Kinds, kinds[rng.Intn(len(kinds))])
				}
				if g, w := s.Select(q), ref.selectEvents(q); !reflect.DeepEqual(g, w) {
					t.Fatalf("seed %d after %d appends: Select(%+v) = %+v, ring %+v", tc.seed, n, q, g, w)
				}
			}
			for i := range watches {
				if !reflect.DeepEqual(got[i][seen[i]:], want[i][seen[i]:]) {
					t.Fatalf("seed %d after %d appends: watch %d saw %d events, want %d", tc.seed, n, i, len(got[i]), len(want[i]))
				}
				seen[i] = len(want[i])
			}
		}

		for n := 1; n <= tc.total; n++ {
			e := proc.Event{
				At:     time.Duration(rng.Int63n(1<<40) - 1<<20),
				Kind:   kinds[rng.Intn(len(kinds))],
				Proc:   proc.GPID{Host: host(), PID: pids[rng.Intn(len(pids))]},
				Detail: details[rng.Intn(len(details))],
			}
			if rng.Intn(3) == 0 {
				e.Signal = signals[rng.Intn(len(signals))]
			}
			if rng.Intn(2) == 0 {
				e.Child = proc.GPID{Host: host(), PID: pids[rng.Intn(len(pids))]}
			}
			if rng.Intn(3) == 0 {
				e.Rusage = proc.Rusage{CPUTime: time.Duration(rng.Int63()), Syscalls: rng.Int63(),
					MsgsSent: -rng.Int63(), MsgsRecv: rng.Int63n(5), MaxRSSKB: math.MinInt64}
			}
			if tc.hosts == tc.total {
				e.Proc.Host = "h" + strconv.Itoa(n) // every event names a new host
			}
			s.Append(e)
			ref.append(e)
			for i, w := range watches {
				if w.matches(e) {
					want[i] = append(want[i], e)
				}
			}
			if n < 3*tc.capacity || n%997 == 0 || n == tc.total {
				check(n)
			}
		}
		if tc.hosts == tc.total && len(s.hosts) <= math.MaxUint16+1 {
			t.Fatalf("the host table holds %d names, want more than 16 bits index", len(s.hosts))
		}
	}
}
