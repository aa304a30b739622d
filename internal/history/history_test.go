package history

import (
	"strings"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"ppm/internal/proc"
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
// by its bound. A default-capacity store with ten events must hold well
// under 8 KiB of event slots (committing all 4096 slots up front cost
// 512 KiB per LPM), and at capacity the window still slides exactly as
// before. The bytes are counted on the store, not as the process's
// allocation total, which other tests' goroutines move.
func TestStoreGrowsOnDemand(t *testing.T) {
	s := NewStore(0)
	for i := 0; i < 10; i++ {
		s.Append(ev(time.Duration(i)*time.Second, proc.EvSyscall, 1))
	}
	if held := s.ring.Slots() * int(unsafe.Sizeof(proc.Event{})); held >= 8<<10 {
		t.Fatalf("a default-capacity store holding 10 events holds %d bytes of slots, want < 8 KiB", held)
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
