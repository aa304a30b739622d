package sim

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestSchedulerRunsEventsInTimeOrder(t *testing.T) {
	s := NewScheduler(1)
	var got []int
	s.After(30*time.Millisecond, func() { got = append(got, 3) })
	s.After(10*time.Millisecond, func() { got = append(got, 1) })
	s.After(20*time.Millisecond, func() { got = append(got, 2) })
	if err := s.RunUntilIdle(100); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestSchedulerFIFOAtSameInstant(t *testing.T) {
	s := NewScheduler(1)
	var got []int
	at := Time(5 * time.Millisecond)
	for i := 0; i < 10; i++ {
		i := i
		s.At(at, func() { got = append(got, i) })
	}
	if err := s.RunUntilIdle(100); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-instant events not FIFO: %v", got)
		}
	}
}

func TestSchedulerClockAdvancesToEventTime(t *testing.T) {
	s := NewScheduler(1)
	var at Time
	s.After(42*time.Millisecond, func() { at = s.Now() })
	if err := s.RunUntilIdle(10); err != nil {
		t.Fatal(err)
	}
	if at != Time(42*time.Millisecond) {
		t.Fatalf("event ran at %v, want T+42ms", at)
	}
}

func TestSchedulePastRunsNow(t *testing.T) {
	s := NewScheduler(1)
	if err := s.RunUntil(Time(10 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	var ranAt Time
	s.At(Time(1*time.Millisecond), func() { ranAt = s.Now() })
	if err := s.RunUntilIdle(10); err != nil {
		t.Fatal(err)
	}
	if ranAt != Time(10*time.Millisecond) {
		t.Fatalf("past event ran at %v, want now (T+10ms)", ranAt)
	}
}

func TestTimerCancel(t *testing.T) {
	s := NewScheduler(1)
	fired := false
	tm := s.After(time.Millisecond, func() { fired = true })
	if !tm.Cancel() {
		t.Fatal("Cancel reported false on pending timer")
	}
	if tm.Cancel() {
		t.Fatal("second Cancel reported true")
	}
	if err := s.RunUntilIdle(10); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("cancelled timer fired")
	}
	if !tm.Fired() {
		t.Fatal("cancelled timer should report no longer pending")
	}
}

func TestTimerCancelAfterFire(t *testing.T) {
	s := NewScheduler(1)
	tm := s.After(time.Millisecond, func() {})
	if err := s.RunUntilIdle(10); err != nil {
		t.Fatal(err)
	}
	if tm.Cancel() {
		t.Fatal("Cancel after fire reported true")
	}
	if !tm.Fired() {
		t.Fatal("fired timer should report Fired")
	}
}

func TestCancelOneOfManyAtSameInstant(t *testing.T) {
	s := NewScheduler(1)
	var got []int
	at := Time(time.Millisecond)
	var timers []Timer
	for i := 0; i < 5; i++ {
		i := i
		timers = append(timers, s.At(at, func() { got = append(got, i) }))
	}
	timers[2].Cancel()
	if err := s.RunUntilIdle(10); err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	s := NewScheduler(1)
	var fired []string
	s.After(5*time.Millisecond, func() { fired = append(fired, "in") })
	s.After(15*time.Millisecond, func() { fired = append(fired, "out") })
	if err := s.RunUntil(Time(10 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 1 || fired[0] != "in" {
		t.Fatalf("fired = %v, want [in]", fired)
	}
	if s.Now() != Time(10*time.Millisecond) {
		t.Fatalf("now = %v, want T+10ms", s.Now())
	}
	if err := s.RunUntilIdle(10); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 {
		t.Fatalf("second event never fired: %v", fired)
	}
}

func TestRunUntilExecutesEventExactlyAtDeadline(t *testing.T) {
	s := NewScheduler(1)
	fired := false
	s.After(10*time.Millisecond, func() { fired = true })
	if err := s.RunUntil(Time(10 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("event at deadline did not fire")
	}
}

func TestRunUntilIdleBudget(t *testing.T) {
	s := NewScheduler(1)
	var loop func()
	loop = func() { s.After(time.Millisecond, loop) }
	loop()
	if err := s.RunUntilIdle(100); err == nil {
		t.Fatal("expected budget-exhausted error")
	}
}

func TestRunUntilDone(t *testing.T) {
	s := NewScheduler(1)
	n := 0
	for i := 0; i < 10; i++ {
		s.After(time.Duration(i)*time.Millisecond, func() { n++ })
	}
	ok, err := s.RunUntilDone(func() bool { return n >= 5 }, 100)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if n != 5 {
		t.Fatalf("n = %d, want 5", n)
	}
}

func TestRunUntilDoneNeverSatisfied(t *testing.T) {
	s := NewScheduler(1)
	s.After(time.Millisecond, func() {})
	ok, err := s.RunUntilDone(func() bool { return false }, 100)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("done reported satisfied")
	}
}

func TestStop(t *testing.T) {
	s := NewScheduler(1)
	fired := false
	s.After(time.Millisecond, func() { fired = true })
	s.Stop()
	if err := s.RunUntilIdle(10); err != ErrStopped {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
	if fired {
		t.Fatal("event fired after Stop")
	}
}

func TestDeferRunsAfterQueuedEventsAtSameInstant(t *testing.T) {
	s := NewScheduler(1)
	var got []string
	s.Defer(func() {
		got = append(got, "a")
		s.Defer(func() { got = append(got, "c") })
	})
	s.Defer(func() { got = append(got, "b") })
	if err := s.RunUntilIdle(10); err != nil {
		t.Fatal(err)
	}
	want := "abc"
	joined := ""
	for _, g := range got {
		joined += g
	}
	if joined != want {
		t.Fatalf("order = %q, want %q", joined, want)
	}
}

func TestPendingCount(t *testing.T) {
	s := NewScheduler(1)
	t1 := s.After(time.Millisecond, func() {})
	s.After(2*time.Millisecond, func() {})
	if s.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", s.Pending())
	}
	t1.Cancel()
	if s.Pending() != 1 {
		t.Fatalf("pending = %d after cancel, want 1", s.Pending())
	}
}

func TestDeterministicRand(t *testing.T) {
	a := NewScheduler(42)
	b := NewScheduler(42)
	for i := 0; i < 100; i++ {
		if a.Rand().Int63() != b.Rand().Int63() {
			t.Fatal("same seed produced different random streams")
		}
	}
}

func TestTimeHelpers(t *testing.T) {
	tm := Time(1500 * time.Microsecond)
	if tm.Milliseconds() != 1.5 {
		t.Fatalf("Milliseconds = %v, want 1.5", tm.Milliseconds())
	}
	if tm.Add(500*time.Microsecond) != Time(2*time.Millisecond) {
		t.Fatal("Add wrong")
	}
	if tm.Sub(Time(time.Millisecond)) != 500*time.Microsecond {
		t.Fatal("Sub wrong")
	}
	if !Time(1).Before(Time(2)) || !Time(2).After(Time(1)) {
		t.Fatal("Before/After wrong")
	}
	if tm.String() != "T+1.5ms" {
		t.Fatalf("String = %q", tm.String())
	}
}

// Property: for any set of non-negative delays, events fire in
// non-decreasing time order and the clock never goes backwards.
func TestPropertyEventsFireInOrder(t *testing.T) {
	f := func(delays []uint16) bool {
		s := NewScheduler(7)
		var fireTimes []Time
		for _, d := range delays {
			s.After(time.Duration(d)*time.Microsecond, func() {
				fireTimes = append(fireTimes, s.Now())
			})
		}
		if err := s.RunUntilIdle(uint64(len(delays)) + 1); err != nil {
			return false
		}
		if len(fireTimes) != len(delays) {
			return false
		}
		for i := 1; i < len(fireTimes); i++ {
			if fireTimes[i] < fireTimes[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelling any subset of timers never affects the relative
// order of the survivors.
func TestPropertyCancelPreservesSurvivorOrder(t *testing.T) {
	f := func(delays []uint8, cancelMask []bool) bool {
		s := NewScheduler(11)
		type rec struct {
			id int
			at Time
		}
		var fired []rec
		timers := make([]Timer, len(delays))
		for i, d := range delays {
			i := i
			timers[i] = s.After(time.Duration(d)*time.Microsecond, func() {
				fired = append(fired, rec{i, s.Now()})
			})
		}
		cancelled := map[int]bool{}
		for i := range timers {
			if i < len(cancelMask) && cancelMask[i] {
				timers[i].Cancel()
				cancelled[i] = true
			}
		}
		if err := s.RunUntilIdle(uint64(len(delays)) + 1); err != nil {
			return false
		}
		for _, r := range fired {
			if cancelled[r.id] {
				return false
			}
		}
		return len(fired) == len(delays)-len(cancelled)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStepsCounter(t *testing.T) {
	s := NewScheduler(1)
	for i := 0; i < 5; i++ {
		s.After(time.Duration(i)*time.Millisecond, func() {})
	}
	if err := s.RunUntilIdle(10); err != nil {
		t.Fatal(err)
	}
	if s.Steps() != 5 {
		t.Fatalf("steps = %d", s.Steps())
	}
}

func TestRunUntilDoneBudgetExhausted(t *testing.T) {
	s := NewScheduler(1)
	var loop func()
	loop = func() { s.After(time.Millisecond, loop) }
	loop()
	ok, err := s.RunUntilDone(func() bool { return false }, 50)
	if ok || err == nil {
		t.Fatalf("ok=%v err=%v, want budget error", ok, err)
	}
}

func TestStopDuringRunUntilDone(t *testing.T) {
	s := NewScheduler(1)
	s.After(time.Millisecond, func() { s.Stop() })
	s.After(2*time.Millisecond, func() { t.Fatal("event after Stop ran") })
	ok, err := s.RunUntilDone(func() bool { return false }, 100)
	if ok || err != ErrStopped {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
}

func TestNilTimerSafe(t *testing.T) {
	var tm Timer
	if tm.Cancel() {
		t.Fatal("zero timer cancel reported true")
	}
	if !tm.Fired() {
		t.Fatal("zero timer should report fired/not-pending")
	}
	s := NewScheduler(1)
	empty := s.At(0, nil) // nil fn yields inert timer
	if empty.Cancel() {
		t.Fatal("inert timer cancel reported true")
	}
}

func TestRunUntilNeverPassesDeadline(t *testing.T) {
	s := NewScheduler(1)
	var ranLate bool
	s.After(10*time.Millisecond, func() { ranLate = true })
	if err := s.RunUntil(Time(9 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if ranLate {
		t.Fatal("event past the deadline executed")
	}
	if s.Now() != Time(9*time.Millisecond) {
		t.Fatalf("clock = %v", s.Now())
	}
}

// TestStaleTimerHandleIsInert pins the generation guard: once an event
// fires and its struct is recycled into a new timer, the old handle
// must neither cancel nor report the new event as its own.
func TestStaleTimerHandleIsInert(t *testing.T) {
	s := NewScheduler(1)
	fired := 0
	old := s.After(time.Millisecond, func() { fired++ })
	if err := s.RunUntilIdle(4); err != nil {
		t.Fatal(err)
	}
	if !old.Fired() {
		t.Fatal("timer should report fired after its event ran")
	}
	// The next After reuses the recycled event struct.
	fresh := s.After(time.Millisecond, func() { fired += 10 })
	if old.Cancel() {
		t.Fatal("stale handle cancelled a recycled event")
	}
	if fresh.Fired() {
		t.Fatal("fresh timer reported fired while pending")
	}
	if err := s.RunUntilIdle(4); err != nil {
		t.Fatal(err)
	}
	if fired != 11 {
		t.Fatalf("fired = %d, want 11 (stale cancel must not kill the new event)", fired)
	}
}

// TestCancelledTimerHandleIsInert is the cancel-path twin: a handle
// whose event was cancelled and recycled stays a no-op.
func TestCancelledTimerHandleIsInert(t *testing.T) {
	s := NewScheduler(1)
	fired := 0
	old := s.After(time.Millisecond, func() { fired++ })
	if !old.Cancel() {
		t.Fatal("first cancel should succeed")
	}
	if old.Cancel() {
		t.Fatal("second cancel should be a no-op")
	}
	fresh := s.After(time.Millisecond, func() { fired += 10 })
	if old.Cancel() {
		t.Fatal("stale handle cancelled the recycled event")
	}
	_ = fresh
	if err := s.RunUntilIdle(4); err != nil {
		t.Fatal(err)
	}
	if fired != 10 {
		t.Fatalf("fired = %d, want 10", fired)
	}
}

// TestSchedulingSteadyStateZeroAllocs pins the event free list: a
// schedule/fire cycle in the steady state touches the allocator zero
// times (the event struct is recycled, the Timer is a value).
func TestSchedulingSteadyStateZeroAllocs(t *testing.T) {
	s := NewScheduler(1)
	fn := func() {}
	// Warm up: allocate the one event struct and heap slot.
	s.After(time.Microsecond, fn)
	s.Step()
	allocs := testing.AllocsPerRun(200, func() {
		s.After(time.Microsecond, fn)
		s.Step()
	})
	if allocs != 0 {
		t.Fatalf("schedule+fire steady state: %.1f allocs/op, want 0", allocs)
	}
	g := s.NewGroup()
	if allocs := testing.AllocsPerRun(200, func() {
		g.After(time.Microsecond, fn)
		s.Step()
	}); allocs != 0 {
		t.Fatalf("group schedule+fire steady state: %.1f allocs/op, want 0", allocs)
	}
}

// groupRun schedules a fixed mix of events and runs it to idle,
// returning what fired, in order. With withGroup every third event is
// a group's, and the group ends at 5ms; without, those events are never
// scheduled.
func groupRun(t *testing.T, withGroup bool) []string {
	t.Helper()
	s := NewScheduler(1)
	var g *Group
	if withGroup {
		g = s.NewGroup()
	}
	var got []string
	for i := 0; i < 30; i++ {
		name := fmt.Sprintf("e%d", i)
		at := Time(i%7) * 3 * Millisecond // shared instants exercise the seq tiebreak
		switch {
		case i%3 != 0:
			s.At(at, func() { got = append(got, name+"@"+s.Now().String()) })
		case g != nil:
			g.At(at, func() { got = append(got, "group "+name) })
		}
	}
	if g != nil {
		s.At(5*Millisecond-1, g.End)
	}
	if err := s.RunUntilIdle(1000); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestGroupEndRemovesOnlyItsEvents: End drops the group's events still
// pending, and only those; the rest fire in the (at, seq) order of a run
// that never scheduled the group's.
func TestGroupEndRemovesOnlyItsEvents(t *testing.T) {
	with, without := groupRun(t, true), groupRun(t, false)
	var early, survivors []string
	for _, e := range with {
		if strings.HasPrefix(e, "group ") {
			early = append(early, e)
		} else {
			survivors = append(survivors, e)
		}
	}
	// The group's events at 0 and 3ms ran before End at 5ms.
	if got, want := strings.Join(early, " "), "group e0 group e21 group e15"; got != want {
		t.Fatalf("group events before End: %q, want %q", got, want)
	}
	if strings.Join(survivors, " ") != strings.Join(without, " ") {
		t.Fatalf("survivors fired as\n%v\nwant\n%v", survivors, without)
	}
}

// TestGroupEndFromCallback: a group's own event may end it; its pending
// siblings never run, the scheduler's events do, and the count drops by
// exactly the group's events.
func TestGroupEndFromCallback(t *testing.T) {
	s := NewScheduler(1)
	g := s.NewGroup()
	var got []string
	s.After(3*time.Millisecond, func() { got = append(got, "s3") })
	g.After(2*time.Millisecond, func() { got = append(got, "g2") })
	g.After(time.Millisecond, func() {
		got = append(got, "g1")
		before := s.Pending()
		g.End()
		if after := s.Pending(); after != before-1 {
			t.Errorf("End from a callback: %d pending, want %d", after, before-1)
		}
		g.After(0, func() { got = append(got, "late") })
	})
	if err := s.RunUntilIdle(10); err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(got, " "), "g1 s3"; got != want {
		t.Fatalf("fired %q, want %q", got, want)
	}
}

// TestEndedGroupSchedulesNothing: At, After and Defer on an ended group
// return a Timer that reads fired and never runs.
func TestEndedGroupSchedulesNothing(t *testing.T) {
	s := NewScheduler(1)
	g := s.NewGroup()
	g.End()
	ran := false
	fn := func() { ran = true }
	for _, tm := range []Timer{g.At(s.Now()+Millisecond, fn), g.After(time.Millisecond, fn), g.Defer(fn)} {
		if !tm.Fired() || tm.Cancel() {
			t.Fatal("an ended group's timer reads pending")
		}
	}
	if s.Pending() != 0 {
		t.Fatalf("%d events pending on an ended group", s.Pending())
	}
	if err := s.RunUntilIdle(10); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Fatal("an ended group's event ran")
	}
}

// TestStaleGroupHandleAfterEnd: a handle to an event End removed is a
// no-op, and does not cancel the next owner of the recycled event.
func TestStaleGroupHandleAfterEnd(t *testing.T) {
	s := NewScheduler(1)
	g := s.NewGroup()
	stale := g.After(time.Millisecond, func() { t.Error("an ended group's event ran") })
	g.End()
	if !stale.Fired() {
		t.Fatal("a removed event's handle reads pending")
	}
	fired := false
	fresh := s.After(time.Millisecond, func() { fired = true }) // reuses the recycled event
	if fresh.ev != stale.ev {
		t.Fatal("the removed event was not recycled")
	}
	if stale.Cancel() {
		t.Fatal("a stale handle cancelled the recycled event")
	}
	if err := s.RunUntilIdle(10); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("the recycled event's new owner never ran")
	}
}
