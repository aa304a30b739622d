// Package sim provides the discrete-event simulation core that the rest
// of the repository is built on: a virtual clock, an event scheduler,
// cancellable timers and a deterministic random number source.
//
// Everything in the simulated world (network links, kernels, LPMs,
// daemons) runs as callbacks scheduled on a single *Scheduler. There is
// exactly one goroutine; time advances only when the scheduler pops the
// next event. This makes every test and every experiment in the
// repository fully deterministic: the same seed and the same inputs
// produce byte-identical tables.
//
// The paper itself has no simulator — it measured a live 4.3BSD
// installation (§8's VAX and Sun hosts). This package is the
// substitution that makes the paper's quantitative evaluation
// reproducible: virtual time stands in for the 1986 wall clock, so
// Tables 1–3 regenerate exactly instead of approximately.
package sim

import (
	"container/heap"
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// Time is an instant of virtual time, measured as a duration since the
// simulation epoch (t=0). It deliberately does not use time.Time: the
// simulated world has no calendar, only an ever-increasing clock.
type Time time.Duration

// Common virtual-time units re-exported for readability at call sites.
const (
	Nanosecond  = Time(time.Nanosecond)
	Microsecond = Time(time.Microsecond)
	Millisecond = Time(time.Millisecond)
	Second      = Time(time.Second)
	Minute      = Time(time.Minute)
	Hour        = Time(time.Hour)
)

// Duration returns the instant as a time.Duration since the epoch.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Milliseconds returns the instant as fractional milliseconds since the
// epoch. Experiment harnesses report table cells in this unit.
func (t Time) Milliseconds() float64 {
	return float64(t) / float64(time.Millisecond)
}

// Add returns the instant d later than t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Before reports whether t is strictly earlier than u.
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t is strictly later than u.
func (t Time) After(u Time) bool { return t > u }

func (t Time) String() string {
	return fmt.Sprintf("T+%s", time.Duration(t))
}

// ErrStopped is returned by Run variants when the scheduler has been
// stopped explicitly with Stop.
var ErrStopped = errors.New("sim: scheduler stopped")

// event is a single scheduled callback. Event structs are recycled
// through the scheduler's free list once they fire or are cancelled —
// scheduling is allocation-free in the steady state — so a Timer never
// dereferences one without first checking its generation.
type event struct {
	at  Time
	seq uint64 // tiebreaker: FIFO among events at the same instant
	fn  func()

	gen   uint64 // bumped on recycle; stale Timer handles check it
	index int    // heap index, maintained by eventHeap; -1 = not queued
}

// eventHeap orders events by (at, seq).
type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *eventHeap) Push(x any) {
	ev, ok := x.(*event)
	if !ok {
		return
	}
	ev.index = len(*h)
	*h = append(*h, ev)
}

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
}

// Timer is a handle to a scheduled callback. Cancel prevents the
// callback from running if it has not fired yet. Timer is a value: the
// zero Timer is valid and behaves as already-fired, and handles stay
// safe after their event is recycled (the generation check turns stale
// handles into no-ops).
type Timer struct {
	s   *Scheduler
	ev  *event
	gen uint64
}

// Cancel stops the timer. It reports whether the callback was prevented
// from running (false if it already fired or was already cancelled).
func (t Timer) Cancel() bool {
	if t.ev == nil || t.gen != t.ev.gen || t.ev.index < 0 {
		return false
	}
	heap.Remove(&t.s.events, t.ev.index)
	t.s.recycle(t.ev)
	return true
}

// Fired reports whether the timer's callback has already run (or been
// cancelled): i.e. it is no longer pending.
func (t Timer) Fired() bool {
	return t.ev == nil || t.gen != t.ev.gen || t.ev.index < 0
}

// Scheduler is a discrete-event scheduler with a virtual clock.
// The zero value is not usable; construct with NewScheduler.
type Scheduler struct {
	now     Time
	seq     uint64
	events  eventHeap
	free    []*event // recycled event structs, reused by At
	rng     *rand.Rand
	stopped bool
	steps   uint64
}

// NewScheduler returns a scheduler whose clock reads the epoch and whose
// random source is seeded with seed (use a fixed seed for determinism).
func NewScheduler(seed int64) *Scheduler {
	return &Scheduler{
		// #nosec G404 -- deterministic simulation randomness, not crypto.
		rng: rand.New(rand.NewSource(seed)),
	}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Rand returns the scheduler's deterministic random source.
func (s *Scheduler) Rand() *rand.Rand { return s.rng }

// Steps returns the number of events executed so far. Useful for
// runaway-loop guards in tests.
func (s *Scheduler) Steps() uint64 { return s.steps }

// recycle returns a fired or cancelled event to the free list. The
// generation bump invalidates every Timer handle still referring to it.
func (s *Scheduler) recycle(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.index = -1
	s.free = append(s.free, ev)
}

// At schedules fn to run at instant at. Scheduling in the past (or at
// the present instant) runs the event at the current time but strictly
// after all previously scheduled events for that time.
//
//ppmlint:hotpath pin=TestSchedulingSteadyStateZeroAllocs
func (s *Scheduler) At(at Time, fn func()) Timer {
	if fn == nil {
		return Timer{}
	}
	if at < s.now {
		at = s.now
	}
	s.seq++
	var ev *event
	if n := len(s.free); n > 0 {
		ev = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		ev.at, ev.seq, ev.fn = at, s.seq, fn
	} else {
		ev = &event{at: at, seq: s.seq, fn: fn}
	}
	heap.Push(&s.events, ev)
	return Timer{s: s, ev: ev, gen: ev.gen}
}

// After schedules fn to run d after the current instant. Negative d is
// treated as zero.
//
//ppmlint:hotpath pin=TestSchedulingSteadyStateZeroAllocs
func (s *Scheduler) After(d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return s.At(s.now.Add(d), fn)
}

// Defer schedules fn to run at the current instant, after all events
// already queued for this instant. It is the simulation analogue of
// "go fn()".
func (s *Scheduler) Defer(fn func()) Timer { return s.At(s.now, fn) }

// Stop halts the scheduler: subsequent Run calls return ErrStopped
// without executing further events. Pending events stay queued.
func (s *Scheduler) Stop() { s.stopped = true }

// Step executes the single earliest pending event, advancing the clock
// to its instant. It reports whether an event was executed.
// (Cancelled events are removed from the heap eagerly, so every queued
// event is live.)
//
//ppmlint:hotpath pin=TestSchedulingSteadyStateZeroAllocs
func (s *Scheduler) Step() bool {
	if len(s.events) == 0 {
		return false
	}
	ev, ok := heap.Pop(&s.events).(*event)
	if !ok {
		return false
	}
	s.now = ev.at
	s.steps++
	fn := ev.fn
	s.recycle(ev) // before fn: handles to this event now read as fired
	fn()
	return true
}

// pendingAt returns the instant of the earliest pending event and
// whether one exists.
func (s *Scheduler) pendingAt() (Time, bool) {
	if len(s.events) == 0 {
		return 0, false
	}
	return s.events[0].at, true
}

// RunUntil executes events until the clock would pass deadline, then
// sets the clock to deadline. Events scheduled exactly at the deadline
// are executed.
func (s *Scheduler) RunUntil(deadline Time) error {
	for {
		if s.stopped {
			return ErrStopped
		}
		at, ok := s.pendingAt()
		if !ok || at > deadline {
			break
		}
		s.Step()
	}
	if s.now < deadline {
		s.now = deadline
	}
	return nil
}

// RunFor advances the clock by d, executing all events in the window.
func (s *Scheduler) RunFor(d time.Duration) error {
	return s.RunUntil(s.now.Add(d))
}

// RunUntilIdle executes events until none remain. maxSteps guards
// against event loops that reschedule themselves forever; it returns an
// error if the budget is exhausted.
func (s *Scheduler) RunUntilIdle(maxSteps uint64) error {
	for i := uint64(0); ; i++ {
		if s.stopped {
			return ErrStopped
		}
		if i >= maxSteps {
			return fmt.Errorf("sim: RunUntilIdle exceeded %d steps at %v", maxSteps, s.now)
		}
		if !s.Step() {
			return nil
		}
	}
}

// RunUntilDone executes events until done returns true or no events
// remain. It returns an error if the budget maxSteps is exhausted first,
// and reports whether done was satisfied.
func (s *Scheduler) RunUntilDone(done func() bool, maxSteps uint64) (bool, error) {
	for i := uint64(0); ; i++ {
		if done() {
			return true, nil
		}
		if s.stopped {
			return false, ErrStopped
		}
		if i >= maxSteps {
			return false, fmt.Errorf("sim: RunUntilDone exceeded %d steps at %v", maxSteps, s.now)
		}
		if !s.Step() {
			return false, nil
		}
	}
}

// Pending returns the number of pending (non-cancelled) events.
func (s *Scheduler) Pending() int { return len(s.events) }
