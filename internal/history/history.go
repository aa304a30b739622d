// Package history implements the LPM's historical information store:
// the event traces the kernel delivers for adopted processes are
// preserved here at a user-settable granularity, queried by the data
// reduction and display tools, and summarized for exited-process
// resource statistics. The paper emphasizes that history-dependent
// events let users trigger process state changes; the Watch mechanism
// provides exactly that hook.
package history

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"ppm/internal/detord"
	"ppm/internal/proc"
	"ppm/internal/ring"
)

// Store preserves process events for one user on one host. A bounded
// capacity keeps the store's memory proportional to the service
// requested: when full, the oldest events are dropped (coarse summaries
// are kept separately and never dropped).
type Store struct {
	ring     *ring.Buffer[slot]
	capacity int
	dropped  int64

	// hosts names every host an appended event has mentioned: hosts[0]
	// is the zero GPID's empty host, then the store's own host and the
	// home hosts of forwarded exits, in order of first sight. index
	// inverts it; last is the index matched most recently, the store's
	// own host almost always.
	hosts []string
	index map[string]uint32
	last  uint32

	// wide holds what each retained wide slot leaves out, oldest first.
	wide fifo

	// summaries of exited processes, preserved beyond event eviction.
	exited map[proc.GPID]proc.Info

	// watches are history-dependent triggers.
	watches map[int]*Watch
	nextID  int
}

// slot is one retained event, 48 bytes where a proc.Event is 128: the
// two hosts are indices into the store's table, and the kind and signal
// are 16-bit. An event whose kind or signal does not fit, or whose
// Rusage is not zero (an exit), is wide: its kind, signal and Rusage
// are the next entry of Store.wide.
type slot struct {
	at           time.Duration
	detail       string
	pid, child   proc.PID
	host, chost  uint32
	kind, signal int16
	wide         bool
}

// wideFields are the fields of a wide event that its slot leaves out.
type wideFields struct {
	kind   proc.EventKind
	signal proc.Signal
	rusage proc.Rusage
}

// fifo is a circular queue of wideFields, grown by doubling: a store
// whose mix of events is steady stops allocating once the queue holds
// the most wide slots the ring retains at once.
type fifo struct {
	buf     []wideFields
	head, n int
}

func (q *fifo) push(w wideFields) {
	if q.n == len(q.buf) {
		buf := make([]wideFields, max(8, 2*q.n))
		copy(buf[copy(buf, q.buf[q.head:]):], q.buf[:q.head])
		q.buf, q.head = buf, 0
	}
	q.buf[(q.head+q.n)%len(q.buf)] = w
	q.n++
}

func (q *fifo) pop() {
	q.head = (q.head + 1) % len(q.buf)
	q.n--
}

// at returns the i-th queued entry, oldest first.
func (q *fifo) at(i int) wideFields { return q.buf[(q.head+i)%len(q.buf)] }

// DefaultCapacity bounds the number of retained events.
const DefaultCapacity = 4096

// NewStore creates a store with the given event capacity (0 means
// DefaultCapacity).
func NewStore(capacity int) *Store {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Store{
		ring:     ring.NewBuffer[slot](capacity),
		capacity: capacity,
		hosts:    []string{""},
		index:    make(map[string]uint32),
		exited:   make(map[proc.GPID]proc.Info),
		watches:  make(map[int]*Watch),
	}
}

// Append records an event, evicting the oldest if at capacity, then
// fires any matching watches.
//
//ppmlint:hotpath pin=TestHistoryAppendZeroAllocs
func (s *Store) Append(ev proc.Event) {
	if s.ring.Len() == s.capacity && s.ring.At(0).wide {
		s.wide.pop()
	}
	if s.ring.Push(s.pack(ev)) {
		s.dropped++
	}
	for _, w := range s.watches {
		if w.matches(ev) {
			w.hits++
			if w.Action != nil {
				w.Action(ev)
			}
		}
	}
}

// pack builds ev's slot, queueing what does not fit.
func (s *Store) pack(ev proc.Event) slot {
	sl := slot{
		at: ev.At, detail: ev.Detail,
		pid: ev.Proc.PID, child: ev.Child.PID,
		host: s.hostIndex(ev.Proc.Host), chost: s.hostIndex(ev.Child.Host),
		kind: int16(ev.Kind), signal: int16(ev.Signal),
	}
	if proc.EventKind(sl.kind) != ev.Kind || proc.Signal(sl.signal) != ev.Signal || ev.Rusage != (proc.Rusage{}) {
		sl.wide = true
		s.wide.push(wideFields{kind: ev.Kind, signal: ev.Signal, rusage: ev.Rusage})
	}
	return sl
}

// hostIndex returns h's index in the host table, adding it on first
// sight.
func (s *Store) hostIndex(h string) uint32 {
	if h == "" {
		return 0
	}
	if s.hosts[s.last] == h {
		return s.last
	}
	i, ok := s.index[h]
	if !ok {
		i = uint32(len(s.hosts))
		s.hosts = append(s.hosts, h)
		s.index[h] = i
	}
	s.last = i
	return i
}

// each unpacks the retained events oldest first, pairing each wide
// slot with its entry of Store.wide, until f returns false.
func (s *Store) each(f func(proc.Event) bool) {
	for i, w := 0, 0; i < s.ring.Len(); i++ {
		sl := s.ring.At(i)
		ev := proc.Event{
			At: sl.at, Kind: proc.EventKind(sl.kind), Signal: proc.Signal(sl.signal), Detail: sl.detail,
			Proc:  proc.GPID{Host: s.hosts[sl.host], PID: sl.pid},
			Child: proc.GPID{Host: s.hosts[sl.chost], PID: sl.child},
		}
		if sl.wide {
			x := s.wide.at(w)
			w++
			ev.Kind, ev.Signal, ev.Rusage = x.kind, x.signal, x.rusage
		}
		if !f(ev) {
			return
		}
	}
}

// Events returns the retained events, oldest first.
func (s *Store) Events() []proc.Event {
	out := make([]proc.Event, 0, s.ring.Len())
	s.each(func(ev proc.Event) bool {
		out = append(out, ev)
		return true
	})
	return out
}

// RecordExit preserves the final resource-consumption record of an
// exited process; these survive event eviction.
func (s *Store) RecordExit(info proc.Info) {
	s.exited[info.ID] = info
}

// ExitedInfo returns the preserved record of an exited process.
func (s *Store) ExitedInfo(id proc.GPID) (proc.Info, bool) {
	info, ok := s.exited[id]
	return info, ok
}

// Dropped returns how many events have been evicted.
func (s *Store) Dropped() int64 { return s.dropped }

// Len returns the number of retained events.
func (s *Store) Len() int { return s.ring.Len() }

// Query selects retained events. Zero-valued fields match everything.
type Query struct {
	Proc  proc.GPID // match this process (zero = all)
	Kinds []proc.EventKind
	Since time.Duration // events at or after this instant
	Limit int           // 0 = unlimited
}

// Select returns the matching events in time order.
func (s *Store) Select(q Query) []proc.Event {
	var out []proc.Event
	s.each(func(ev proc.Event) bool {
		if (q.Proc.IsZero() || ev.Proc == q.Proc || ev.Child == q.Proc) && ev.At >= q.Since &&
			(len(q.Kinds) == 0 || slices.Contains(q.Kinds, ev.Kind)) {
			out = append(out, ev)
		}
		return q.Limit <= 0 || len(out) < q.Limit
	})
	return out
}

// Watch is a history-dependent trigger: when an event matching the
// filter arrives, the action runs. This is the mechanism behind the
// paper's "event driven user defined actions".
type Watch struct {
	Proc   proc.GPID // zero = any process
	Kind   proc.EventKind
	Signal proc.Signal // for EvSignal: match this signal (0 = any)
	Action func(proc.Event)

	hits int64
}

// Hits returns how many times the watch has fired.
func (w *Watch) Hits() int64 { return w.hits }

func (w *Watch) matches(ev proc.Event) bool {
	if w.Kind != 0 && ev.Kind != w.Kind {
		return false
	}
	if !w.Proc.IsZero() && ev.Proc != w.Proc && ev.Child != w.Proc {
		return false
	}
	if w.Signal != 0 && ev.Signal != w.Signal {
		return false
	}
	return true
}

// AddWatch installs a watch and returns its id.
func (s *Store) AddWatch(w *Watch) int {
	s.nextID++
	s.watches[s.nextID] = w
	return s.nextID
}

// RemoveWatch uninstalls a watch.
func (s *Store) RemoveWatch(id int) { delete(s.watches, id) }

// Reduction is a summary of retained history, the kind of data the
// paper's reduction tools compute before display.
type Reduction struct {
	Total    int64
	ByKind   map[proc.EventKind]int64
	ByProc   map[proc.GPID]int64
	FirstAt  time.Duration
	LastAt   time.Duration
	Dropped  int64
	ExitRecs int
}

// Reduce summarizes the retained events.
func (s *Store) Reduce() Reduction {
	r := Reduction{
		ByKind:   make(map[proc.EventKind]int64),
		ByProc:   make(map[proc.GPID]int64),
		Dropped:  s.dropped,
		ExitRecs: len(s.exited),
	}
	s.each(func(ev proc.Event) bool {
		r.Total++
		r.ByKind[ev.Kind]++
		r.ByProc[ev.Proc]++
		if r.Total == 1 {
			r.FirstAt = ev.At
		}
		r.LastAt = ev.At
		return true
	})
	return r
}

// Format renders the reduction as a small report.
func (r Reduction) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "events: %d retained (%d dropped), %d exit records\n",
		r.Total, r.Dropped, r.ExitRecs)
	if r.Total > 0 {
		fmt.Fprintf(&b, "window: %v .. %v\n", r.FirstAt, r.LastAt)
	}
	for _, k := range detord.Keys(r.ByKind) {
		fmt.Fprintf(&b, "  %-8s %d\n", k, r.ByKind[k])
	}
	return b.String()
}
