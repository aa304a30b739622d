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
	ring    *ring.Buffer[slot]
	dropped int64
	names   *ring.Names // what a slot's hosts index: the user's, shared by their stores

	// wide holds what each retained wide slot leaves out, oldest first.
	wide ring.Queue[wideFields]

	// summaries of exited processes, preserved beyond event eviction.
	exited map[proc.GPID]proc.Info

	// watches are history-dependent triggers.
	watches map[int]*Watch
	nextID  int
}

// slot is one retained event, 48 bytes where a proc.Event is 128: the
// two hosts are indices into its table of names, and the kind and signal
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

// DefaultCapacity bounds the number of retained events.
const DefaultCapacity = 4096

// NewStore creates a store with the given event capacity (0 means
// DefaultCapacity) whose hosts are indices into names.
func NewStore(capacity int, names *ring.Names) *Store {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Store{
		ring:    ring.NewBuffer[slot](capacity),
		names:   names,
		exited:  make(map[proc.GPID]proc.Info),
		watches: make(map[int]*Watch),
	}
}

// Append records an event, evicting the oldest if at capacity, then
// fires any matching watches.
//
//ppmlint:hotpath pin=TestHistoryAppendZeroAllocs
func (s *Store) Append(ev proc.Event) {
	p, evicted := s.ring.Next()
	if evicted {
		s.dropped++
		if p.wide {
			s.wide.Pop()
		}
	}
	*p = s.pack(ev)
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
		host: s.names.Index(ev.Proc.Host), chost: s.names.Index(ev.Child.Host),
		kind: int16(ev.Kind), signal: int16(ev.Signal),
	}
	if proc.EventKind(sl.kind) != ev.Kind || proc.Signal(sl.signal) != ev.Signal || ev.Rusage != (proc.Rusage{}) {
		sl.wide = true
		s.wide.Push(wideFields{kind: ev.Kind, signal: ev.Signal, rusage: ev.Rusage})
	}
	return sl
}

// each unpacks the retained events oldest first, pairing each wide
// slot with its entry of Store.wide, until f returns false.
func (s *Store) each(f func(proc.Event) bool) {
	for i, w := 0, 0; i < s.ring.Len(); i++ {
		sl := s.ring.At(i)
		ev := proc.Event{
			At: sl.at, Kind: proc.EventKind(sl.kind), Signal: proc.Signal(sl.signal), Detail: sl.detail,
			Proc:  proc.GPID{Host: s.names.Name(sl.host), PID: sl.pid},
			Child: proc.GPID{Host: s.names.Name(sl.chost), PID: sl.child},
		}
		if sl.wide {
			x := s.wide.At(w)
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
