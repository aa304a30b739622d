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
	ring    *ring.Buffer[proc.Event]
	dropped int64

	// summaries of exited processes, preserved beyond event eviction.
	exited map[proc.GPID]proc.Info

	// watches are history-dependent triggers.
	watches map[int]*Watch
	nextID  int
}

// DefaultCapacity bounds the number of retained events.
const DefaultCapacity = 4096

// NewStore creates a store with the given event capacity (0 means
// DefaultCapacity).
func NewStore(capacity int) *Store {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Store{
		ring:    ring.NewBuffer[proc.Event](capacity),
		exited:  make(map[proc.GPID]proc.Info),
		watches: make(map[int]*Watch),
	}
}

// Append records an event, evicting the oldest if at capacity, then
// fires any matching watches.
func (s *Store) Append(ev proc.Event) {
	if s.ring.Push(ev) {
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

// Events returns the retained events, oldest first.
func (s *Store) Events() []proc.Event { return s.ring.Slice() }

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
	kindOK := func(k proc.EventKind) bool {
		if len(q.Kinds) == 0 {
			return true
		}
		for _, want := range q.Kinds {
			if k == want {
				return true
			}
		}
		return false
	}
	var out []proc.Event
	for i := 0; i < s.ring.Len(); i++ {
		ev := s.ring.At(i)
		if !q.Proc.IsZero() && ev.Proc != q.Proc && ev.Child != q.Proc {
			continue
		}
		if ev.At < q.Since || !kindOK(ev.Kind) {
			continue
		}
		out = append(out, ev)
		if q.Limit > 0 && len(out) >= q.Limit {
			break
		}
	}
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
	for i := 0; i < s.ring.Len(); i++ {
		ev := s.ring.At(i)
		r.Total++
		r.ByKind[ev.Kind]++
		r.ByProc[ev.Proc]++
		if i == 0 {
			r.FirstAt = ev.At
		}
		r.LastAt = ev.At
	}
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
