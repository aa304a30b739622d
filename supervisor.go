package ppm

import (
	"time"

	"ppm/internal/resilient"
	"ppm/internal/sim"
)

// Supervision re-exports the resilient-computation layer (the "robust
// protocols implemented on top of our basic mechanism" the paper's
// Section 5 anticipates).
type (
	// Supervisor restarts supervised processes per their policies.
	Supervisor = resilient.Supervisor
	// SuperviseSpec describes one supervised process.
	SuperviseSpec = resilient.Spec
	// RestartPolicy says when a process is restarted.
	RestartPolicy = resilient.Policy
)

// Restart policies.
const (
	RestartNever     = resilient.Never
	RestartOnFailure = resilient.OnFailure
	RestartAlways    = resilient.Always
)

// schedClock adapts the simulation scheduler to the supervisor clock.
type schedClock struct{ sched *sim.Scheduler }

func (c schedClock) After(d time.Duration, fn func()) resilient.CancelableTimer {
	return c.sched.After(d, fn)
}

// NewSupervisor creates a supervisor over this session's PPM (the LPM's
// asynchronous interface is the supervisor's environment), polling the
// distributed snapshot at the given virtual-time interval.
func (s *Session) NewSupervisor(interval time.Duration) *Supervisor {
	return resilient.New(s.mgr, schedClock{s.c.sched}, interval)
}
