package ppm

import (
	"time"

	"ppm/internal/auth"
	"ppm/internal/history"
	"ppm/internal/kernel"
	"ppm/internal/lpm"
	"ppm/internal/proc"
	"ppm/internal/wire"
)

// Re-exported process-model types, so library users need only the ppm
// package for everyday work.
type (
	// GPID is a network-global process identity <host, pid>.
	GPID = proc.GPID
	// PID is a per-host process identifier.
	PID = proc.PID
	// Snapshot is the state of a distributed computation.
	Snapshot = proc.Snapshot
	// Info is the per-process snapshot record.
	Info = proc.Info
	// Event is one kernel-reported process event.
	Event = proc.Event
	// Signal is a software interrupt.
	Signal = proc.Signal
	// TraceMask selects event-tracing granularity.
	TraceMask = kernel.TraceMask
	// HistoryQuery selects preserved events.
	HistoryQuery = history.Query
	// Watch is a history-dependent trigger.
	Watch = history.Watch
	// EventKind classifies kernel-reported process events.
	EventKind = proc.EventKind
	// State is a process state (running, stopped, exited, dead).
	State = proc.State
)

// Re-exported process states.
const (
	Running = proc.Running
	Stopped = proc.Stopped
	Exited  = proc.Exited
	Dead    = proc.Dead
)

// Re-exported event kinds for watches and history queries.
const (
	EvFork    = proc.EvFork
	EvExec    = proc.EvExec
	EvExit    = proc.EvExit
	EvStop    = proc.EvStop
	EvCont    = proc.EvCont
	EvSignal  = proc.EvSignal
	EvSyscall = proc.EvSyscall
	EvIPC     = proc.EvIPC
	EvOpen    = proc.EvOpen
	EvClose   = proc.EvClose
)

// Re-exported signals and trace masks.
const (
	SIGINT  = proc.SIGINT
	SIGKILL = proc.SIGKILL
	SIGTERM = proc.SIGTERM
	SIGSTOP = proc.SIGSTOP
	SIGCONT = proc.SIGCONT
	SIGUSR1 = proc.SIGUSR1
	SIGUSR2 = proc.SIGUSR2

	TraceLifecycle = kernel.TraceLifecycle
	TraceSignals   = kernel.TraceSignals
	TraceSyscalls  = kernel.TraceSyscalls
	TraceIPC       = kernel.TraceIPC
	TraceFiles     = kernel.TraceFiles
	TraceDefault   = kernel.TraceDefault
	TraceAll       = kernel.TraceAll
)

// Session is a user's handle on their Personal Process Manager,
// anchored at the LPM on their home host. All methods are synchronous:
// they drive the virtual clock until the distributed operation
// completes, which makes elapsed virtual time directly measurable
// around any call.
type Session struct {
	c    *Cluster
	user *auth.User
	home string
	mgr  *lpm.LPM
}

// Home returns the session's home host.
func (s *Session) Home() string { return s.home }

// User returns the account name.
func (s *Session) User() string { return s.user.Name }

// Manager returns the underlying home LPM (advanced use: stats,
// recovery state, history store).
func (s *Session) Manager() *lpm.LPM { return s.mgr }

// Run creates a process on any host, adopted by the PPM, with the LPM
// as its logical parent. Within the host this is the paper's 77 ms
// path; on a warm circuit to a remote host, the 177 ms path.
func (s *Session) Run(host, name string) (GPID, error) {
	return s.RunChild(host, name, GPID{})
}

// RunChild creates a process with an explicit logical parent, which may
// live on any host: arbitrary genealogical structure is allowed.
func (s *Session) RunChild(host, name string, parent GPID) (GPID, error) {
	return wait(s.c, func(cb func(GPID, error)) { s.mgr.Create(host, name, parent, cb) })
}

// control performs one control operation synchronously.
func (s *Session) control(target GPID, op wire.ControlOp, sig Signal) error {
	resp, err := wait(s.c, func(cb func(wire.ControlResp, error)) { s.mgr.Control(target, op, sig, cb) })
	if err == nil && !resp.OK {
		err = &ControlError{Target: target, Op: op.String(), Reason: resp.Reason}
	}
	return err
}

// ControlError reports a failed control operation.
type ControlError struct {
	Target GPID
	Op     string
	Reason string
}

// Error describes the failure.
func (e *ControlError) Error() string {
	return "ppm: " + e.Op + " " + e.Target.String() + ": " + e.Reason
}

// Stop stops a process anywhere in the network (SIGSTOP via the
// adopted-process control block).
func (s *Session) Stop(target GPID) error { return s.control(target, wire.OpStop, 0) }

// Foreground resumes a process in the foreground.
func (s *Session) Foreground(target GPID) error { return s.control(target, wire.OpForeground, 0) }

// Background resumes a process in the background.
func (s *Session) Background(target GPID) error { return s.control(target, wire.OpBackground, 0) }

// Kill terminates a process anywhere in the network.
func (s *Session) Kill(target GPID) error { return s.control(target, wire.OpKill, 0) }

// Signal delivers a software interrupt to a process anywhere in the
// network, with no constraints from creation dependencies.
func (s *Session) Signal(target GPID, sig Signal) error {
	return s.control(target, wire.OpSignal, sig)
}

// broadcastControl floods a control operation to every reachable LPM.
func (s *Session) broadcastControl(op wire.ControlOp, sig Signal) (int, error) {
	return wait(s.c, func(cb func(int, error)) { s.mgr.ControlAll(op, sig, cb) })
}

// StopAll broadcasts a stop to every live process of the user on every
// reachable host and returns how many were affected — the paper's
// "broadcasting, say, a software interrupt to stop execution".
func (s *Session) StopAll() (int, error) {
	return s.broadcastControl(wire.OpStop, 0)
}

// ContinueAll broadcasts a continue (background) everywhere.
func (s *Session) ContinueAll() (int, error) {
	return s.broadcastControl(wire.OpBackground, 0)
}

// KillAll broadcasts a kill everywhere.
func (s *Session) KillAll() (int, error) {
	return s.broadcastControl(wire.OpKill, 0)
}

// SignalAll broadcasts an arbitrary software interrupt everywhere.
func (s *Session) SignalAll(sig Signal) (int, error) {
	return s.broadcastControl(wire.OpSignal, sig)
}

// Snapshot gathers the distributed computation's state over the PPM's
// circuit graph: every known process with its genealogy. Hosts that
// cannot be reached are listed in Snapshot.Partial and the genealogy
// may be a forest.
func (s *Session) Snapshot() (Snapshot, error) {
	return wait(s.c, s.mgr.Snapshot)
}

// Status gathers a live status report from the user's LPM on every
// host of the installation, originating at this session's LPM. Hosts
// that cannot be reached are listed in ClusterStatus.Unreachable.
func (s *Session) Status() (ClusterStatus, error) {
	return wait(s.c, func(cb func(ClusterStatus, error)) { s.mgr.StatusSweep(s.c.Hosts(), cb) })
}

// Stats returns the resource-consumption record of a process anywhere
// in the network; for exited processes the record is the one the LPM
// preserved.
func (s *Session) Stats(target GPID) (Info, error) {
	return wait(s.c, func(cb func(Info, error)) { s.mgr.StatsOf(target, cb) })
}

// OpenFiles lists the open descriptors of a process anywhere in the
// network, as "fd:path" strings.
func (s *Session) OpenFiles(target GPID) ([]string, error) {
	return wait(s.c, func(cb func([]string, error)) { s.mgr.FDs(target, cb) })
}

// HistoryOn queries the preserved event trace of the user's LPM on any
// host: kernel events are recorded by the LPM local to each process, so
// a remote worker's lifecycle lives in that host's trace.
func (s *Session) HistoryOn(host string, q HistoryQuery) ([]Event, error) {
	return wait(s.c, func(cb func([]Event, error)) { s.mgr.HistoryOf(host, q, cb) })
}

// Computation returns the snapshot of one distributed computation: the
// subtree rooted at root. The user may manage several computations at
// once; this isolates one of them.
func (s *Session) Computation(root GPID) (Snapshot, error) {
	snap, err := s.Snapshot()
	if err != nil {
		return Snapshot{}, err
	}
	return snap.Subtree(root), nil
}

// History queries the home LPM's preserved event trace.
func (s *Session) History(q HistoryQuery) ([]Event, error) {
	return s.HistoryOn(s.home, q)
}

// Adopt brings an existing local process (started outside the PPM)
// under management; its descendants are tracked automatically.
func (s *Session) Adopt(pid PID) error {
	return waitErr(s.c, func(cb func(error)) { s.mgr.Adopt(pid, cb) })
}

// SetTraceMask adjusts the event-tracing granularity of an adopted
// local process (the user-settable granularity that makes the PPM
// usable by a debugger).
func (s *Session) SetTraceMask(pid PID, mask TraceMask) error {
	return waitErr(s.c, func(cb func(error)) { s.mgr.SetTraceMask(pid, mask, cb) })
}

// OnEvent installs a history-dependent trigger on the home LPM: action
// runs whenever a matching event arrives. It returns a handle to
// remove the watch.
func (s *Session) OnEvent(w *Watch) (remove func()) {
	id := s.mgr.AddWatch(w)
	return func() { s.mgr.RemoveWatch(id) }
}

// OnEventAt installs a history-dependent trigger on the user's LPM on
// another host: when an event matching w arrives there, the control
// operation op (with signal sig) is applied to target — which may live
// on any host. This is the paper's "history dependent events ... set by
// users to trigger process state changes", across machine boundaries.
func (s *Session) OnEventAt(host string, w *Watch, op ControlOp,
	sig Signal, target GPID) (remove func(), err error) {
	return wait(s.c, func(cb func(func(), error)) { s.mgr.WatchOn(host, w, op, sig, target, cb) })
}

// ControlOp names a process-control operation for remote watch actions.
type ControlOp = wire.ControlOp

// Control operations for OnEventAt actions.
const (
	OpStop       = wire.OpStop
	OpForeground = wire.OpForeground
	OpBackground = wire.OpBackground
	OpKill       = wire.OpKill
	OpSignal     = wire.OpSignal
)

// AttachAt returns a Session anchored at the user's LPM on a different
// host, creating it on demand. Operations issued through it originate
// there — the way chain topologies (host A knows B, B knows C) arise.
func (s *Session) AttachAt(host string) (*Session, error) {
	return s.c.Attach(s.user.Name, host)
}

// Elapsed measures the virtual time a function takes.
func (s *Session) Elapsed(fn func() error) (time.Duration, error) {
	start := s.c.Now()
	err := fn()
	return s.c.Now().Sub(start), err
}

// Locate finds the user's processes with the given name across every
// reachable host — the "locating the execution sites of a distributed
// computation" facility the paper's introduction calls for.
func (s *Session) Locate(name string) ([]GPID, error) {
	snap, err := s.Snapshot()
	if err != nil {
		return nil, err
	}
	var out []GPID
	for _, p := range snap.Procs {
		if p.Name == name {
			out = append(out, p.ID)
		}
	}
	return out, nil
}
