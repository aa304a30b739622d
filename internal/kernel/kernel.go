// Package kernel simulates the per-host enhanced 4.3BSD kernel the PPM
// depends on: a process table with fork/exec/exit and signals, the
// extended ptrace "adoption" call that gives the LPM write access to a
// process's control block, per-process trace flags that make the kernel
// emit event messages to the LPM, a CPU with a run-queue-derived load
// average, and the load-dependent kernel-to-LPM message delivery whose
// cost the paper's Table 1 measures.
//
// The kernel is a passive object driven by the shared discrete-event
// scheduler; it performs no I/O and spawns no goroutines.
package kernel

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"ppm/internal/calib"
	"ppm/internal/detord"
	"ppm/internal/journal"
	"ppm/internal/metrics"
	"ppm/internal/proc"
	"ppm/internal/sim"
)

// Kernel errors.
var (
	ErrNoSuchProcess = errors.New("kernel: no such process")
	ErrPermission    = errors.New("kernel: operation not permitted")
	ErrDead          = errors.New("kernel: process not alive")
	ErrHostDown      = errors.New("kernel: host down")
)

// TraceMask selects which event classes the kernel reports for an
// adopted process; the granularity is user-settable, which is what lets
// a debugger use the PPM.
type TraceMask uint32

// Trace mask bits.
const (
	TraceLifecycle TraceMask = 1 << iota // fork, exec, exit
	TraceSignals                         // stop, cont, signal delivery
	TraceSyscalls                        // every system call (finest)
	TraceIPC                             // message send/receive
	TraceFiles                           // open/close

	// TraceDefault is what adoption installs: lifecycle + signals.
	TraceDefault = TraceLifecycle | TraceSignals
	// TraceAll enables everything.
	TraceAll = TraceLifecycle | TraceSignals | TraceSyscalls | TraceIPC | TraceFiles
)

// Process is one entry in the simulated process table.
type Process struct {
	PID      proc.PID
	Name     string
	User     string
	PPID     proc.PID  // local parent (0 for host-root processes)
	Parent   proc.GPID // logical parent, possibly on another host
	State    proc.State
	ExitCode int
	Rusage   proc.Rusage
	Started  sim.Time
	ExitedAt sim.Time

	Traced     bool
	Mask       TraceMask
	Foreground bool

	fds     map[int]string
	nextFD  int
	dutyNum int // workload duty cycle numerator (0 = not a workload)
	dutyDen int
	running bool // workload currently in its CPU-bound phase
}

// Memory model constants: a modest 1986 process image, growing with
// activity up to a working-set cap.
const (
	baseImageKB = 64
	maxImageKB  = 1024
)

// growRSS grows the process's resident size by kb, capped; MaxRSSKB
// records the high-water mark.
func (p *Process) growRSS(kb int64) {
	rss := p.Rusage.MaxRSSKB + kb
	if rss > maxImageKB {
		rss = maxImageKB
	}
	p.Rusage.MaxRSSKB = rss
}

// OpenFDs returns the process's open descriptors as "fd:path" strings,
// sorted by descriptor number.
func (p *Process) OpenFDs() []string {
	fds := detord.Keys(p.fds)
	out := make([]string, 0, len(fds))
	for _, fd := range fds {
		out = append(out, fmt.Sprintf("%d:%s", fd, p.fds[fd]))
	}
	return out
}

// Host is one simulated machine: kernel state plus a CPU.
type Host struct {
	name  string
	model calib.CPUModel
	sched *sim.Group // the current boot's: Crash ends it, Restart starts the next

	up      bool
	procs   map[proc.PID]*Process
	nextPID proc.PID

	// CPU executor: serializes modelled CPU demands.
	busyUntil sim.Time
	cpu       cpuQueue

	// Load average machinery: the estimator decays exponentially toward
	// the instantaneous run-queue length. Instead of periodic sampling
	// we integrate the decay analytically, updating the base value only
	// when the run queue changes — exact and event-free.
	runq   int
	laBase float64
	laFrom sim.Time

	// Per-user kernel->LPM event sinks (the LPM kernel socket).
	sinks map[string]func(proc.Event)

	// UntracedChecks counts syscalls that paid only the trace-flag check
	// (the overhead benchmarks' subject; it has no journal kind or metric).
	UntracedChecks int64

	// The installation's recorder (nil unless SetRecorder ran): process
	// lifecycle and delivered trace events are stated to it, each under
	// the tracer's active span. delivery is its kernel.delivery
	// histogram, resolved on the first event delivered.
	rec      *journal.Recorder
	delivery *metrics.Histogram
}

// loadTau is the smoothing constant of the load-average estimator (the
// paper's la is "a time-averaged cpu run queue length"; BSD used a
// one-minute constant, we use a shorter one so experiments converge in
// seconds of virtual time).
const loadTau = 5 * time.Second

// NewHost creates a host of the given machine type.
func NewHost(sched *sim.Scheduler, name string, model calib.CPUModel) *Host {
	h := &Host{
		name:    name,
		model:   model,
		sched:   sched.NewGroup(),
		up:      true,
		procs:   make(map[proc.PID]*Process),
		nextPID: 1,
		sinks:   make(map[string]func(proc.Event)),
	}
	h.cpu.complete = h.cpu.pop
	h.laFrom = sched.Now()
	return h
}

// Name returns the host name.
func (h *Host) Name() string { return h.name }

// SetRecorder installs the installation's recorder. A nil recorder (the
// default) records nothing.
func (h *Host) SetRecorder(rec *journal.Recorder) { h.rec, h.delivery = rec, nil }

// observeEvent states one kernel-to-LPM event message, the kind of fact
// that fires per process event, under the tracer's active span: its
// values go to the recorder as they are.
//
//ppmlint:hotpath pin=TestObserveEventZeroAllocs
func (h *Host) observeEvent(ev proc.Event) {
	h.rec.Record(journal.KernelEvent, h.name, h.rec.Tracer().Active(),
		journal.EventMessage(ev.Kind.String(), ev.Proc.Host, int32(ev.Proc.PID)))
}

// Model returns the host's CPU model.
func (h *Host) Model() calib.CPUModel { return h.model }

// Up reports whether the host is running.
func (h *Host) Up() bool { return h.up }

// Boot returns the group of the host's current boot. Whatever is
// scheduled on it dies with the boot: a Crash cancels it all.
func (h *Host) Boot() *sim.Group { return h.sched }

// --- load average ---

// setRunnable moves a workload process on or off the run queue,
// folding the elapsed interval into the load-average base first.
func (h *Host) setRunnable(p *Process, r bool) {
	if p.running == r {
		return
	}
	h.laBase = h.LoadAvg()
	h.laFrom = h.sched.Now()
	p.running = r
	if r {
		h.runq++
	} else {
		h.runq--
	}
}

// LoadAvg returns the current time-averaged run-queue length: the
// estimator decays exponentially from its base value toward the
// instantaneous run-queue length.
func (h *Host) LoadAvg() float64 {
	dt := h.sched.Now().Sub(h.laFrom)
	if dt <= 0 {
		return h.laBase
	}
	decay := math.Exp(-float64(dt) / float64(loadTau))
	n := float64(h.runq)
	return n + (h.laBase-n)*decay
}

// --- CPU executor ---

// ExecCPU charges a CPU demand (expressed as reference-machine cost at
// zero load) to the host's CPU and runs fn when it completes. Demands
// are serialized: the host has one CPU.
//
//ppmlint:hotpath pin=TestExecCPUSteadyStateZeroAllocs
func (h *Host) ExecCPU(cost time.Duration, fn func()) {
	if !h.up {
		return
	}
	scaled := h.model.Scale(cost, h.LoadAvg())
	start := h.sched.Now()
	if h.busyUntil.After(start) {
		start = h.busyUntil
	}
	h.busyUntil = start.Add(scaled)
	q := &h.cpu
	if len(q.fns) == cap(q.fns) && q.head >= len(q.fns)-q.head { // as many done as waiting: slide down, do not grow
		q.fns, q.head = slices.Delete(q.fns, 0, q.head), 0
	}
	q.fns = append(q.fns, fn)
	h.sched.At(h.busyUntil, q.complete)
}

// cpuQueue is the work the boot has charged to the CPU, oldest first.
// Within a boot busyUntil never moves back and the scheduler is FIFO
// within an instant, so each completion event runs the oldest entry. A
// Crash ends the boot's completion events and empties the queue.
type cpuQueue struct {
	fns      []func()
	head     int    // fns[head:] is still to complete
	complete func() // pop as a method value, made once: scheduling it allocates nothing
}

func (q *cpuQueue) pop() {
	fn := q.fns[q.head]
	q.fns[q.head] = nil
	q.head++
	fn()
}

// --- process lifecycle ---

func (h *Host) get(pid proc.PID) (*Process, error) {
	p, ok := h.procs[pid]
	if !ok {
		return nil, fmt.Errorf("%w: %s pid %d", ErrNoSuchProcess, h.name, pid)
	}
	return p, nil
}

// Spawn creates a host-root process (no local parent): login shells,
// daemons, and the LPM itself enter the table this way.
func (h *Host) Spawn(name, user string) (*Process, error) {
	if !h.up {
		return nil, fmt.Errorf("%w: %s", ErrHostDown, h.name)
	}
	p := &Process{
		PID:     h.nextPID,
		Name:    name,
		User:    user,
		State:   proc.Running,
		Started: h.sched.Now(),
		Rusage:  proc.Rusage{MaxRSSKB: baseImageKB},
		fds:     map[int]string{0: "/dev/tty", 1: "/dev/tty", 2: "/dev/tty"},
		nextFD:  3,
	}
	h.nextPID++
	h.procs[p.PID] = p
	h.rec.Record(journal.KernelSpawn, h.name, h.rec.Tracer().Active(), journal.Spawn(int32(p.PID), name, user))
	return p, nil
}

// Fork creates a child of parent. The child inherits the user, the
// trace flags (as 4.3BSD inherits them across fork for traced
// processes) and the descriptor table. A fork event is reported if the
// parent is traced.
func (h *Host) Fork(parentPID proc.PID, name string) (*Process, error) {
	if !h.up {
		return nil, fmt.Errorf("%w: %s", ErrHostDown, h.name)
	}
	parent, err := h.get(parentPID)
	if err != nil {
		return nil, err
	}
	if parent.State != proc.Running && parent.State != proc.Stopped {
		return nil, fmt.Errorf("%w: fork from pid %d", ErrDead, parentPID)
	}
	child := &Process{
		PID:     h.nextPID,
		Name:    name,
		User:    parent.User,
		PPID:    parent.PID,
		Parent:  proc.GPID{Host: h.name, PID: parent.PID},
		State:   proc.Running,
		Started: h.sched.Now(),
		Traced:  parent.Traced,
		Mask:    parent.Mask,
		Rusage:  proc.Rusage{MaxRSSKB: parent.Rusage.MaxRSSKB},
		fds:     make(map[int]string, len(parent.fds)),
		nextFD:  parent.nextFD,
	}
	for fd, path := range parent.fds {
		child.fds[fd] = path
	}
	h.nextPID++
	h.procs[child.PID] = child
	h.rec.Record(journal.KernelFork, h.name, h.rec.Tracer().Active(), journal.Fork(int32(parent.PID), int32(child.PID), name))
	parent.Rusage.Syscalls++
	h.emit(parent, proc.Event{
		Kind:  proc.EvFork,
		Proc:  proc.GPID{Host: h.name, PID: parent.PID},
		Child: proc.GPID{Host: h.name, PID: child.PID},
	}, TraceLifecycle)
	return child, nil
}

// SetLogicalParent overrides a process's logical parent, used when the
// true creator lives on another host (remote process creation).
func (h *Host) SetLogicalParent(pid proc.PID, parent proc.GPID) error {
	p, err := h.get(pid)
	if err != nil {
		return err
	}
	p.Parent = parent // a zero parent detaches the process into a root
	h.rec.Record(journal.KernelSetParent, h.name, h.rec.Tracer().Active(),
		journal.SetParent(int32(pid), parent.Host, int32(parent.PID)))
	return nil
}

// Exec overlays the process image with a new program name and reports
// an exec event when traced.
func (h *Host) Exec(pid proc.PID, name string) error {
	p, err := h.get(pid)
	if err != nil {
		return err
	}
	if p.State == proc.Exited || p.State == proc.Dead {
		return fmt.Errorf("%w: exec pid %d", ErrDead, pid)
	}
	p.Name = name
	p.Rusage.Syscalls++
	h.emit(p, proc.Event{
		Kind:   proc.EvExec,
		Proc:   proc.GPID{Host: h.name, PID: pid},
		Detail: name,
	}, TraceLifecycle)
	return nil
}

// Exit terminates a process voluntarily. The table entry is retained in
// the Exited state (the LPM preserves exit information while children
// are alive and marks the process exited in snapshots).
func (h *Host) Exit(pid proc.PID, code int) error {
	p, err := h.get(pid)
	if err != nil {
		return err
	}
	if p.State == proc.Exited || p.State == proc.Dead {
		return fmt.Errorf("%w: exit pid %d", ErrDead, pid)
	}
	p.State = proc.Exited
	p.ExitCode = code
	p.ExitedAt = h.sched.Now()
	h.rec.Record(journal.KernelExit, h.name, h.rec.Tracer().Active(), journal.Exit(int32(pid), int32(code), ""))
	h.setRunnable(p, false)
	h.emit(p, proc.Event{
		Kind:   proc.EvExit,
		Proc:   proc.GPID{Host: h.name, PID: pid},
		Rusage: p.Rusage,
	}, TraceLifecycle)
	return nil
}

// Signal delivers a software interrupt. Default dispositions: SIGSTOP
// stops, SIGCONT resumes, SIGKILL/SIGTERM/SIGINT terminate, user
// signals are recorded (and traced) but otherwise ignored.
func (h *Host) Signal(pid proc.PID, sig proc.Signal) error {
	p, err := h.get(pid)
	if err != nil {
		return err
	}
	if p.State == proc.Exited || p.State == proc.Dead {
		return fmt.Errorf("%w: signal %v to pid %d", ErrDead, sig, pid)
	}
	switch sig {
	case proc.SIGSTOP:
		if p.State != proc.Stopped {
			p.State = proc.Stopped
			h.setRunnable(p, false)
			h.emit(p, proc.Event{
				Kind: proc.EvStop, Proc: proc.GPID{Host: h.name, PID: pid}, Signal: sig,
			}, TraceSignals)
		}
	case proc.SIGCONT:
		if p.State == proc.Stopped {
			p.State = proc.Running
			h.emit(p, proc.Event{
				Kind: proc.EvCont, Proc: proc.GPID{Host: h.name, PID: pid}, Signal: sig,
			}, TraceSignals)
		}
	case proc.SIGKILL, proc.SIGTERM, proc.SIGINT:
		p.State = proc.Exited
		p.ExitCode = 128 + int(sig)
		p.ExitedAt = h.sched.Now()
		h.rec.Record(journal.KernelExit, h.name, h.rec.Tracer().Active(), journal.Exit(int32(pid), int32(p.ExitCode), sig.String()))
		h.setRunnable(p, false)
		h.emit(p, proc.Event{
			Kind: proc.EvExit, Proc: proc.GPID{Host: h.name, PID: pid},
			Signal: sig, Rusage: p.Rusage,
		}, TraceLifecycle)
	default:
		h.emit(p, proc.Event{
			Kind: proc.EvSignal, Proc: proc.GPID{Host: h.name, PID: pid}, Signal: sig,
		}, TraceSignals)
	}
	return nil
}

// Adopt is the extended ptrace call: it gives the requesting user's LPM
// write access to the process control block and installs the default
// trace flags. Adoption fails if the process belongs to a different
// user, as in the paper.
func (h *Host) Adopt(pid proc.PID, user string) error {
	p, err := h.get(pid)
	if err != nil {
		return err
	}
	if p.User != user {
		return fmt.Errorf("%w: %s cannot adopt %s's pid %d", ErrPermission, user, p.User, pid)
	}
	if p.State == proc.Exited || p.State == proc.Dead {
		return fmt.Errorf("%w: adopt pid %d", ErrDead, pid)
	}
	p.Traced = true
	if p.Mask == 0 {
		p.Mask = TraceDefault
	}
	return nil
}

// SetTraceMask adjusts the event granularity for an adopted process.
func (h *Host) SetTraceMask(pid proc.PID, user string, mask TraceMask) error {
	p, err := h.get(pid)
	if err != nil {
		return err
	}
	if p.User != user {
		return fmt.Errorf("%w: %s cannot trace %s's pid %d", ErrPermission, user, p.User, pid)
	}
	if !p.Traced {
		return fmt.Errorf("%w: pid %d not adopted", ErrPermission, pid)
	}
	p.Mask = mask
	return nil
}

// SetForeground moves a process between the foreground and background.
// At most one process per user occupies the foreground on a host (the
// terminal's foreground process group): raising one demotes the
// previous occupant to the background.
func (h *Host) SetForeground(pid proc.PID, fg bool) error {
	p, err := h.get(pid)
	if err != nil {
		return err
	}
	if fg {
		for _, q := range h.procs {
			if q.User == p.User && q.Foreground && q.PID != pid {
				q.Foreground = false
			}
		}
	}
	p.Foreground = fg
	return nil
}

// Foreground returns the user's current foreground process on this
// host, if any.
func (h *Host) Foreground(user string) (*Process, bool) {
	for _, p := range h.procs {
		if p.User == user && p.Foreground &&
			(p.State == proc.Running || p.State == proc.Stopped) {
			return p, true
		}
	}
	return nil, false
}

// --- system calls and accounting ---

// Syscall accounts one system call by the process. For untraced
// processes the only PPM overhead is comparing a flag to zero; the
// UntracedChecks counter lets the benchmarks observe this. Traced
// processes with TraceSyscalls report an event.
func (h *Host) Syscall(pid proc.PID, name string) error {
	p, err := h.get(pid)
	if err != nil {
		return err
	}
	if p.State != proc.Running {
		return fmt.Errorf("%w: syscall from pid %d", ErrDead, pid)
	}
	p.Rusage.Syscalls++
	p.Rusage.CPUTime += 50 * time.Microsecond
	p.growRSS(4)
	if !p.Traced {
		h.UntracedChecks++ // the ~40-line function is never entered
		return nil
	}
	h.emit(p, proc.Event{
		Kind: proc.EvSyscall, Proc: proc.GPID{Host: h.name, PID: pid}, Detail: name,
	}, TraceSyscalls)
	return nil
}

// OpenFD opens a descriptor on a path.
func (h *Host) OpenFD(pid proc.PID, path string) (int, error) {
	p, err := h.get(pid)
	if err != nil {
		return 0, err
	}
	fd := p.nextFD
	p.nextFD++
	p.fds[fd] = path
	p.Rusage.Syscalls++
	p.growRSS(8)
	h.emit(p, proc.Event{
		Kind: proc.EvOpen, Proc: proc.GPID{Host: h.name, PID: pid}, Detail: path,
	}, TraceFiles)
	return fd, nil
}

// CloseFD closes a descriptor.
func (h *Host) CloseFD(pid proc.PID, fd int) error {
	p, err := h.get(pid)
	if err != nil {
		return err
	}
	path, ok := p.fds[fd]
	if !ok {
		return fmt.Errorf("%w: pid %d fd %d", ErrNoSuchProcess, pid, fd)
	}
	delete(p.fds, fd)
	p.Rusage.Syscalls++
	h.emit(p, proc.Event{
		Kind: proc.EvClose, Proc: proc.GPID{Host: h.name, PID: pid}, Detail: path,
	}, TraceFiles)
	return nil
}

// AccountIPC records message traffic for a process (feeds the IPC
// tracing tool).
func (h *Host) AccountIPC(pid proc.PID, sent, recv int64, detail string) {
	p, err := h.get(pid)
	if err != nil {
		return
	}
	p.Rusage.MsgsSent += sent
	p.Rusage.MsgsRecv += recv
	h.emit(p, proc.Event{
		Kind: proc.EvIPC, Proc: proc.GPID{Host: h.name, PID: pid}, Detail: detail,
	}, TraceIPC)
}

// --- workload (background load generation) ---

// SpawnWorkload creates a CPU-bound background process with the given
// duty cycle (runNum/runDen of the time runnable). These drive the load
// average for the Table 1 experiment.
func (h *Host) SpawnWorkload(name, user string, dutyNum, dutyDen int) (*Process, error) {
	if dutyDen <= 0 || dutyNum < 0 || dutyNum > dutyDen {
		return nil, fmt.Errorf("%w: bad duty cycle %d/%d", ErrPermission, dutyNum, dutyDen)
	}
	p, err := h.Spawn(name, user)
	if err != nil {
		return nil, err
	}
	p.dutyNum = dutyNum
	p.dutyDen = dutyDen
	// Random phase so multiple workloads do not run in lockstep.
	phase := time.Duration(h.sched.Rand().Int63n(int64(workloadPeriod)))
	h.sched.After(phase, func() { h.workloadTick(p.PID) })
	return p, nil
}

// workloadPeriod is the on+off cycle length of a workload process.
const workloadPeriod = 80 * time.Millisecond

func (h *Host) workloadTick(pid proc.PID) {
	p, ok := h.procs[pid]
	if !ok || p.State == proc.Exited || p.State == proc.Dead {
		return
	}
	if p.State == proc.Stopped {
		h.setRunnable(p, false)
		h.sched.After(workloadPeriod, func() { h.workloadTick(pid) })
		return
	}
	on := time.Duration(int64(workloadPeriod) * int64(p.dutyNum) / int64(p.dutyDen))
	off := workloadPeriod - on
	h.setRunnable(p, on > 0)
	if p.running {
		p.Rusage.CPUTime += on
	}
	h.sched.After(on, func() {
		q, ok := h.procs[pid]
		if !ok {
			return
		}
		if off > 0 {
			h.setRunnable(q, false)
		}
		h.sched.After(off, func() { h.workloadTick(pid) })
	})
}

// --- kernel -> LPM event messages ---

// SetEventSink installs the per-user kernel socket: events for that
// user's traced processes are delivered to fn with the load-dependent
// Table 1 latency.
func (h *Host) SetEventSink(user string, fn func(proc.Event)) {
	if fn == nil {
		delete(h.sinks, user)
		return
	}
	h.sinks[user] = fn
}

// emit delivers an event for p if the process is traced, the mask
// includes the event class (class 0 means "never deliver") and a sink
// exists. Delivery pays the modelled kernel-to-LPM message time.
func (h *Host) emit(p *Process, ev proc.Event, class TraceMask) {
	if !p.Traced || class == 0 || p.Mask&class == 0 {
		return
	}
	sink, ok := h.sinks[p.User]
	if !ok {
		return
	}
	ev.At = h.sched.Now().Duration()
	h.observeEvent(ev)
	delay := h.model.KernelMsgDelivery(h.LoadAvg())
	if h.delivery == nil {
		h.delivery = h.rec.Metrics().Histogram("kernel.delivery")
	}
	h.delivery.Observe(delay)
	// Attribute the 112-byte message's delivery window to the operation
	// whose kernel action produced it (the caller wraps that region in
	// Tracer.Exchange).
	if ctx := h.rec.Tracer().Active(); ctx.Valid() {
		h.rec.Tracer().AddSpan(h.name, "kernel.event."+ev.Kind.String(), ctx,
			ev.At, ev.At+delay)
	}
	d := deliveries.Get().(*delivery)
	if d.run == nil {
		d.run = d.deliver
	}
	d.sink, d.ev = sink, ev
	h.sched.After(delay, d.run)
}

// delivery is one kernel event on its way to an LPM; run is deliver.
// It is scheduled on the boot, so a crash drops it undelivered.
type delivery struct {
	sink func(proc.Event)
	ev   proc.Event
	run  func()
}

var deliveries = sync.Pool{New: func() any { return new(delivery) }}

// deliver hands the event to its sink, then frees the record.
//
//ppmlint:hotpath pin=TestEventDeliveryAllocs
func (d *delivery) deliver() {
	d.sink(d.ev)
	*d = delivery{run: d.run}
	deliveries.Put(d)
}

// --- queries ---

// Lookup returns the process table entry.
func (h *Host) Lookup(pid proc.PID) (*Process, error) { return h.get(pid) }

// ProcessesOf returns snapshot records for every table entry belonging
// to user, sorted by pid.
func (h *Host) ProcessesOf(user string) []proc.Info { return h.AppendProcessesOf(nil, user) }

// AppendProcessesOf is ProcessesOf appending to dst.
func (h *Host) AppendProcessesOf(dst []proc.Info, user string) []proc.Info {
	start := len(dst)
	//ppmlint:allow maporder what is appended is sorted below, as dst[start:]
	for _, p := range h.procs {
		if p.User == user {
			dst = append(dst, h.infoOf(p))
		}
	}
	detord.SortBy(dst[start:], func(i proc.Info) proc.PID { return i.ID.PID })
	return dst
}

func (h *Host) infoOf(p *Process) proc.Info {
	return proc.Info{
		ID:        proc.GPID{Host: h.name, PID: p.PID},
		Parent:    p.Parent,
		Name:      p.Name,
		User:      p.User,
		State:     p.State,
		Rusage:    p.Rusage,
		ExitCode:  p.ExitCode,
		StartedAt: p.Started.Duration(),
		ExitedAt:  p.ExitedAt.Duration(),
	}
}

// Info returns the snapshot record of one process.
func (h *Host) Info(pid proc.PID) (proc.Info, error) {
	p, err := h.get(pid)
	if err != nil {
		return proc.Info{}, err
	}
	return h.infoOf(p), nil
}

// Status is the kernel's live-introspection hook: the user's live and
// total process-table entry counts plus the load average as a x100
// fixed-point integer (status reports carry no floats). It allocates
// nothing.
func (h *Host) Status(user string) (live, total int, load100 int64) {
	for _, p := range h.procs {
		if p.User != user {
			continue
		}
		total++
		if p.State == proc.Running || p.State == proc.Stopped {
			live++
		}
	}
	return live, total, int64(h.LoadAvg() * 100)
}

// KillAll terminates every live process of user (the time-to-die
// action: "exit after having terminated all of the user's processes in
// that host").
func (h *Host) KillAll(user string) int {
	n := 0
	// Iterate in pid order: each kill emits events and journal records,
	// so the walk must be deterministic.
	for _, pid := range detord.Keys(h.procs) {
		p := h.procs[pid]
		if p.User == user && (p.State == proc.Running || p.State == proc.Stopped) {
			//ppmlint:allow errdrop the state guard above makes SIGKILL infallible here
			_ = h.Signal(pid, proc.SIGKILL)
			n++
		}
	}
	return n
}

// --- host failure ---

// Crash kills the host: all processes vanish without events, the event
// sinks are gone, and everything the boot scheduled (CPU work, event
// deliveries, workload ticks, its LPMs' timers) is cancelled.
func (h *Host) Crash() {
	if !h.up {
		return
	}
	h.up = false
	h.sched.End()
	h.procs = make(map[proc.PID]*Process)
	h.sinks = make(map[string]func(proc.Event))
	h.runq = 0
	h.laBase = 0
	h.laFrom = h.sched.Now()
	h.busyUntil = 0
	clear(h.cpu.fns)
	h.cpu.fns, h.cpu.head = h.cpu.fns[:0], 0
}

// Restart starts the host's next boot, with an empty process table.
func (h *Host) Restart() {
	if h.up {
		return
	}
	h.up = true
	h.sched = h.sched.NewGroup()
	h.runq = 0
	h.laBase = 0
	h.laFrom = h.sched.Now()
}
