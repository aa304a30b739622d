// Package proc defines the process model shared by the kernel, the LPMs
// and the user tools: network-wide process identities (<host, pid> pairs
// as in the paper), process states, signals, resource usage records and
// genealogy snapshots.
package proc

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"ppm/internal/detord"
)

// PID is a per-host process identifier.
type PID int32

// GPID is a network-global process identity: the paper identifies
// processes in the network by <host name, pid>.
type GPID struct {
	Host string `json:"host"`
	PID  PID    `json:"pid"`
}

// String renders the identity as "<host,pid>" exactly like the paper's
// snapshots.
func (g GPID) String() string {
	return "<" + g.Host + "," + strconv.Itoa(int(g.PID)) + ">"
}

// IsZero reports whether the identity is unset.
func (g GPID) IsZero() bool { return g.Host == "" && g.PID == 0 }

// State is the state of a process as tracked by the PPM. The paper's
// snapshot distinguishes running, stopped and dead processes, and marks
// exited processes whose children are still alive.
type State int

// Process states.
const (
	Running State = iota + 1
	Stopped
	Exited // terminated, exit record retained while children are alive
	Dead   // gone: host crashed or record discarded
)

// String returns the snapshot display name of the state.
func (s State) String() string {
	switch s {
	case Running:
		return "running"
	case Stopped:
		return "stopped"
	case Exited:
		return "exited"
	case Dead:
		return "dead"
	default:
		return "unknown"
	}
}

// Signal is a software interrupt. The set mirrors the UNIX signals the
// PPM's built-in control functions use.
type Signal int

// Software interrupts understood by the simulated kernel.
const (
	SIGINT  Signal = 2
	SIGKILL Signal = 9
	SIGTERM Signal = 15
	SIGSTOP Signal = 17
	SIGCONT Signal = 19
	SIGUSR1 Signal = 30
	SIGUSR2 Signal = 31
)

// String returns the conventional signal name.
func (s Signal) String() string {
	switch s {
	case SIGINT:
		return "SIGINT"
	case SIGKILL:
		return "SIGKILL"
	case SIGTERM:
		return "SIGTERM"
	case SIGSTOP:
		return "SIGSTOP"
	case SIGCONT:
		return "SIGCONT"
	case SIGUSR1:
		return "SIGUSR1"
	case SIGUSR2:
		return "SIGUSR2"
	default:
		return "SIG" + strconv.Itoa(int(s))
	}
}

// Rusage is the resource consumption record the LPM preserves for
// exited processes (the paper's second built-in tool reports these).
type Rusage struct {
	CPUTime  time.Duration `json:"cpuTimeNanos"`
	Syscalls int64         `json:"syscalls"`
	MsgsSent int64         `json:"msgsSent"`
	MsgsRecv int64         `json:"msgsRecv"`
	MaxRSSKB int64         `json:"maxRssKb"`
}

// Add accumulates other into r.
func (r *Rusage) Add(other Rusage) {
	r.CPUTime += other.CPUTime
	r.Syscalls += other.Syscalls
	r.MsgsSent += other.MsgsSent
	r.MsgsRecv += other.MsgsRecv
	if other.MaxRSSKB > r.MaxRSSKB {
		r.MaxRSSKB = other.MaxRSSKB
	}
}

// Info is everything a snapshot records about one process.
type Info struct {
	ID       GPID   `json:"id"`
	Parent   GPID   `json:"parent"` // logical parent, may be on another host
	Name     string `json:"name"`
	User     string `json:"user"`
	State    State  `json:"state"`
	Rusage   Rusage `json:"rusage"`
	ExitCode int    `json:"exitCode"`
	// StartedAt/ExitedAt are virtual-time offsets from the simulation
	// epoch, in nanoseconds.
	StartedAt time.Duration `json:"startedAtNanos"`
	ExitedAt  time.Duration `json:"exitedAtNanos"`
}

// EventKind classifies the kernel event messages the LPM receives for
// adopted (traced) processes.
type EventKind int

// Kernel event kinds.
const (
	EvFork EventKind = iota + 1
	EvExec
	EvExit
	EvStop
	EvCont
	EvSignal
	EvSyscall // finest granularity; only recorded when requested
	EvIPC     // message send/receive, for the IPC tracing tool
	EvOpen    // file descriptor opened
	EvClose   // file descriptor closed
)

// String returns the event kind's trace name.
func (k EventKind) String() string {
	switch k {
	case EvFork:
		return "fork"
	case EvExec:
		return "exec"
	case EvExit:
		return "exit"
	case EvStop:
		return "stop"
	case EvCont:
		return "cont"
	case EvSignal:
		return "signal"
	case EvSyscall:
		return "syscall"
	case EvIPC:
		return "ipc"
	case EvOpen:
		return "open"
	case EvClose:
		return "close"
	default:
		return "event#" + strconv.Itoa(int(k))
	}
}

// Event is one kernel-generated process event, as delivered to the LPM
// over its kernel socket and preserved in the history store.
type Event struct {
	At     time.Duration `json:"atNanos"` // virtual time since epoch
	Kind   EventKind     `json:"kind"`
	Proc   GPID          `json:"proc"`
	Child  GPID          `json:"child,omitempty"`  // for fork
	Signal Signal        `json:"signal,omitempty"` // for signal/stop
	Detail string        `json:"detail,omitempty"`
	Rusage Rusage        `json:"rusage,omitempty"` // for exit
}

// Snapshot is the paper's "notion of state of a distributed
// computation": the set of known processes with their genealogy,
// possibly spanning several hosts, possibly a forest.
type Snapshot struct {
	TakenAt time.Duration `json:"takenAtNanos"`
	Procs   []Info        `json:"procs"`
	// Partial lists hosts whose information could not be collected
	// (crashed or unreachable); their subtrees appear as detached
	// roots — the tree has become a forest.
	Partial []string `json:"partial,omitempty"`
}

// sortInfos sorts Infos deterministically by host then pid.
func sortInfos(infos []Info) {
	detord.SortBy2(infos,
		func(i Info) string { return i.ID.Host },
		func(i Info) PID { return i.ID.PID })
}

// Merge combines per-host snapshot fragments into one snapshot.
func Merge(takenAt time.Duration, fragments ...[]Info) Snapshot {
	return Adopt(takenAt, slices.Concat(fragments...))
}

// Adopt is Merge of one fragment the caller gives up: sorted in place, kept.
func Adopt(takenAt time.Duration, infos []Info) Snapshot {
	sortInfos(infos)
	return Snapshot{TakenAt: takenAt, Procs: infos}
}

// Find returns the Info for id, if present.
func (s Snapshot) Find(id GPID) (Info, bool) {
	for _, p := range s.Procs {
		if p.ID == id {
			return p, true
		}
	}
	return Info{}, false
}

// Roots returns the processes whose parent is unknown to the snapshot —
// the roots of the genealogy forest.
func (s Snapshot) Roots() []Info {
	known := make(map[GPID]bool, len(s.Procs))
	for _, p := range s.Procs {
		known[p.ID] = true
	}
	var roots []Info
	for _, p := range s.Procs {
		if p.Parent.IsZero() || !known[p.Parent] {
			roots = append(roots, p)
		}
	}
	sortInfos(roots)
	return roots
}

// Children returns the processes whose logical parent is id.
func (s Snapshot) Children(id GPID) []Info {
	var kids []Info
	for _, p := range s.Procs {
		if p.Parent == id {
			kids = append(kids, p)
		}
	}
	sortInfos(kids)
	return kids
}

// Hosts returns the sorted set of hosts with at least one process in
// the snapshot.
func (s Snapshot) Hosts() []string {
	set := make(map[string]bool)
	for _, p := range s.Procs {
		set[p.ID.Host] = true
	}
	return detord.Keys(set)
}

// IsForest reports whether the snapshot's genealogy has more than one
// root (the paper: "under some failure modes this tree may become a
// forest").
func (s Snapshot) IsForest() bool { return len(s.Roots()) > 1 }

// Subtree returns the snapshot restricted to one computation: the
// processes reachable from root by genealogy. Users "simultaneously
// manage a number of distributed computations"; this carves one out.
func (s Snapshot) Subtree(root GPID) Snapshot {
	keep := make(map[GPID]bool)
	var walk func(id GPID)
	walk = func(id GPID) {
		if keep[id] {
			return
		}
		keep[id] = true
		for _, k := range s.Children(id) {
			walk(k.ID)
		}
	}
	walk(root)
	var procs []Info
	for _, p := range s.Procs {
		if keep[p.ID] {
			procs = append(procs, p)
		}
	}
	sub := Merge(s.TakenAt, procs)
	sub.Partial = append([]string(nil), s.Partial...)
	return sub
}

// Render produces the ASCII genealogy display of the snapshot, the
// paper's Figure 1 style: one tree per root, host boundaries visible in
// every identity (<host,pid>), exited and stopped processes marked.
func (s Snapshot) Render() string {
	var b strings.Builder
	roots := s.Roots()
	for i, r := range roots {
		if i > 0 {
			b.WriteString("\n")
		}
		s.draw(&b, r, "", "")
	}
	if len(s.Partial) > 0 {
		fmt.Fprintf(&b, "\n[partial: no information from %s]\n", strings.Join(s.Partial, ", "))
	}
	return b.String()
}

func (s Snapshot) draw(b *strings.Builder, p Info, selfPrefix, childPrefix string) {
	marker := ""
	switch p.State {
	case Exited:
		marker = " (exited)"
	case Stopped:
		marker = " (stopped)"
	case Dead:
		marker = " (dead)"
	}
	fmt.Fprintf(b, "%s%s %s%s\n", selfPrefix, p.ID, p.Name, marker)
	kids := s.Children(p.ID)
	for i, k := range kids {
		if i == len(kids)-1 {
			s.draw(b, k, childPrefix+"└── ", childPrefix+"    ")
		} else {
			s.draw(b, k, childPrefix+"├── ", childPrefix+"│   ")
		}
	}
}
