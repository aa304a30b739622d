// Package recovery implements the PPM's crash recovery machinery of the
// paper's Section 5: the crash coordinator site (CCS), the per-user
// .recovery priority list of home machines, the time-to-die interval
// that eventually shuts down isolated LPMs, and the low-frequency
// probing that lets partitioned CCSs rejoin when higher-priority hosts
// come back.
//
// The Manager is a pure state machine driven through a small Env
// interface; the LPM implements Env. This keeps the recovery policy
// testable in isolation with a scripted environment.
package recovery

import (
	"time"

	"ppm/internal/sim"
)

// State of the recovery machine.
type State int

// Recovery states.
const (
	// Normal: in contact with a known CCS (or being the CCS).
	Normal State = iota + 1
	// Seeking: lost the CCS, walking the recovery list.
	Seeking
	// Isolated: nobody reachable; time-to-die counting down.
	Isolated
)

// String names the state.
func (s State) String() string {
	switch s {
	case Normal:
		return "normal"
	case Seeking:
		return "seeking"
	case Isolated:
		return "isolated"
	default:
		return "unknown"
	}
}

// Env is what the recovery machine needs from its LPM.
type Env interface {
	// HostName is the local host.
	HostName() string
	// After schedules fn on the shared scheduler.
	After(d time.Duration, fn func()) sim.Timer
	// ProbeHost checks (asynchronously) whether an LPM for the user can
	// be reached — and created on demand — on host.
	ProbeHost(host string, cb func(ok bool))
	// ConnectCCS establishes a sibling circuit to the LPM on host so it
	// can serve as our CCS.
	ConnectCCS(host string, cb func(ok bool))
	// AnnounceCCS tells connected siblings about a CCS change.
	AnnounceCCS(host string)
	// TerminateAll is the time-to-die action: kill all the user's local
	// processes and exit the LPM.
	TerminateAll()
}

// Locator asks a network name server for the user's current CCS — the
// paper's alternative to .recovery files: "the existence of name
// servers in the network could be used to aid in crash recovery. LPMs
// would query the name server for a CCS."
type Locator interface {
	// LocateCCS reports the registered CCS host for the user, or
	// ok=false when none is registered or the name server is
	// unreachable.
	LocateCCS(user string, cb func(host string, ok bool))
	// RegisterCCS records a new CCS with the name server.
	RegisterCCS(user, host string)
}

// Sites is where one user's CCS may reside: what every LPM of that user
// is handed alongside the installation-wide Config.
type Sites struct {
	// List is the .recovery file: hosts in decreasing priority order on
	// which the CCS should reside.
	List []string
	// Locator, when set, is consulted before the list: a name-server
	// driven recovery strategy. CCS changes are registered back.
	Locator Locator
}

// Config tunes the recovery machine.
type Config struct {
	// TimeToDie is how long an isolated LPM waits before terminating
	// the user's local processes and exiting.
	TimeToDie time.Duration
	// ProbeEvery is the low-frequency interval at which a
	// lower-priority CCS probes higher-priority hosts.
	ProbeEvery time.Duration
	// RetryEvery is how often an isolated LPM retries the recovery
	// list.
	RetryEvery time.Duration
}

func (c Config) withDefaults() Config {
	if c.TimeToDie == 0 {
		c.TimeToDie = 5 * time.Minute
	}
	if c.ProbeEvery == 0 {
		c.ProbeEvery = 30 * time.Second
	}
	if c.RetryEvery == 0 {
		c.RetryEvery = 15 * time.Second
	}
	return c
}

// Manager is the per-LPM recovery state machine.
type Manager struct {
	env   Env
	cfg   Config
	user  string // identifies this PPM to the locator
	sites Sites

	state    State
	ccs      string // current CCS host ("" = none known)
	dieTimer sim.Timer
	probeTmr sim.Timer
	retryTmr sim.Timer
	stopped  bool
	seek     walkID // the number of the latest seek (startSeek)
}

// New creates user's recovery manager in the Normal state with no known
// CCS.
func New(env Env, cfg Config, user string, sites Sites) *Manager {
	return &Manager{env: env, cfg: cfg.withDefaults(), user: user, sites: sites, state: Normal}
}

// State returns the current state.
func (m *Manager) State() State { return m.state }

// CCS returns the host currently believed to be the crash coordinator
// site.
func (m *Manager) CCS() string { return m.ccs }

// IsCCS reports whether this LPM is the CCS.
func (m *Manager) IsCCS() bool { return m.ccs == m.env.HostName() }

// Stop halts all recovery activity (LPM exiting normally).
func (m *Manager) Stop() {
	m.stopped = true
	m.cancelTimers()
}

func (m *Manager) cancelTimers() {
	m.dieTimer.Cancel()
	m.probeTmr.Cancel()
	m.retryTmr.Cancel()
}

// SetCCS installs a CCS (initial default assignment, a propagated
// address from a sibling Hello, or a CCSUpdate). It returns to Normal
// operation and cancels any countdown.
func (m *Manager) SetCCS(host string) {
	if m.stopped {
		return
	}
	m.ccs = host
	m.dieTimer.Cancel()
	m.retryTmr.Cancel()
	m.state = Normal
	if m.sites.Locator != nil && m.IsCCS() {
		m.sites.Locator.RegisterCCS(m.user, host)
	}
	// A CCS that is not the top-priority host keeps probing the hosts
	// higher on the list, at low frequency, to rejoin them.
	if m.IsCCS() && !m.topOfList() {
		m.scheduleProbe()
	} else {
		m.probeTmr.Cancel()
	}
}

func (m *Manager) topOfList() bool {
	return len(m.sites.List) == 0 || m.sites.List[0] == m.env.HostName()
}

// OnSiblingLost is called when a sibling circuit breaks. Per the paper,
// the LPM then tries to establish a connection with the known CCS; if
// that fails it walks the recovery list. (Re-knitting the circuit
// itself is the LPM's.)
func (m *Manager) OnSiblingLost(host string) {
	if m.stopped || m.state != Normal {
		return
	}
	if m.IsCCS() {
		// The CCS itself just notes the loss; its time-to-live freezes
		// while siblings remain, handled by the LPM's TTL logic.
		return
	}
	if m.ccs == "" || host == m.ccs {
		m.startSeek()
		return
	}
	// CCS believed alive: confirm the circuit to it. A seek already
	// started by another loss is not started again.
	m.env.ConnectCCS(m.ccs, func(ok bool) {
		if !ok && !m.stopped && m.state == Normal {
			m.startSeek()
		}
	})
}

// OnContact is called when a message arrives from a sibling that is in
// contact with a valid CCS; it rescues an isolated LPM ("a LPM not in
// contact with a CCS resumes the normal mode of operation if ... it
// gets a communication request from a LPM in contact with a valid
// CCS").
func (m *Manager) OnContact(theirCCS string) {
	if m.stopped || theirCCS == "" {
		return
	}
	if m.state != Normal {
		m.SetCCS(theirCCS)
		return
	}
	if m.ccs == "" {
		m.SetCCS(theirCCS)
	}
}

// A walkID names one walk of the .recovery list: a seek, numbered by
// startSeek, looks for a CCS from the top of the list down; the climb is
// a CCS that is not at the top probing the hosts above it to rejoin
// them.
type walkID uint64

const climb walkID = 0

// current reports whether a walk still applies: the machine is running,
// and a seek is the latest one and still seeking, or a climb's LPM is
// still the CCS. It is the one guard of every step of a walk.
func (m *Manager) current(s walkID) bool {
	return !m.stopped && (s == climb && m.IsCCS() || s == m.seek && m.state == Seeking)
}

// startSeek consults the name server (when configured), then walks the
// .recovery list in decreasing priority order. It numbers the seek, so
// one it replaces (rescued by OnContact, then lost again) ends.
func (m *Manager) startSeek() {
	m.state = Seeking
	m.seek++
	seek := m.seek
	if m.sites.Locator == nil {
		m.walk(seek, 0)
		return
	}
	m.sites.Locator.LocateCCS(m.user, func(host string, ok bool) {
		if ok && host != "" && m.current(seek) {
			m.try(seek, -1, host)
		} else {
			m.walk(seek, 0)
		}
	})
}

// walk tries the list from position i, unless the walk is no longer
// current. A seek that runs off the end isolates; a climb stops at this
// host (or the end) and probes again later.
func (m *Manager) walk(s walkID, i int) {
	if !m.current(s) {
		return
	}
	if i >= len(m.sites.List) || s == climb && m.sites.List[i] == m.env.HostName() {
		if s == climb {
			m.scheduleProbe()
		} else {
			m.becomeIsolated()
		}
		return
	}
	m.try(s, i, m.sites.List[i])
}

// try probes candidate, connects to it and takes it as the CCS; on
// either failure, or once the walk is no longer current, it hands on to
// walk from position i+1, which ends a stale walk. A candidate that is
// this host is taken at once: the list says the CCS should reside here.
func (m *Manager) try(s walkID, i int, candidate string) {
	if candidate == m.env.HostName() {
		m.take(candidate)
		return
	}
	m.env.ProbeHost(candidate, func(ok bool) {
		if !ok || !m.current(s) {
			m.walk(s, i+1)
			return
		}
		m.env.ConnectCCS(candidate, func(ok bool) {
			if ok && m.current(s) {
				m.take(candidate)
			} else {
				m.walk(s, i+1)
			}
		})
	})
}

// take makes host the CCS and tells the connected siblings: the one
// place a walk changes the CCS.
func (m *Manager) take(host string) {
	m.SetCCS(host)
	m.env.AnnounceCCS(host)
}

// becomeIsolated starts the time-to-die countdown and periodic
// re-seeking.
func (m *Manager) becomeIsolated() {
	m.state = Isolated
	if m.dieTimer.Fired() {
		m.dieTimer = m.env.After(m.cfg.TimeToDie, func() {
			if m.stopped || m.state != Isolated {
				return
			}
			m.env.TerminateAll()
		})
	}
	m.retryTmr = m.env.After(m.cfg.RetryEvery, func() {
		if m.stopped || m.state != Isolated {
			return
		}
		m.startSeek()
	})
}

// scheduleProbe sets up the low-frequency climb of a CCS that is not
// at the top of the list: "Whenever such host comes up, they connect
// to it", demoting this LPM.
func (m *Manager) scheduleProbe() {
	m.probeTmr.Cancel()
	m.probeTmr = m.env.After(m.cfg.ProbeEvery, func() { m.walk(climb, 0) })
}
