package ppm

import (
	"errors"
	"fmt"
	"time"

	"ppm/internal/auth"
	"ppm/internal/calib"
	"ppm/internal/daemon"
	"ppm/internal/detord"
	"ppm/internal/journal"
	"ppm/internal/kernel"
	"ppm/internal/lpm"
	"ppm/internal/metrics"
	"ppm/internal/proc"
	"ppm/internal/profile"
	"ppm/internal/recovery"
	"ppm/internal/sim"
	"ppm/internal/simnet"
	"ppm/internal/status"
	"ppm/internal/trace"
	"ppm/internal/wire"
)

// Facade errors.
var (
	ErrUnknownHost = errors.New("ppm: unknown host")
	ErrUnknownUser = errors.New("ppm: unknown user")
	ErrAttach      = errors.New("ppm: attach failed")
	ErrStalled     = errors.New("ppm: operation stalled (scheduler went idle)")
)

// HostType re-exports the 1986 machine models.
type HostType = calib.HostType

// The paper's three machine types.
const (
	VAX780 = calib.VAX780
	VAX750 = calib.VAX750
	SunII  = calib.SunII
)

// RetryPolicy re-exports the sibling-RPC retry knobs
// (lpm.RetryPolicy): set ClusterConfig.LPM.Retry to tune how many
// times a failed sibling request is retransmitted (MaxAttempts) and
// the capped exponential backoff between attempts (BaseBackoff, Cap).
type RetryPolicy = lpm.RetryPolicy

// HostSpec declares one host of the installation.
type HostSpec struct {
	Name string
	// Type selects the CPU model; the zero value is a VAX 11/780.
	Type HostType
}

// ClusterConfig describes a simulated installation.
type ClusterConfig struct {
	// Seed feeds the deterministic random source (default 1).
	Seed int64
	// Hosts of the installation.
	Hosts []HostSpec
	// Segments maps Ethernet segment names to member host names. A
	// host on two segments is a gateway. When empty, all hosts share
	// one segment.
	Segments map[string][]string
	// LPM tunes every LPM created in the cluster (TTL, broadcast dedup
	// window, timeouts). Per-user recovery lists are set with
	// SetRecoveryList, not here.
	LPM lpm.Config
	// StableStorage enables the pmd's stable-storage table (a paper
	// "not implemented" feature, implemented here).
	StableStorage bool
	// CCSNameServer installs an administrative name service that
	// coordinates CCS assignment (the paper's §5 alternative to
	// .recovery files): LPMs register CCS changes with it and consult
	// it when seeking a coordinator.
	CCSNameServer bool
	// MaxSteps bounds each synchronous operation's event budget
	// (default 10 million).
	MaxSteps uint64
	// NoJournal disables the flight recorder entirely: no journal is
	// created and every instrumentation point degrades to a no-op (the
	// overhead-benchmark baseline).
	NoJournal bool
	// JournalCapacity bounds the journal ring (0 = the journal
	// package's default). Soak tests raise it so the retained stream
	// stays complete and all audit checks apply.
	JournalCapacity int
}

// Cluster is a simulated networked installation: hosts, kernels,
// network, daemons and user accounts, all driven by one virtual clock.
type Cluster struct {
	cfg   ClusterConfig
	sched *sim.Scheduler
	net   *simnet.Network
	kerns map[string]*kernel.Host
	dir   *auth.Directory
	trust *auth.Trust
	dmns  map[string]*daemon.Daemons
	lpms  map[string]*lpm.LPM // host + "/" + user
	rlist map[string][]string // user -> .recovery host list
	ns    *nameServer
	port  uint16
	reg   *metrics.Registry
	tr    *trace.Tracer
	jr    *journal.Journal
}

// nameServer is the administrative CCS registry of the paper's §5
// alternative ("the existence of name servers in the network could be
// used to aid in crash recovery"). It is modelled as an always
// available administrative service.
type nameServer struct {
	ccs map[string]string
}

// LocateCCS reports the registered CCS for a user.
func (n *nameServer) LocateCCS(user string, cb func(string, bool)) {
	h, ok := n.ccs[user]
	cb(h, ok)
}

// RegisterCCS records a CCS change.
func (n *nameServer) RegisterCCS(user, host string) {
	n.ccs[user] = host
}

// NewCluster builds the installation: hosts booted, daemons running,
// mutual trust established among all hosts.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if len(cfg.Hosts) == 0 {
		return nil, errors.New("ppm: cluster needs at least one host")
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = 10_000_000
	}
	c := &Cluster{
		cfg:   cfg,
		sched: sim.NewScheduler(cfg.Seed),
		dir:   auth.NewDirectory(),
		trust: auth.NewTrust(),
		kerns: make(map[string]*kernel.Host),
		dmns:  make(map[string]*daemon.Daemons),
		lpms:  make(map[string]*lpm.LPM),
		rlist: make(map[string][]string),
		port:  2000,
	}
	c.net = simnet.New(c.sched, simnet.Options{})
	// One registry, one causal tracer and one flight recorder per
	// cluster, all on this cluster's virtual clock: identical seeds
	// produce identical snapshots and byte-identical journals (append
	// order is scheduler order). The tracer starts disabled: untraced
	// operations record nothing and carry no trace context on the wire.
	now := func() time.Duration { return c.sched.Now().Duration() }
	c.reg = metrics.New(now)
	c.tr = trace.New(now)
	if !cfg.NoJournal {
		c.jr = journal.New(now)
		if cfg.JournalCapacity > 0 {
			c.jr.SetCapacity(cfg.JournalCapacity)
		}
	}
	// Every layer states its facts to the one recorder holding the three.
	rec := journal.NewRecorder(c.reg, c.tr, c.jr)
	c.net.SetRecorder(rec)
	if cfg.CCSNameServer {
		c.ns = &nameServer{ccs: make(map[string]string)}
	}
	var names []string
	for _, hs := range cfg.Hosts {
		if err := c.net.AddHost(hs.Name); err != nil {
			return nil, err
		}
		k := kernel.NewHost(c.sched, hs.Name, calib.Model(hs.Type))
		k.SetRecorder(rec)
		c.kerns[hs.Name] = k
		names = append(names, hs.Name)
	}
	if len(cfg.Segments) == 0 {
		if err := c.net.AddSegment("lan", names...); err != nil {
			return nil, err
		}
	} else {
		for seg, members := range cfg.Segments {
			if err := c.net.AddSegment(seg, members...); err != nil {
				return nil, err
			}
		}
	}
	c.trust.AllowAll(names...)
	for _, h := range names {
		if err := c.startDaemons(h); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// startDaemons starts inetd+pmd on a host with the LPM factory wired in.
func (c *Cluster) startDaemons(host string) error {
	factory := func(user string) (simnet.Addr, error) {
		u, err := c.dir.Lookup(user)
		if err != nil {
			return simnet.Addr{}, err
		}
		c.port++
		sites := recovery.Sites{List: append([]string(nil), c.rlist[user]...)}
		if c.ns != nil {
			sites.Locator = c.ns
		}
		l, err := lpm.New(c.kerns[host], c.net, c.dir, c.dmns[host], u, c.port, c.cfg.LPM, sites)
		if err != nil {
			return simnet.Addr{}, err
		}
		c.lpms[host+"/"+user] = l
		// Default CCS assignment: the name server's registration if one
		// exists, else the top of the user's recovery list, else the
		// host where the mechanism was first invoked.
		if l.Recovery().CCS() == "" {
			ccs := host
			if list := c.rlist[user]; len(list) > 0 {
				ccs = list[0]
			}
			if c.ns != nil && c.ns.ccs[user] != "" {
				ccs = c.ns.ccs[user]
			}
			l.Recovery().SetCCS(ccs)
		}
		return l.Accept(), nil
	}
	d, err := daemon.Start(c.kerns[host], c.net, c.dir, c.trust, factory,
		daemon.Options{StableStorage: c.cfg.StableStorage})
	if err != nil {
		return err
	}
	c.dmns[host] = d
	return nil
}

// AddUser registers an account, trusted for remote access from every
// host (consistent password files plus .rhosts entries, as the paper
// assumes of a cooperative administrative domain).
func (c *Cluster) AddUser(name string) {
	c.dir.AddUser(name)
	for h := range c.kerns {
		//ppmlint:allow errdrop AllowRHost only fails for unknown accounts; the user was added just above
		_ = c.dir.AllowRHost(name, h)
	}
}

// SetRecoveryList installs the user's .recovery file: hosts in
// decreasing priority order on which their CCS should reside. It must
// be set before the user's LPMs are created.
func (c *Cluster) SetRecoveryList(user string, hosts ...string) {
	c.rlist[user] = append([]string(nil), hosts...)
}

// --- clock control ---

// Now returns the current virtual time.
func (c *Cluster) Now() sim.Time { return c.sched.Now() }

// Hosts returns the installation's host names, sorted.
func (c *Cluster) Hosts() []string { return detord.Keys(c.kerns) }

// Advance runs the simulation for a stretch of virtual time.
func (c *Cluster) Advance(d time.Duration) error { return c.sched.RunFor(d) }

// Scheduler exposes the discrete-event scheduler.
func (c *Cluster) Scheduler() *sim.Scheduler { return c.sched }

// Network exposes the simulated internetwork.
func (c *Cluster) Network() *simnet.Network { return c.net }

// Metrics exposes the installation-wide metrics registry: every layer
// (simnet, wire, kernel, daemon, lpm) feeds it as the simulation runs.
func (c *Cluster) Metrics() *metrics.Registry { return c.reg }

// MetricsSnapshot copies all metrics at the current virtual time,
// grouped by family and deterministically ordered.
func (c *Cluster) MetricsSnapshot() metrics.Snapshot { return c.reg.Snapshot() }

// MetricsReport renders the metrics as the operator-facing text block
// (the `ppmtrace --metrics` section).
func (c *Cluster) MetricsReport() string { return c.reg.Report() }

// JournalFilter selects journal records for JournalReport: by kind
// (exact; journal.ParseKinds resolves a family prefix such as "net" to
// its kinds), host, and virtual-time window.
type JournalFilter = journal.Filter

// JournalKind names one category of journal record.
type JournalKind = journal.Kind

// Journal exposes the cluster's flight recorder: the bounded,
// deterministic stream of structured events every layer appends as the
// simulation runs. Nil when the cluster was built with NoJournal.
func (c *Cluster) Journal() *journal.Journal { return c.jr }

// JournalReport renders the retained journal records matching f as the
// operator-facing text block (the `ppmtrace --journal` section).
func (c *Cluster) JournalReport(f JournalFilter) string { return c.jr.Report(f) }

// JournalAudit replays the journal and checks the cross-layer protocol
// invariants (genealogy vs. snapshots, circuit lifecycle, flood dedup
// and coverage) plus the trace-consistency invariants (every span
// closed exactly once, children nested within parents, every journal
// cross-link naming a recorded span); it returns nil when the run is
// clean or recording was disabled. It reads the span table in place.
func (c *Cluster) JournalAudit() []journal.Violation {
	return journal.AuditWithSpans(c.jr, c.tr.Index(), c.tr.Dropped() == 0)
}

// HostStatus re-exports one host's live status report (status.Report).
type HostStatus = status.Report

// ClusterStatus re-exports the cluster-wide sweep result (status.Sweep):
// one report per reachable host plus the sorted unreachable-host list.
type ClusterStatus = status.Sweep

// StatusSweep gathers a live status report from the user's LPM on every
// host of the installation, originating at the user's LPM on origin
// (created on demand). The sweep rides the sibling-RPC retry engine;
// under a partition it completes with the reachable subset of hosts and
// an explicit unreachable list.
func (c *Cluster) StatusSweep(user, origin string) (ClusterStatus, error) {
	l, ok := c.ManagerOn(origin, user)
	if !ok {
		s, err := c.Attach(user, origin)
		if err != nil {
			return ClusterStatus{}, err
		}
		l = s.mgr
	}
	return wait(c, func(cb func(ClusterStatus, error)) { l.StatusSweep(c.Hosts(), cb) })
}

// StatusReport renders a cluster-wide sweep as the operator-facing
// dashboard: a virtual-time-stamped header, one sorted row per host
// (process table, load, timers, circuit table, reply-cache and
// retry-backoff occupancy, journal ring occupancy, per-op latency
// percentiles), and the unreachable-host list when the sweep is
// partial. Byte-identical across same-seed runs.
func (c *Cluster) StatusReport(user, origin string) (string, error) {
	sw, err := c.StatusSweep(user, origin)
	if err != nil {
		return "", err
	}
	return sw.Render(), nil
}

// Tracer exposes the cluster-wide causal tracer (normally driven
// through Trace and TraceReport).
func (c *Cluster) Tracer() *trace.Tracer { return c.tr }

// Trace runs op with causal tracing enabled: every PPM operation
// started inside op records a trace tree of virtual-time spans across
// all hosts it touches (kernel events, dispatcher and handler
// occupancy, circuit establishment, per-hop network transit, remote
// handling). It returns the ID of the last trace started, for
// TraceReport. Tracing is disabled again when op returns, so
// surrounding traffic stays unrecorded.
func (c *Cluster) Trace(op func() error) (uint64, error) {
	c.tr.Enable()
	err := op()
	c.tr.Disable()
	return c.tr.LastTrace(), err
}

// Profile analyzes every trace recorded so far — phase attribution
// with the conservation invariant, critical paths, aggregation — and
// returns the analyzed run (see internal/profile). Journal records
// contribute the retry/timeout cross-links; only those are rendered.
// Trace the traffic you care about (Trace, or Tracer().Enable) before
// profiling; an untraced run profiles to zero requests.
func (c *Cluster) Profile() *profile.Profile {
	return profile.Build(c.tr.Index(), c.jr.Select(journal.Filter{Kinds: []journal.Kind{journal.LPMRetry, journal.LPMTimeout}}))
}

// TraceReport renders one assembled trace tree as a virtual-time
// waterfall (milliseconds relative to the root span's start).
func (c *Cluster) TraceReport(traceID uint64) string { return c.tr.Report(traceID) }

// TraceReportAll renders every recorded trace in trace-ID order.
func (c *Cluster) TraceReportAll() string { return c.tr.ReportAll() }

// Kernel returns a host's simulated kernel.
func (c *Cluster) Kernel(host string) (*kernel.Host, error) {
	k, ok := c.kerns[host]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownHost, host)
	}
	return k, nil
}

// wait is the caller's half of every synchronous operation: it starts
// an asynchronous call and drives the clock until the call's callback
// has delivered. A call the scheduler goes idle (or over budget) on
// yields the zero value and ErrStalled (or the scheduler's error). The
// result, the call's error and the done flag are one struct so that the
// delivering closure captures one heap cell, not three.
func wait[T any](c *Cluster, start func(deliver func(T, error))) (T, error) {
	var got struct {
		v    T
		err  error
		done bool
	}
	start(func(v T, err error) { got.v, got.err, got.done = v, err, true })
	ok, err := c.sched.RunUntilDone(func() bool { return got.done }, c.cfg.MaxSteps)
	if err == nil && !ok {
		err = ErrStalled
	}
	if err != nil {
		var zero T
		return zero, err
	}
	return got.v, got.err
}

// waitErr is wait for the calls that deliver an error alone.
func waitErr(c *Cluster, start func(deliver func(error))) error {
	_, err := wait(c, func(deliver func(struct{}, error)) {
		start(func(err error) { deliver(struct{}{}, err) })
	})
	return err
}

// --- failure injection ---

// Crash takes a host down: kernel, daemons, LPMs, processes, network
// presence and all the work the kernel's boot scheduled vanish.
func (c *Cluster) Crash(host string) error {
	k, err := c.Kernel(host)
	if err != nil {
		return err
	}
	if err := c.net.Crash(host); err != nil {
		return err
	}
	k.Crash()
	delete(c.dmns, host)
	for key := range c.lpms {
		if len(key) > len(host) && key[:len(host)] == host && key[len(host)] == '/' {
			delete(c.lpms, key)
		}
	}
	return nil
}

// Restart brings a crashed host back up: fresh kernel state, daemons restarted.
func (c *Cluster) Restart(host string) error {
	k, err := c.Kernel(host)
	if err != nil {
		return err
	}
	if err := c.net.Restart(host); err != nil {
		return err
	}
	k.Restart()
	return c.startDaemons(host)
}

// Partition splits the network into isolated groups; hosts not named
// stay in the default group.
func (c *Cluster) Partition(groups ...[]string) error {
	return c.net.Partition(groups...)
}

// Heal removes all partitions.
func (c *Cluster) Heal() { c.net.Heal() }

// InjectLoss arranges for every Nth inter-host message to be lost
// (deterministically): datagrams vanish silently, circuit messages
// sever their circuit. The reliability layer's retry/redial machinery
// is exercised without any partition or crash. every <= 0 disables
// injection.
func (c *Cluster) InjectLoss(every int) { c.net.InjectLoss(every) }

// InjectLossDir arranges for every Nth message from -> to (that
// direction only) to be lost, on top of any symmetric plan — the
// half-broken-gateway case where requests arrive but replies vanish.
// every <= 0 clears the direction.
func (c *Cluster) InjectLossDir(from, to string, every int) {
	c.net.InjectLossDir(from, to, every)
}

// FlapLink schedules a deterministic flap of the a<->b link: after
// upFor of healthy operation the pair blacks out for downFor, then
// recovers, repeating for cycles rounds. Each boundary is journaled
// (net.flap.down / net.flap.up).
func (c *Cluster) FlapLink(a, b string, upFor, downFor time.Duration, cycles int) {
	c.net.FlapLink(a, b, upFor, downFor, cycles)
}

// --- load generation ---

// SpawnBackgroundLoad creates n CPU-bound background processes with the
// given duty cycle on a host, to drive its load average (the Table 1
// experiment's knob).
func (c *Cluster) SpawnBackgroundLoad(host, user string, n, dutyNum, dutyDen int) error {
	k, err := c.Kernel(host)
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if _, err := k.SpawnWorkload("hog", user, dutyNum, dutyDen); err != nil {
			return err
		}
	}
	return nil
}

// LoadAvg returns a host's current load average.
func (c *Cluster) LoadAvg(host string) (float64, error) {
	k, err := c.Kernel(host)
	if err != nil {
		return 0, err
	}
	return k.LoadAvg(), nil
}

// ManagerOn returns the user's LPM on a host if one currently exists
// (it does not create one).
func (c *Cluster) ManagerOn(host, user string) (*lpm.LPM, bool) {
	l, ok := c.lpms[host+"/"+user]
	if !ok || l.Exited() {
		return nil, false
	}
	return l, true
}

// Attach obtains a Session for the user on a home host, creating the
// LPM on demand through the Figure 2 inetd/pmd exchange. Re-attaching
// finds an existing LPM: the PPM outlives login sessions.
func (c *Cluster) Attach(user, host string) (*Session, error) {
	u, err := c.dir.Lookup(user)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrUnknownUser, err)
	}
	if _, ok := c.kerns[host]; !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownHost, host)
	}
	resp, err := wait(c, func(cb func(wire.LPMQueryResp, error)) {
		daemon.QueryLPM(c.net, host, host, u, trace.Context{}, func(r wire.LPMQueryResp, err error) {
			if err != nil {
				err = fmt.Errorf("%w: %v", ErrAttach, err)
			}
			cb(r, err)
		})
	})
	if err != nil {
		return nil, err
	}
	if !resp.OK {
		return nil, fmt.Errorf("%w: %s", ErrAttach, resp.Reason)
	}
	l, ok := c.lpms[host+"/"+user]
	if !ok {
		return nil, fmt.Errorf("%w: LPM not registered", ErrAttach)
	}
	return &Session{c: c, user: u, home: host, mgr: l}, nil
}

// Processes lists the user's processes currently in a host's kernel
// table (a direct kernel view, bypassing the PPM; useful in tests and
// examples).
func (c *Cluster) Processes(host, user string) ([]proc.Info, error) {
	k, err := c.Kernel(host)
	if err != nil {
		return nil, err
	}
	return k.ProcessesOf(user), nil
}
