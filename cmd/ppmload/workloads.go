package main

import (
	"errors"
	"fmt"
	"hash"
	"math/rand"
	"strings"
	"time"

	"ppm"
	"ppm/internal/detord"
	"ppm/internal/journal"
)

const user = "u"

// workload is one set of inputs the benchmark runs. The installation
// shape and the schedule of calls are generated here from the seed;
// the program under test only ever sees the generated calls.
type workload struct {
	name string
	why  string
	// unit is what -seconds buys: "ops" on the persistent workloads,
	// "episodes" (each a fresh installation) on the episodic ones.
	unit string
	// perSecond is the frozen sizing: units per second of -seconds,
	// chosen so that the default 10 s budget runs ~10 s of wall time at
	// HEAD on the 2-core reference box. Fixed counts, not a deadline:
	// every count repeats exactly and only wall time carries noise.
	perSecond float64
	// cycle is how many consecutive episodes make one round of the
	// episodic workloads' shapes (1 on the persistent workloads); a run
	// is a whole number of cycles.
	cycle int
	// opsPerUnit bounds the ops one unit issues (sizes the recorder).
	opsPerUnit int
	// setupBuilds is how many back-to-back build-and-warm cycles make
	// one set-up sample, sized so that a sample lasts >= 0.25 s.
	setupBuilds int
	// build constructs and warms the i-th installation of the
	// workload's shape. It is the whole of the set-up phase.
	build func(p *pass, i int) (*installation, error)
	// run drives the timed section: over inst on the persistent
	// workloads, over fresh episodes on the episodic ones.
	run func(p *pass, inst *installation, units int) error
	// epilogue leaves a live installation with the program's tracer
	// filled by a little more of the workload's traffic, for the
	// read-side unit costs (traced run only).
	epilogue func(p *pass, inst *installation) (*ppm.Cluster, error)
}

// installation is one built-and-warmed cluster with the driver's model
// of it.
type installation struct {
	c       *ppm.Cluster
	sess    *ppm.Session
	procs   []ppm.GPID
	dist    []uint8 // control: network distance of procs[i] from the session's home
	stopped []bool  // the driver's model of the last stop/continue applied
	hosts   []string
	origins []*ppm.Session // fanout: the sessions floods are issued from
	rounds  int            // fanout: rounds of the mix issued so far
	seed    int64          // chaos: seeds the fault schedule
	// journalBase is the journal's Dropped() right after the driver
	// last emptied it (observe).
	journalBase int64
}

// pass is one execution of a workload's timed section.
type pass struct {
	seed int64
	rec  *recorder
	tal  *tally
	// live is the installation heap_live_mb is measured against: the
	// persistent one, or the last episode's.
	live *ppm.Cluster
	// digest, when set, folds every journal the pass filled into one
	// number (the same-seed determinism test; rendering every record is
	// too dear for a measured run).
	digest hash.Hash64
	// dirty lists the chaos episodes that ended with audit violations.
	dirty []dirtyEpisode
}

// dirtyEpisode is one chaos episode whose consistency check or audit
// failed: a ready-made repro, named by its cluster seed (odd seeds run
// the linktest).
type dirtyEpisode struct {
	seed       int64
	check      string // why the consistency check failed, or ""
	violations int
	first      string // the first audit violation
}

var workloads = []*workload{
	{
		name: "control", unit: "ops", perSecond: 165_000, cycle: 1, opsPerUnit: 1, setupBuilds: 150,
		why:   "warm point-to-point dispatch on Table 2's 3-host line: lpm dispatch, wire, sim and journal appends do the work",
		build: buildControl, run: runControl, epilogue: epilogueControl,
	},
	{
		name: "fanout", unit: "ops", perSecond: 1400, cycle: 1, opsPerUnit: 1, setupBuilds: 30,
		why:   "broadcasts over 24 hosts joined by a hub, a depth-3 tree and cross edges: flood forwarding, dedup, multi-hop transit, big bodies",
		build: buildFanout, run: runFanout, epilogue: epilogueFanout,
	},
	{
		name: "churn", unit: "episodes", perSecond: 250, cycle: len(churnSizes), opsPerUnit: 68, setupBuilds: 90,
		why:   "cold path: fresh installations of 3/6/12/24 hosts built, populated, snapshotted, killed and aged past TTL",
		build: buildChurn, run: runChurn, epilogue: epilogueChurn,
	},
	{
		name: "chaos", unit: "episodes", perSecond: 105, cycle: 2, opsPerUnit: 260, setupBuilds: 300,
		why:   "fault path: crash/restart/partition/heal rounds with idle virtual time; recovery, retry/redial, detect and sim timers",
		build: buildChaos, run: runChaos, epilogue: epilogueChaos,
	},
	{
		name: "observe", unit: "ops", perSecond: 22_000, cycle: 1, opsPerUnit: 1, setupBuilds: 120,
		why:   "the control mix with the tracer on and every observation read back each 500 ops: the instrumentation tax, both sides",
		build: buildObserve, run: runObserve, epilogue: epilogueControl,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// clusterSeed derives the seed of the run's i-th installation (and of
// the schedule driven over it) from the run's seed.
func clusterSeed(seed int64, i int) int64 {
	return seed*1_000_000 + int64(i) + 1
}

func hostNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("h%02d", i)
	}
	return names
}

func hostSpecs(names []string) []ppm.HostSpec {
	specs := make([]ppm.HostSpec, len(names))
	for i, n := range names {
		specs[i] = ppm.HostSpec{Name: n}
	}
	return specs
}

// sum is the digest's value, 0 when none was asked for.
func (p *pass) sum() uint64 {
	if p.digest == nil {
		return 0
	}
	return p.digest.Sum64()
}

// finish closes the books on an installation the timed section is done
// with: its counters, its journal's evictions, its journal's digest.
func (p *pass) finish(c *ppm.Cluster) {
	p.live = c
	p.tal.add(c, +1)
	p.tal.journalDropped += int64(c.Journal().Dropped())
	p.foldJournal(c)
}

// foldJournal folds c's retained journal into the pass's digest.
func (p *pass) foldJournal(c *ppm.Cluster) {
	if p.digest == nil || c.Journal() == nil {
		return
	}
	for _, r := range c.Journal().Records() {
		p.digest.Write([]byte(r.String()))
	}
}

// checkStates compares each process's kernel state with the driver's
// model of the last stop/continue applied to it.
func checkStates(inst *installation) error {
	for i, id := range inst.procs {
		k, err := inst.c.Kernel(id.Host)
		if err != nil {
			return err
		}
		kp, err := k.Lookup(id.PID)
		if err != nil {
			return fmt.Errorf("%v: %w", id, err)
		}
		want := ppm.Running
		if inst.stopped[i] {
			want = ppm.Stopped
		}
		if kp.State != want {
			return fmt.Errorf("%v: kernel says %v, the driver's model says %v", id, kp.State, want)
		}
	}
	return nil
}

// auditClean runs the journal audit as a recorded read and fails on
// any violation.
func auditClean(p *pass, c *ppm.Cluster) error {
	m := p.rec.begin(c)
	vs := c.JournalAudit()
	p.rec.end(m, c, kAudit, 0, nil)
	if len(vs) != 0 {
		p.tal.auditViolations += int64(len(vs))
		return fmt.Errorf("journal audit: %d violations, first: %v", len(vs), vs[0])
	}
	return nil
}

// ---------------------------------------------------------------------
// control: warm point-to-point dispatch
// ---------------------------------------------------------------------

const controlWarmOps = 240

// buildLine builds Table 2's three-host line a --net1-- gw --net2-- c
// with four resident processes per host and both sibling circuits warm.
func buildLine(p *pass, i int, cfg ppm.ClusterConfig) (*installation, error) {
	cfg.Seed = clusterSeed(p.seed, i)
	cfg.Hosts = []ppm.HostSpec{{Name: "a"}, {Name: "gw"}, {Name: "c"}}
	cfg.Segments = map[string][]string{"net1": {"a", "gw"}, "net2": {"gw", "c"}}
	m := p.rec.begin(nil)
	c, err := ppm.NewCluster(cfg)
	if err != nil {
		return nil, err
	}
	c.AddUser(user)
	p.rec.end(m, c, kBuild, 0, nil)
	inst := &installation{c: c, hosts: []string{"a", "gw", "c"}}
	m = p.rec.begin(c)
	inst.sess, err = c.Attach(user, "a")
	p.rec.end(m, c, kAttach, 0, err)
	if err != nil {
		return nil, err
	}
	for d, h := range inst.hosts {
		for j := 0; j < 4; j++ {
			m = p.rec.begin(c)
			id, err := inst.sess.Run(h, fmt.Sprintf("job%d", j))
			p.rec.end(m, c, kCreate, uint8(d), err)
			if err != nil {
				return nil, err
			}
			inst.procs = append(inst.procs, id)
			inst.dist = append(inst.dist, uint8(d))
		}
	}
	inst.stopped = make([]bool, len(inst.procs))
	m = p.rec.begin(c)
	err = c.Advance(time.Second)
	p.rec.end(m, c, kAdvance, 0, err)
	if err != nil {
		return nil, err
	}
	// Let handler pools, encoder pools and event free lists fill, so
	// the timed section starts in the steady state.
	// #nosec G404 -- deterministic schedule.
	rng := rand.New(rand.NewSource(cfg.Seed))
	if err := controlOps(p, inst, rng, controlWarmOps); err != nil {
		return nil, err
	}
	return inst, nil
}

func buildControl(p *pass, i int) (*installation, error) {
	return buildLine(p, i, ppm.ClusterConfig{})
}

// controlOps issues n ops of the control mix: round-robin
// Stop/Foreground/Stats/Signal(0), each on a seeded-random resident
// process, so two thirds of them cross a warm sibling circuit.
func controlOps(p *pass, inst *installation, rng *rand.Rand, n int) error {
	c, sess := inst.c, inst.sess
	for i := 0; i < n; i++ {
		t := rng.Intn(len(inst.procs))
		id, d := inst.procs[t], inst.dist[t]
		var err error
		m := p.rec.begin(c)
		switch i % 4 {
		case 0:
			err = sess.Stop(id)
			p.rec.end(m, c, kStop, d, err)
			inst.stopped[t] = true
		case 1:
			err = sess.Foreground(id)
			p.rec.end(m, c, kCont, d, err)
			inst.stopped[t] = false
		case 2:
			_, err = sess.Stats(id)
			p.rec.end(m, c, kStats, d, err)
		case 3:
			err = sess.Signal(id, 0)
			p.rec.end(m, c, kSignal, d, err)
		}
		if err != nil {
			return fmt.Errorf("op %d on %v: %w", i, id, err)
		}
	}
	return nil
}

// controlChecks is how many times, evenly spaced, the timed section
// compares the kernels' state with the driver's model.
const controlChecks = 20

func runControl(p *pass, inst *installation, units int) error {
	// #nosec G404 -- deterministic schedule.
	rng := rand.New(rand.NewSource(p.seed))
	p.tal.add(inst.c, -1)
	for s := 0; s < controlChecks; s++ {
		n := units/controlChecks + btoi(s < units%controlChecks)
		if err := controlOps(p, inst, rng, n); err != nil {
			return err
		}
		if err := checkStates(inst); err != nil {
			return err
		}
	}
	if err := auditClean(p, inst.c); err != nil {
		return err
	}
	p.finish(inst.c)
	return nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

const epilogueOps = 2000

// epilogueControl runs a little more of the control mix with the
// program's tracer on, so the installation holds spans to profile.
func epilogueControl(p *pass, inst *installation) (*ppm.Cluster, error) {
	tr := inst.c.Tracer()
	tr.Reset()
	tr.SetMaxSpans(1 << 20)
	tr.Enable()
	// #nosec G404 -- deterministic schedule.
	rng := rand.New(rand.NewSource(p.seed + 1))
	err := controlOps(p, inst, rng, epilogueOps)
	tr.Disable()
	return inst.c, err
}

// ---------------------------------------------------------------------
// observe: the control mix, observation written and read
// ---------------------------------------------------------------------

const (
	// observeEvery is the read-back interval in ops. The issue asked for
	// 20000; at HEAD Tracer.ReportAll is quadratic in the span table
	// (one read takes 16 s there, 9 ms here), so the interval is the one
	// at which writing, the linear readers and ReportAll cost about the
	// same per op and none of them hides the others.
	observeEvery = 500
	// Sized from the measured rates (about 7 journal records and 10
	// spans per op) with room to spare, so nothing drops between two
	// reads.
	observeJournalCap = observeEvery * 12
	observeMaxSpans   = observeEvery * 30
)

func buildObserve(p *pass, i int) (*installation, error) {
	inst, err := buildLine(p, i, ppm.ClusterConfig{JournalCapacity: observeJournalCap})
	if err != nil {
		return nil, err
	}
	inst.c.Tracer().SetMaxSpans(observeMaxSpans)
	return inst, nil
}

// readBack reads every observation the program keeps — profile, audit,
// metrics, journal and trace reports — checks them, and empties the
// tracer and the journal for the next interval.
func readBack(p *pass, inst *installation) error {
	c := inst.c
	m := p.rec.begin(c)
	prof := c.Profile()
	p.rec.end(m, c, kProfile, 0, nil)
	if len(prof.Requests) == 0 {
		return errors.New("read-back: the profile attributed no requests")
	}
	if err := auditClean(p, c); err != nil {
		return err
	}
	m = p.rec.begin(c)
	n := len(c.MetricsReport()) + len(c.JournalReport(ppm.JournalFilter{})) + len(c.TraceReportAll())
	p.rec.end(m, c, kReport, 0, nil)
	if n == 0 {
		return errors.New("read-back: empty reports")
	}
	if d := c.Tracer().Dropped(); d != 0 {
		return fmt.Errorf("read-back: the tracer dropped %d spans between reads", d)
	}
	p.tal.traceSpans += int64(len(c.Tracer().Spans()))
	c.Tracer().Reset()
	// The journal's records name spans the tracer no longer holds, so
	// it is emptied with it; Dropped() counts a reset as evictions, so
	// real evictions are the growth of Dropped() between two resets.
	j := c.Journal()
	p.tal.journalDropped += int64(j.Dropped()) - inst.journalBase
	p.foldJournal(c)
	j.Reset()
	inst.journalBase = int64(j.Dropped())
	return nil
}

func runObserve(p *pass, inst *installation, units int) error {
	// #nosec G404 -- deterministic schedule.
	rng := rand.New(rand.NewSource(p.seed))
	c := inst.c
	p.live = c
	// Start from an empty journal and tracer so the first interval's
	// audit sees exactly what the later ones see.
	c.Journal().Reset()
	inst.journalBase = int64(c.Journal().Dropped())
	p.tal.add(c, -1)
	c.Tracer().Enable()
	for done := 0; done < units; {
		n := observeEvery
		if units-done < n {
			n = units - done
		}
		if err := controlOps(p, inst, rng, n); err != nil {
			return err
		}
		done += n
		if err := checkStates(inst); err != nil {
			return err
		}
		if err := readBack(p, inst); err != nil {
			return err
		}
	}
	c.Tracer().Disable()
	p.tal.add(c, +1)
	return nil
}

// ---------------------------------------------------------------------
// fanout: graph-covering broadcast
// ---------------------------------------------------------------------

const (
	fanoutHosts  = 24
	fanoutChecks = 20 // kernel-state checks in the timed section, evenly spaced
)

// fanoutCrossEdges are the circuits added to the tree, as pairs of
// tree positions (position n's parent is (n-1)/3): each joins an
// interior node to a node of another subtree, closing cycles of
// different lengths. The shape is fixed — host n sits at position n —
// and the seed only decides where the occasional flood starts, so
// that runs with different seeds send nearly the same messages.
var fanoutCrossEdges = [][2]int{{1, 8}, {2, 11}, {3, 13}, {4, 22}, {5, 10}}

// buildFanout builds 24 hosts on four Ethernet segments joined by
// gateways, and a 3-ary genealogy whose every process is created by a
// session attached at its parent's host — so the sibling circuits form
// a tree of depth 3 — plus a handful of cross edges that close cycles.
// The warm-up's first status sweep then gives the root a circuit to
// every host: the graph floods cover is that hub laid over the tree
// and the cross edges, so a flood is answered at depth 1 while the
// tree still forwards it, and dedup fires some 25 times per flood.
func buildFanout(p *pass, i int) (*installation, error) {
	names := hostNames(fanoutHosts)
	cfg := ppm.ClusterConfig{
		Seed:  clusterSeed(p.seed, i),
		Hosts: hostSpecs(names),
		Segments: map[string][]string{
			"net0": names[0:7],   // h06 is the net0/net1 gateway
			"net1": names[6:13],  // h12 is the net1/net2 gateway
			"net2": names[12:19], // h18 is the net2/net3 gateway
			"net3": names[18:24],
		},
	}
	m := p.rec.begin(nil)
	c, err := ppm.NewCluster(cfg)
	if err != nil {
		return nil, err
	}
	c.AddUser(user)
	p.rec.end(m, c, kBuild, 0, nil)

	// #nosec G404 -- deterministic schedule.
	rng := rand.New(rand.NewSource(cfg.Seed))
	inst := &installation{c: c, hosts: names}
	sessions := make([]*ppm.Session, fanoutHosts)
	attach := func(pos int) (*ppm.Session, error) {
		if sessions[pos] != nil {
			return sessions[pos], nil
		}
		m := p.rec.begin(c)
		s, err := c.Attach(user, names[pos])
		p.rec.end(m, c, kAttach, 0, err)
		sessions[pos] = s
		return s, err
	}
	inst.sess, err = attach(0)
	if err != nil {
		return nil, err
	}
	inst.procs = make([]ppm.GPID, fanoutHosts)
	for pos := 0; pos < fanoutHosts; pos++ {
		parentPos := (pos - 1) / 3
		s, err := attach(parentPos)
		if err != nil {
			return nil, err
		}
		var parent ppm.GPID
		if pos > 0 {
			parent = inst.procs[parentPos]
		}
		m := p.rec.begin(c)
		id, err := s.RunChild(names[pos], fmt.Sprintf("node%02d", pos), parent)
		p.rec.end(m, c, kCreate, 0, err)
		if err != nil {
			return nil, err
		}
		inst.procs[pos] = id
	}
	// Cross edges: a session at one interior host asks after a process
	// in another subtree, which opens a direct circuit between them.
	for _, e := range fanoutCrossEdges {
		s, err := attach(e[0])
		if err != nil {
			return nil, err
		}
		m := p.rec.begin(c)
		_, err = s.Stats(inst.procs[e[1]])
		p.rec.end(m, c, kStats, 0, err)
		if err != nil {
			return nil, err
		}
	}
	for _, s := range sessions {
		if s != nil {
			inst.origins = append(inst.origins, s)
		}
	}
	inst.stopped = make([]bool, fanoutHosts)
	m = p.rec.begin(c)
	err = c.Advance(time.Second)
	p.rec.end(m, c, kAdvance, 0, err)
	if err != nil {
		return nil, err
	}
	// Two rounds of the mix warm every route and buffer.
	if err := fanoutOps(p, inst, rng, 8); err != nil {
		return nil, err
	}
	return inst, nil
}

// fanoutOps issues n ops of the broadcast mix, each checked:
// round-robin Snapshot/Status/StopAll/ContinueAll. The status sweep
// always starts at the root session — a sweep asks every host directly,
// so its origin ends up with a circuit to each of them, and one such
// hub is enough. The floods start there too, except in one round of
// sixteen, which starts at a seeded-random one of the attached sessions
// (the root or an interior host): floods from elsewhere take a third
// longer, so a run made only of them would read very differently from
// seed to seed, and a run without them would read exactly the same.
func fanoutOps(p *pass, inst *installation, rng *rand.Rand, n int) error {
	c := inst.c
	sess := inst.sess
	for i := 0; i < n; i++ {
		if i%4 == 0 {
			sess = inst.sess
			if inst.rounds%16 == 3 {
				sess = inst.origins[rng.Intn(len(inst.origins))]
			}
			inst.rounds++
		}
		m := p.rec.begin(c)
		switch i % 4 {
		case 0:
			snap, err := sess.Snapshot()
			p.rec.end(m, c, kSnapshot, 0, err)
			if err != nil {
				return fmt.Errorf("snapshot: %w", err)
			}
			if len(snap.Partial) != 0 || len(snap.Hosts()) != fanoutHosts || snap.IsForest() {
				return fmt.Errorf("snapshot covers %d/%d hosts, partial %v, forest %v",
					len(snap.Hosts()), fanoutHosts, snap.Partial, snap.IsForest())
			}
			for _, id := range inst.procs {
				if _, ok := snap.Find(id); !ok {
					return fmt.Errorf("snapshot misses %v", id)
				}
			}
		case 1:
			sw, err := inst.sess.Status()
			p.rec.end(m, c, kStatus, 0, err)
			if err != nil {
				return fmt.Errorf("status: %w", err)
			}
			if len(sw.Reports) != fanoutHosts || len(sw.Unreachable) != 0 {
				return fmt.Errorf("sweep has %d/%d reports, unreachable %v",
					len(sw.Reports), fanoutHosts, sw.Unreachable)
			}
		case 2:
			got, err := sess.StopAll()
			p.rec.end(m, c, kStopAll, 0, err)
			if err != nil || got != len(inst.procs) {
				return fmt.Errorf("stopall affected %d/%d: %v", got, len(inst.procs), err)
			}
			setAll(inst.stopped, true)
		case 3:
			got, err := sess.ContinueAll()
			p.rec.end(m, c, kContAll, 0, err)
			if err != nil || got != len(inst.procs) {
				return fmt.Errorf("continueall affected %d/%d: %v", got, len(inst.procs), err)
			}
			setAll(inst.stopped, false)
		}
	}
	return nil
}

func setAll(b []bool, v bool) {
	for i := range b {
		b[i] = v
	}
}

func runFanout(p *pass, inst *installation, units int) error {
	// #nosec G404 -- deterministic schedule.
	rng := rand.New(rand.NewSource(p.seed))
	p.tal.add(inst.c, -1)
	// Checks fall between whole rounds of the mix.
	rounds, done := units/4, 0
	for s := 0; s < fanoutChecks; s++ {
		n := 4 * (rounds/fanoutChecks + btoi(s < rounds%fanoutChecks))
		if s == fanoutChecks-1 {
			n = units - done
		}
		if err := fanoutOps(p, inst, rng, n); err != nil {
			return err
		}
		done += n
		if err := checkStates(inst); err != nil {
			return err
		}
	}
	if err := auditClean(p, inst.c); err != nil {
		return err
	}
	p.finish(inst.c)
	if p.tal.counter("lpm.flood.dedup_hits") <= 0 {
		return errors.New("no flood dedup hits: the circuit graph has no cycle, the shape is wrong")
	}
	return nil
}

func epilogueFanout(p *pass, inst *installation) (*ppm.Cluster, error) {
	tr := inst.c.Tracer()
	tr.Reset()
	tr.SetMaxSpans(1 << 20)
	tr.Enable()
	// #nosec G404 -- deterministic schedule.
	err := fanoutOps(p, inst, rand.New(rand.NewSource(p.seed+1)), 40)
	tr.Disable()
	return inst.c, err
}

// ---------------------------------------------------------------------
// churn: cold path
// ---------------------------------------------------------------------

var churnSizes = [4]int{3, 6, 12, 24}

const (
	churnTTL = 30 * time.Second
	// A whole 24-host episode is under 20k records; nothing may drop,
	// so the final audit applies every check.
	churnJournalCap = 1 << 16
)

// churnCreate builds the run's i-th churn installation and its 3-level
// process tree: the root on the home host, a first level on the next
// third of the hosts, the rest under seeded-random first-level
// parents. Every first contact with a host is a pmd query, a Hello
// handshake and a new circuit.
func churnCreate(p *pass, i int, traced bool) (*installation, error) {
	n := churnSizes[i%len(churnSizes)]
	names := hostNames(n)
	cfg := ppm.ClusterConfig{
		Seed:            clusterSeed(p.seed, i),
		Hosts:           hostSpecs(names),
		JournalCapacity: churnJournalCap,
		LPM:             ppm.LPMConfig{TTL: churnTTL},
	}
	m := p.rec.begin(nil)
	c, err := ppm.NewCluster(cfg)
	if err != nil {
		return nil, err
	}
	c.AddUser(user)
	p.rec.end(m, c, kBuild, 0, nil)
	if traced {
		c.Tracer().SetMaxSpans(1 << 20)
		c.Tracer().Enable()
	}
	inst := &installation{c: c, hosts: names}
	m = p.rec.begin(c)
	inst.sess, err = c.Attach(user, names[0])
	p.rec.end(m, c, kAttach, 0, err)
	if err != nil {
		return nil, err
	}
	// #nosec G404 -- deterministic schedule.
	rng := rand.New(rand.NewSource(cfg.Seed))
	level1 := 1 + (n-1)/3
	// One process per host (the cold creates), then up to a third as
	// many again on seeded-random hosts (warm creates), so no two
	// episodes of one size are the same computation.
	total := n + rng.Intn(n/3+1)
	for i := 0; i < total; i++ {
		h := i
		if i >= n {
			h = rng.Intn(n)
		}
		var parent ppm.GPID
		switch {
		case i == 0:
		case i <= level1:
			parent = inst.procs[0]
		default:
			parent = inst.procs[1+rng.Intn(level1)]
		}
		m = p.rec.begin(c)
		id, err := inst.sess.RunChild(names[h], fmt.Sprintf("w%02d", i), parent)
		p.rec.end(m, c, kCreate, 0, err)
		if err != nil {
			return nil, fmt.Errorf("create on %s: %w", names[h], err)
		}
		inst.procs = append(inst.procs, id)
	}
	return inst, nil
}

func buildChurn(p *pass, i int) (*installation, error) { return churnCreate(p, i, false) }

// churnFinish is the rest of an episode: one snapshot that must find
// every created process, a kill of each, and two minutes of idle
// virtual time past the 30 s TTL.
func churnFinish(p *pass, inst *installation) error {
	c, sess := inst.c, inst.sess
	m := p.rec.begin(c)
	snap, err := sess.Snapshot()
	p.rec.end(m, c, kSnapshot, 0, err)
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	for _, id := range inst.procs {
		if _, ok := snap.Find(id); !ok {
			return fmt.Errorf("snapshot misses %v", id)
		}
	}
	for _, id := range inst.procs {
		m = p.rec.begin(c)
		err := sess.Kill(id)
		p.rec.end(m, c, kKill, 0, err)
		if err != nil {
			return fmt.Errorf("kill %v: %w", id, err)
		}
		k, err := c.Kernel(id.Host)
		if err != nil {
			return err
		}
		if kp, err := k.Lookup(id.PID); err == nil && (kp.State == ppm.Running || kp.State == ppm.Stopped) {
			return fmt.Errorf("%v killed but the kernel says %v", id, kp.State)
		}
	}
	m = p.rec.begin(c)
	err = c.Advance(2 * time.Minute)
	p.rec.end(m, c, kAdvance, 0, err)
	return err
}

func runChurn(p *pass, _ *installation, units int) error {
	for e := 0; e < units; e++ {
		eid := p.rec.beginEpisode()
		inst, err := churnCreate(p, e, false)
		if err == nil {
			err = churnFinish(p, inst)
		}
		if err == nil {
			err = auditClean(p, inst.c)
		}
		if err != nil {
			return fmt.Errorf("episode %d (cluster seed %d): %w", e, clusterSeed(p.seed, e), err)
		}
		p.rec.endEpisode(eid, inst.c, false)
		p.finish(inst.c)
	}
	return nil
}

func epilogueChurn(p *pass, _ *installation) (*ppm.Cluster, error) {
	inst, err := churnCreate(p, 3, true) // a 24-host episode
	if err == nil {
		err = churnFinish(p, inst)
	}
	if err != nil {
		return nil, err
	}
	inst.c.Tracer().Disable()
	return inst.c, nil
}

// ---------------------------------------------------------------------
// chaos: fault path
// ---------------------------------------------------------------------

const (
	chaosHosts  = 6
	chaosRounds = 120
)

func chaosConfig(seed int64, linktest bool) ppm.ClusterConfig {
	cfg := ppm.ClusterConfig{
		Seed:            seed,
		Hosts:           hostSpecs(hostNames(chaosHosts)),
		JournalCapacity: 1 << 19, // retain the whole episode for the audit
		LPM: ppm.LPMConfig{
			TTL: time.Hour,
			Recovery: ppm.RecoveryConfig{
				TimeToDie:  30 * time.Minute,
				RetryEvery: 20 * time.Second,
				ProbeEvery: 30 * time.Second,
			},
		},
	}
	if linktest {
		cfg.LPM.Linktest = 2 * time.Second
	}
	return cfg
}

// chaosCreate builds a chaos installation: six hosts, recovery list
// h00,h01,h02, the home session attached. The cluster seed also seeds
// the fault schedule; odd seeds' installations also run the failure
// detector's linktest.
func chaosCreate(p *pass, seed int64, traced bool) (*installation, error) {
	cfg := chaosConfig(seed, seed%2 == 1)
	names := hostNames(chaosHosts)
	m := p.rec.begin(nil)
	c, err := ppm.NewCluster(cfg)
	if err != nil {
		return nil, err
	}
	c.AddUser(user)
	c.SetRecoveryList(user, names[0], names[1], names[2])
	p.rec.end(m, c, kBuild, 0, nil)
	if traced {
		c.Tracer().SetMaxSpans(1 << 21)
		c.Tracer().Enable()
	}
	inst := &installation{c: c, hosts: names, seed: cfg.Seed}
	m = p.rec.begin(c)
	inst.sess, err = c.Attach(user, names[0])
	p.rec.end(m, c, kAttach, 0, err)
	return inst, err
}

// buildChaos is the set-up shape: the chaos installation with one
// process on every host, so every sibling circuit is warm. (Episodes
// start from the bare session, as TestSoakChaos does.)
func buildChaos(p *pass, i int) (*installation, error) {
	inst, err := chaosCreate(p, clusterSeed(p.seed, i), false)
	if err != nil {
		return nil, err
	}
	for _, h := range inst.hosts {
		m := p.rec.begin(inst.c)
		_, err := inst.sess.Run(h, "warm")
		p.rec.end(m, inst.c, kCreate, 0, err)
		if err != nil {
			return nil, err
		}
	}
	return inst, nil
}

// chaosRoundsOf is the fault phase, shaped like TestSoakChaos: rounds
// of crash / restart / partition / heal / create / control / snapshot /
// broadcast with 1-20 s of idle virtual time between them. Calls made
// while faults are injected may be refused; that is the schedule's
// doing and is tallied, not judged. A stall, an Advance error or a
// failed fault injection is fatal.
func chaosRoundsOf(p *pass, inst *installation) error {
	c, sess, names := inst.c, inst.sess, inst.hosts
	// #nosec G404 -- deterministic schedule.
	rng := rand.New(rand.NewSource(inst.seed))
	down := map[string]bool{}
	partitioned := false
	randomHost := func() string { return names[rng.Intn(len(names))] }
	upHost := func() string {
		for i := 0; i < 20; i++ {
			if h := randomHost(); !down[h] {
				return h
			}
		}
		return names[0]
	}
	// refusable closes an op issued under faults.
	refusable := func(m mark, k kind, err error) error {
		p.rec.end(m, c, k, 0, err)
		if errors.Is(err, ppm.ErrStalled) {
			return err
		}
		if err != nil {
			p.rec.refused++
		}
		return nil
	}
	fault := func(m mark, err error) error {
		p.rec.end(m, c, kFault, 0, err)
		return err
	}
	for round := 0; round < chaosRounds; round++ {
		switch rng.Intn(10) {
		case 0: // crash a host (never the home, to keep the driver alive)
			h := randomHost()
			if h != names[0] && !down[h] && len(down) < chaosHosts/2 {
				m := p.rec.begin(c)
				if err := fault(m, c.Crash(h)); err != nil {
					return err
				}
				down[h] = true
			}
		case 1: // restart the first crashed host, in name order
			if hs := detord.Keys(down); len(hs) > 0 {
				m := p.rec.begin(c)
				if err := fault(m, c.Restart(hs[0])); err != nil {
					return err
				}
				delete(down, hs[0])
			}
		case 2: // partition or heal
			if partitioned {
				m := p.rec.begin(c)
				c.Heal()
				p.rec.end(m, c, kFault, 0, nil)
				partitioned = false
			} else if len(down) == 0 {
				m := p.rec.begin(c)
				if err := fault(m, c.Partition(names[:chaosHosts/2], names[chaosHosts/2:])); err != nil {
					return err
				}
				partitioned = true
			}
		case 3, 4, 5: // create a process somewhere that is up
			m := p.rec.begin(c)
			id, err := sess.Run(upHost(), fmt.Sprintf("job%d", round))
			if err == nil {
				inst.procs = append(inst.procs, id)
			}
			if err := refusable(m, kCreate, err); err != nil {
				return err
			}
		case 6, 7: // control a random known process
			if len(inst.procs) > 0 {
				id := inst.procs[rng.Intn(len(inst.procs))]
				m := p.rec.begin(c)
				var err error
				switch rng.Intn(3) {
				case 0:
					err = refusable(m, kStop, sess.Stop(id))
				case 1:
					err = refusable(m, kCont, sess.Background(id))
				case 2:
					err = refusable(m, kKill, sess.Kill(id))
				}
				if err != nil {
					return err
				}
			}
		case 8:
			m := p.rec.begin(c)
			_, err := sess.Snapshot()
			if err := refusable(m, kSnapshot, err); err != nil {
				return err
			}
		case 9:
			m := p.rec.begin(c)
			_, err := sess.StopAll()
			if err := refusable(m, kStopAll, err); err != nil {
				return err
			}
			m = p.rec.begin(c)
			_, err = sess.ContinueAll()
			if err := refusable(m, kContAll, err); err != nil {
				return err
			}
		}
		m := p.rec.begin(c)
		err := c.Advance(time.Duration(rng.Intn(20)+1) * time.Second)
		p.rec.end(m, c, kAdvance, 0, err)
		if err != nil {
			return err
		}
	}
	// Heal the world and restart everything, in name order.
	m := p.rec.begin(c)
	c.Heal()
	p.rec.end(m, c, kFault, 0, nil)
	for _, h := range detord.Keys(down) {
		m := p.rec.begin(c)
		if err := fault(m, c.Restart(h)); err != nil {
			return err
		}
	}
	m = p.rec.begin(c)
	err := c.Advance(3 * time.Minute)
	p.rec.end(m, c, kAdvance, 0, err)
	return err
}

// chaosSettled checks the healed world: a fresh session must attach,
// create, and take a snapshot that contains the new process and agrees
// with every kernel. It returns the reason the check failed, or "".
func chaosSettled(p *pass, inst *installation) (string, error) {
	c := inst.c
	stalled := func(err error) error {
		if errors.Is(err, ppm.ErrStalled) {
			return err
		}
		return nil
	}
	m := p.rec.begin(c)
	fresh, err := c.Attach(user, inst.hosts[0])
	p.rec.end(m, c, kAttach, 0, err)
	if err != nil {
		return "fresh attach: " + err.Error(), stalled(err)
	}
	m = p.rec.begin(c)
	id, err := fresh.Run(inst.hosts[1], "post-chaos")
	p.rec.end(m, c, kCreate, 0, err)
	if err != nil {
		return "create after chaos: " + err.Error(), stalled(err)
	}
	m = p.rec.begin(c)
	snap, err := fresh.Snapshot()
	p.rec.end(m, c, kSnapshot, 0, err)
	if err != nil {
		return "snapshot after chaos: " + err.Error(), stalled(err)
	}
	if _, ok := snap.Find(id); !ok {
		return "post-chaos process missing from the snapshot", nil
	}
	for _, pr := range snap.Procs {
		k, err := c.Kernel(pr.ID.Host)
		if err != nil {
			return "", err
		}
		kp, err := k.Lookup(pr.ID.PID)
		if err != nil {
			continue // reaped or lost in a crash; the record is historical
		}
		if kp.State != pr.State {
			return fmt.Sprintf("%v: snapshot says %v, kernel says %v", pr.ID, pr.State, kp.State), nil
		}
	}
	return "", nil
}

// chaosEpisode runs one whole episode and reports whether its
// consistency check or its audit failed.
func chaosEpisode(p *pass, seed int64, traced bool) (*installation, bool, error) {
	inst, err := chaosCreate(p, seed, traced)
	if err != nil {
		return nil, false, err
	}
	if err := chaosRoundsOf(p, inst); err != nil {
		return nil, false, err
	}
	why, err := chaosSettled(p, inst)
	if err != nil {
		return nil, false, err
	}
	c := inst.c
	m := p.rec.begin(c)
	vs := c.JournalAudit()
	p.rec.end(m, c, kAudit, 0, nil)
	p.tal.auditViolations += int64(len(vs))
	if why != "" || len(vs) > 0 {
		d := dirtyEpisode{seed: seed, check: why, violations: len(vs)}
		if len(vs) > 0 {
			d.first, _, _ = strings.Cut(journal.AuditReport(vs[:1]), "\n")
		}
		p.dirty = append(p.dirty, d)
	}
	return inst, why != "" || len(vs) > 0, nil
}

func runChaos(p *pass, _ *installation, units int) error {
	for e := 0; e < units; e++ {
		seed := clusterSeed(p.seed, e)
		if e == units-1 {
			// heap_live_mb is read on the last installation, and what a
			// chaos episode retains varies by tens of percent with its
			// schedule, so every run ends on the same one.
			seed = clusterSeed(0, e)
		}
		eid := p.rec.beginEpisode()
		inst, bad, err := chaosEpisode(p, seed, false)
		if err != nil {
			return fmt.Errorf("episode %d (cluster seed %d): %w", e, seed, err)
		}
		if bad {
			p.rec.episodeChecks++
		}
		p.rec.endEpisode(eid, inst.c, bad)
		p.finish(inst.c)
	}
	return nil
}

func epilogueChaos(p *pass, _ *installation) (*ppm.Cluster, error) {
	inst, _, err := chaosEpisode(p, clusterSeed(p.seed, 0), true) // a linktest episode
	if err != nil {
		return nil, err
	}
	inst.c.Tracer().Disable()
	return inst.c, nil
}
