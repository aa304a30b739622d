package journal

import (
	"fmt"
	"strconv"
	"strings"

	"ppm/internal/detord"
	"ppm/internal/proc"
	"ppm/internal/trace"
)

// Violation is one invariant breach found by Audit.
type Violation struct {
	Seq   uint64 // journal sequence number of the offending record
	Check string // which invariant: "genealogy", "circuit", "lifecycle", "flood", "dedup", "status"
	Msg   string
}

func (v Violation) String() string {
	return fmt.Sprintf("[%s] record #%d: %s", v.Check, v.Seq, v.Msg)
}

// maxViolations bounds the report: a systemic breach repeats on every
// record and drowning the first causes in thousands of repeats helps
// nobody.
const maxViolations = 64

// Audit replays the journal's record stream and checks the protocol
// invariants the paper states but aggregate counters cannot verify:
//
//   - genealogy: the process tree reconstructed from kernel records
//     (spawn/fork/setparent/exit) agrees with every snapshot taken
//     during the run — each snapshotted process was created, its parent
//     link matches, and an exited entry has an exit record;
//   - circuit lifecycle: sibling channels go open → authenticated →
//     close, with the Hello authentication happening exactly once per
//     channel (the paper: authentication "need happen only once, at
//     the time the circuit is created"); a channel's opens and closes
//     are its circuit.transition steps to and from Established;
//   - circuit state machine: every circuit.transition record steps the
//     per-(host,peer) machine along a legal edge of the lifecycle
//     (idle → dialing/authenticating → established ⇄ suspect → closed),
//     the declared from-state matches the machine's tracked state, a
//     host pair never holds two Established circuits at once, and —
//     on a complete, quiescent stream — no circuit is left Suspect;
//   - flood dedup: no broadcast is applied twice by the same host, every
//     host a flood reports covering has an apply record, and — when the
//     circuit graph was quiescent for the flood's whole window — every
//     sibling transitively reachable at origin time was reached;
//   - no double execution: an at-most-once operation (stable OpID
//     across retransmits) is executed at most once across the whole
//     installation, and a cached-reply replay refers to an operation
//     that was in fact executed;
//   - status sweep coverage: every status sweep resolves each of its
//     targets exactly once (one status.report record per target host,
//     reachable or not), a report never arrives from a host the sweep
//     did not target, and a host that was crashed for the sweep's whole
//     window is never reported reachable. The coverage check assumes
//     the stream is quiescent: audit after sweeps have completed.
//
// Checks that need records outside the retained ring (creation before
// snapshot, open before close) are skipped when the ring has evicted
// records; the always-sound checks (double auth, double apply) run
// regardless.
// It is one pass over the ring that renders nothing: the step switches
// on the entry's kind and reads details from their slots.
func Audit(j *Journal) []Violation {
	return newAuditor(j.Dropped() == 0, j).pass(j)
}

// AuditReport renders violations one per line ("" when clean).
func AuditReport(vs []Violation) string {
	var b strings.Builder
	for _, v := range vs {
		b.WriteString(v.String())
		b.WriteByte('\n')
	}
	return b.String()
}

type auditProc struct {
	parent proc.GPID // the logical parent, zero for roots
	exited bool
	lpmOf  string // an LPM's: its user
}

// auditChan is one sibling channel: its authentications, the hosts
// whose circuit steps opened and closed it, and its edge in its user's
// circuit graph (the first opener a and its peer b), which carries
// traffic once both ends have opened (live == 2).
type auditChan struct {
	auths          int
	opened, closed map[string]bool
	user, a, b     string
	live           int
}

type auditFlood struct {
	origin  string
	epoch   int
	origind bool            // origin record seen
	applies map[string]int  // host -> apply count
	dups    map[string]bool // host -> dedup hit seen
	reach   []string        // hosts reachable at origin time
}

// auditSweep is one status sweep's coverage state: the target set from
// its request record, per-host report counts, and the targets that were
// already crashed when the sweep started (and stayed down), which must
// never be reported reachable.
type auditSweep struct {
	seq       uint64 // the request record, anchoring coverage violations
	targets   map[string]bool
	reports   map[string]int
	downAtReq map[string]bool
}

// auditCircuit is the replayed state machine of one directed circuit
// (observer host -> peer), advanced by circuit.transition records.
type auditCircuit struct {
	state CircuitState
	seq   uint64 // the record that put it in this state
}

// circuitAny is the post-crash wildcard state (see circuitStep).
const circuitAny = numCircuitStates

// userPair names two hosts of one user, "user/a|b": a circuit machine
// (observer, peer), or an unordered pair with the lower name first.
type userPair struct{ user, a, b string }

func (k userPair) String() string { return k.user + "/" + k.a + "|" + k.b }

// The audit keys records by their slot values, so keying one builds no
// string: a process is a proc.GPID; ops and sweeps are qualified by
// their user, as every per-user LPM numbers its own ("u/vax1#30#7").
type (
	stamp    Detail // a flood: a FloodStamp's origin (moved to the first slot), time and sequence
	sweepKey struct {
		user, origin string
		seq          int32
	}
	opKey struct { // an at-most-once operation: an Op's slots, inc -1 for a whole key
		user, origin string
		inc, seq     int32
	}
)

func stampOf(d *Detail) stamp { return stamp{s: [3]string{d.s[1]}, n: d.n, flag: d.flag} }

func (s stamp) String() string { return string((*Detail)(&s).appendFormat(nil, "%s@%v#%d", "%s")) }

func (k sweepKey) String() string { return k.user + "/" + k.origin + "#" + strconv.Itoa(int(k.seq)) }

func opOf(d *Detail) opKey {
	if d.flag {
		return opKey{d.s[0], d.s[1], -1, 0}
	}
	return opKey{d.s[0], d.s[1], d.n[0], d.n[1]}
}

// opName renders an Op's operation, "u/vax1#30#7".
func opName(d *Detail) string { return string(d.appendFormat(nil, "%s/%s#%d#%d", "%s/%s")) }

// parseGPID reads a snapshot's GPID back from its String form, "-" as
// a root's zero parent.
func parseGPID(s string) (proc.GPID, bool) {
	i := strings.LastIndexByte(s, ',')
	pid, err := strconv.ParseInt(strings.TrimSuffix(s[i+1:], ">"), 10, 32)
	return proc.GPID{Host: strings.TrimPrefix(s[:max(i, 0)], "<"), PID: proc.PID(pid)}, s == "-" || i >= 0 && err == nil
}

type auditor struct {
	complete bool
	procs    map[proc.GPID]*auditProc
	chans    map[string]*auditChan
	circuits map[userPair]*auditCircuit   // machine state per (host, peer)
	estab    map[userPair]map[string]bool // established chan keys per unordered pair
	edges    map[string]*auditChan        // the channels with an open end
	floods   map[stamp]*auditFlood
	execs    map[opKey]string // op -> executing host
	sweeps   map[sweepKey]*auditSweep
	down     map[string]bool   // hosts crashed and not restarted
	lpms     map[userPair]bool // (user, host): its pmd created an LPM this boot, not exited
	epoch    int               // bumped by any event that changes reachability
	out      []Violation

	// The trace audit: the span table's index when both streams are
	// complete (else nil), and its violations, the table's first.
	spans *trace.Index
	links []Violation
}

// newAuditor makes an auditor whose map of executed ops is sized for the
// LPMOpExec records j retains (j may be nil).
func newAuditor(complete bool, j *Journal) *auditor {
	execs := 0
	for i := range j.Len() {
		if j.ring.At(i).kind == LPMOpExec {
			execs++
		}
	}
	return &auditor{
		complete: complete,
		procs:    make(map[proc.GPID]*auditProc),
		chans:    make(map[string]*auditChan),
		circuits: make(map[userPair]*auditCircuit),
		estab:    make(map[userPair]map[string]bool),
		edges:    make(map[string]*auditChan),
		floods:   make(map[stamp]*auditFlood),
		execs:    make(map[opKey]string, execs),
		sweeps:   make(map[sweepKey]*auditSweep),
		down:     make(map[string]bool),
		lpms:     make(map[userPair]bool),
	}
}

// pass feeds the retained entries of j to the step, oldest first, as
// they unpack from the ring, then runs the end-of-stream checks.
func (a *auditor) pass(j *Journal) []Violation {
	var e entry
	for c := (cursor{j: j}); c.next(&e); {
		if len(a.out) >= maxViolations {
			a.out = append(a.out, Violation{Seq: c.seq, Check: "audit",
				Msg: "too many violations; audit truncated"})
			return a.out
		}
		a.crossLink(c.seq, e.trace, e.span)
		a.step(c.seq, &e)
	}
	if a.complete && len(a.out) < maxViolations {
		a.finishSweeps()
		a.finishCircuits()
	}
	return a.out
}

func (a *auditor) fail(seq uint64, check, format string, args ...any) {
	a.out = append(a.out, Violation{Seq: seq, Check: check,
		Msg: fmt.Sprintf(format, args...)})
}

// step reads each audited record's slots in its kind's format's order.
func (a *auditor) step(seq uint64, e *entry) {
	d := &e.d
	switch d.kind {
	case KernelSpawn:
		// PIDs are never reused per host (the counter survives crashes),
		// so a spawn always introduces a new identity.
		p := &auditProc{}
		if d.s[0] == "lpm" {
			p.lpmOf = d.s[1]
		}
		a.procs[proc.GPID{Host: e.host, PID: proc.PID(d.n[0])}] = p
	case KernelFork:
		a.procs[proc.GPID{Host: e.host, PID: proc.PID(d.n[1])}] =
			&auditProc{parent: proc.GPID{Host: e.host, PID: proc.PID(d.n[0])}}
	case KernelSetParent:
		if p, ok := a.procs[proc.GPID{Host: e.host, PID: proc.PID(d.n[0])}]; ok {
			p.parent = proc.GPID{Host: d.s[0], PID: proc.PID(d.n[1])}
		}
	case KernelExit:
		key := proc.GPID{Host: e.host, PID: proc.PID(d.n[0])}
		if p, ok := a.procs[key]; ok {
			p.exited = true
			delete(a.lpms, userPair{p.lpmOf, e.host, ""})
		} else if a.complete {
			a.fail(seq, "genealogy", "exit of %s which was never created", key)
		}
	case DaemonLPMCreated: // the pmd is its host's one name server (Figure 2)
		key := userPair{d.s[0], e.host, ""}
		if a.lpms[key] {
			a.fail(seq, "daemon", "pmd on %s created a second LPM for %s", e.host, key.user)
		}
		a.lpms[key] = true
	case NetHostCrash:
		a.hostDown(e.host)
	case NetHostRestart:
		a.epoch++
		delete(a.down, e.host)
		for _, sw := range a.sweeps {
			delete(sw.downAtReq, e.host)
		}
	case NetPartition, NetHeal, NetCircuitBreak, NetFlapDown, NetFlapUp:
		a.epoch++
	case SnapshotTaken:
		a.checkSnapshot(seq, e)
	case CircuitTransition:
		a.circuitStep(seq, e)
	case LPMSiblingAuth:
		key := d.s[1]
		ch := a.chanState(key)
		ch.auths++
		if ch.auths > 1 {
			a.fail(seq, "circuit", "channel %s authenticated %d times (want exactly once)", key, ch.auths)
		}
	case LPMFloodOrigin:
		a.floodOrigin(seq, e)
	case LPMFloodApply:
		stamp := stampOf(d)
		fl := a.floodState(stamp)
		fl.applies[e.host]++
		if fl.applies[e.host] > 1 {
			a.fail(seq, "flood", "flood %s applied %d times on %s (dedup failed)",
				stamp, fl.applies[e.host], e.host)
		}
		if a.complete && !fl.origind {
			a.fail(seq, "flood", "apply of flood %s with no origin record", stamp)
		}
	case LPMFloodDup:
		a.floodState(stampOf(d)).dups[e.host] = true
	case LPMFloodDone:
		a.floodDone(seq, e)
	case LPMOpExec:
		if prev, ok := a.execs[opOf(d)]; ok {
			a.fail(seq, "dedup", "op %s executed twice (first on %s, again on %s)", opName(d), prev, e.host)
		}
		a.execs[opOf(d)] = e.host
	case LPMOpReplay:
		if _, ok := a.execs[opOf(d)]; !ok && a.complete {
			a.fail(seq, "dedup", "replay of op %s which was never executed", opName(d))
		}
	case StatusRequest:
		a.statusRequest(seq, e)
	case StatusReport:
		a.statusReport(seq, e)
	}
}

func (a *auditor) statusRequest(seq uint64, e *entry) {
	key := sweepKey{e.d.s[0], e.d.s[1], e.d.n[0]}
	if _, ok := a.sweeps[key]; ok {
		a.fail(seq, "status", "sweep %s requested twice", key)
		return
	}
	sw := &auditSweep{
		seq:       seq,
		targets:   make(map[string]bool),
		reports:   make(map[string]int),
		downAtReq: make(map[string]bool),
	}
	if hosts := e.d.s[2]; hosts != "" {
		for _, h := range strings.Split(hosts, ",") {
			sw.targets[h] = true
			if a.down[h] {
				sw.downAtReq[h] = true
			}
		}
	}
	a.sweeps[key] = sw
}

func (a *auditor) statusReport(seq uint64, e *entry) {
	key := sweepKey{e.d.s[0], e.d.s[1], e.d.n[0]}
	sw, ok := a.sweeps[key]
	if !ok {
		if a.complete {
			a.fail(seq, "status", "report for sweep %s with no request record", key)
		}
		return
	}
	host := e.d.s[2]
	if !sw.targets[host] {
		a.fail(seq, "status", "sweep %s collected a report from %s, which it never targeted",
			key, host)
		return
	}
	sw.reports[host]++
	if sw.reports[host] > 1 {
		a.fail(seq, "status", "sweep %s resolved %s %d times (want exactly once)",
			key, host, sw.reports[host])
	}
	// A host that was already crashed when the sweep started, and never
	// restarted since, cannot have produced a report.
	if e.d.flag && sw.downAtReq[host] {
		a.fail(seq, "status", "sweep %s reports crashed host %s reachable", key, host)
	}
}

// finishSweeps runs the end-of-stream coverage check: every sweep with
// a request record must have resolved each target exactly once. Only
// meaningful on a complete, quiescent stream.
func (a *auditor) finishSweeps() {
	keys := make([]sweepKey, 0, len(a.sweeps))
	for key := range a.sweeps {
		keys = append(keys, key)
	}
	detord.SortBy(keys, sweepKey.String)
	for _, key := range keys {
		sw := a.sweeps[key]
		for _, h := range detord.Keys(sw.targets) {
			if sw.reports[h] == 0 {
				a.out = append(a.out, Violation{Seq: sw.seq, Check: "status",
					Msg: fmt.Sprintf("sweep %s never resolved target %s (no report record)",
						key, h)})
			}
		}
	}
}

func (a *auditor) chanState(key string) *auditChan {
	ch, ok := a.chans[key]
	if !ok {
		ch = &auditChan{opened: make(map[string]bool), closed: make(map[string]bool)}
		a.chans[key] = ch
	}
	return ch
}

func (a *auditor) floodState(st stamp) *auditFlood {
	fl, ok := a.floods[st]
	if !ok {
		fl = &auditFlood{applies: make(map[string]int), dups: make(map[string]bool)}
		a.floods[st] = fl
	}
	return fl
}

// legalCircuitSteps is the lifecycle's legal-edge table (DESIGN.md
// §13): the set of states each state may step to, one bit per state.
// The auditor replays journaled transitions against it.
var legalCircuitSteps = [numCircuitStates]uint8{
	CircuitIdle:           1<<CircuitDialing | 1<<CircuitAuthenticating,
	CircuitDialing:        1<<CircuitAuthenticating | 1<<CircuitClosed,
	CircuitAuthenticating: 1<<CircuitEstablished | 1<<CircuitClosed,
	CircuitEstablished:    1<<CircuitSuspect | 1<<CircuitClosed,
	CircuitSuspect:        1<<CircuitEstablished | 1<<CircuitClosed,
	CircuitClosed:         1<<CircuitDialing | 1<<CircuitAuthenticating,
}

// circuitStep replays one circuit.transition record: the edge must be
// in the legal table, the declared from-state must match the machine
// (continuity — only checkable on a complete stream), and stepping a
// pair's circuit to Established while another established channel
// between the same pair is still up is the cross-dial double-circuit
// bug the tie-break exists to prevent. A step from Authenticating to
// Established opens its channel at the host, and one from Established
// or Suspect to Closed closes it (chanOpen, chanClose).
func (a *auditor) circuitStep(seq uint64, e *entry) {
	user, peer, ck := e.d.s[0], e.d.s[1], e.d.s[2]
	from, to := CircuitState(e.d.n[0]>>8), CircuitState(e.d.n[0])
	key := userPair{user, e.host, peer}
	c, ok := a.circuits[key]
	if !ok {
		c = &auditCircuit{state: CircuitIdle}
		a.circuits[key] = c
	}
	// Continuity: the record's declared origin must be where the
	// machine actually is. Two sanctioned exceptions: circuitAny is the
	// post-crash wildcard (the crashed host's LPM may have survived
	// with its old state, or restarted fresh — the first transition
	// after the crash re-synchronizes), and a fresh LPM instance
	// starts from Idle where its predecessor's machine parked in
	// Closed.
	if a.complete && c.state != from && c.state != circuitAny &&
		!(c.state == CircuitClosed && from == CircuitIdle) {
		a.fail(seq, "lifecycle", "circuit %s->%s declares from=%s but machine was in %s",
			e.host, peer, from, c.state)
	}
	if from >= numCircuitStates || to >= numCircuitStates || legalCircuitSteps[from]&(1<<to) == 0 {
		a.fail(seq, "lifecycle", "circuit %s->%s illegal transition %s -> %s",
			e.host, peer, from, to)
	}
	c.state, c.seq = to, seq

	pk := userPair{user, e.host, peer}
	if pk.a > pk.b {
		pk.a, pk.b = pk.b, pk.a
	}
	switch to {
	case CircuitEstablished:
		set := a.estab[pk]
		if set == nil {
			set = make(map[string]bool)
			a.estab[pk] = set
		}
		set[ck] = true
		if len(set) > 1 {
			a.fail(seq, "lifecycle", "pair %s holds %d established circuits at once: %s",
				pk, len(set), strings.Join(detord.Keys(set), ","))
		}
		if from != CircuitSuspect {
			a.chanOpen(seq, e, circuitReasons[e.d.n[1]] == "auth-server")
		}
	case CircuitClosed:
		if ck != "-" {
			delete(a.estab[pk], ck)
		}
		if from == CircuitEstablished || from == CircuitSuspect {
			a.chanClose(seq, e)
		}
	}
}

// finishCircuits runs the end-of-stream liveness check: on a quiescent
// stream every Suspect must have resolved — back to Established by
// traffic, or to Closed by the detector. A machine parked in Suspect
// means a detector that raises suspicion but never acts on it.
func (a *auditor) finishCircuits() {
	var parked []userPair
	for key, c := range a.circuits {
		if c.state == CircuitSuspect {
			parked = append(parked, key)
		}
	}
	detord.SortBy(parked, userPair.String)
	for _, key := range parked {
		a.out = append(a.out, Violation{Seq: a.circuits[key].seq, Check: "lifecycle",
			Msg: fmt.Sprintf("circuit %s left in Suspect: suspicion never resolved", key)})
	}
}

// hostDown removes a crashed host from the circuit graph: its channel
// endpoints die silently (no closing step will arrive from it).
func (a *auditor) hostDown(host string) {
	a.epoch++
	a.down[host] = true
	for key := range a.lpms {
		if key.a == host {
			delete(a.lpms, key)
		}
	}
	for key, c := range a.circuits {
		if key.a == host {
			// Crash leaves the host's machines in an unknown state: its
			// LPM may survive the reboot (old state) or be recreated
			// (idle). The wildcard suspends continuity for exactly one
			// transition per circuit.
			c.state = circuitAny
		}
	}
	for pk := range a.estab {
		if pk.a == host || pk.b == host {
			delete(a.estab, pk)
		}
	}
	for ck, e := range a.edges {
		if e.a == host || e.b == host {
			delete(a.edges, ck)
		}
	}
	for _, ch := range a.chans {
		if ch.opened[host] {
			ch.closed[host] = true // crash closes implicitly
		}
	}
}

// chanOpen opens a channel at a step's host, the authenticated end if server.
func (a *auditor) chanOpen(seq uint64, e *entry, server bool) {
	a.epoch++
	user, peer, key := e.d.s[0], e.d.s[1], e.d.s[2]
	ch := a.chanState(key)
	if ch.opened[e.host] {
		a.fail(seq, "circuit", "channel %s opened twice by %s", key, e.host)
	}
	ch.opened[e.host] = true
	if a.complete && server && ch.auths == 0 {
		a.fail(seq, "circuit", "channel %s opened by %s before authentication", key, e.host)
	}
	if a.edges[key] == nil {
		ch.user, ch.a, ch.b, ch.live = user, e.host, peer, 0
		a.edges[key] = ch
	}
	ch.live++
}

func (a *auditor) chanClose(seq uint64, e *entry) {
	a.epoch++
	key := e.d.s[2]
	ch := a.chanState(key)
	if a.complete && !ch.opened[e.host] {
		a.fail(seq, "circuit", "channel %s closed by %s without an open record", key, e.host)
	}
	if ch.closed[e.host] {
		a.fail(seq, "circuit", "channel %s closed twice by %s", key, e.host)
	}
	ch.closed[e.host] = true
	if a.edges[key] != nil {
		if ch.live--; ch.live <= 0 {
			delete(a.edges, key)
		}
	}
}

func (a *auditor) floodOrigin(seq uint64, e *entry) {
	stamp, user := stampOf(&e.d), e.d.s[0]
	fl := a.floodState(stamp)
	if fl.origind {
		a.fail(seq, "flood", "flood %s originated twice", stamp)
	}
	fl.origind = true
	fl.origin = e.host
	fl.epoch = a.epoch
	fl.reach = a.reachable(user, e.host)
}

// reachable computes the hosts transitively connected to origin over
// fully-established sibling channels of the user, origin included.
func (a *auditor) reachable(user, origin string) []string {
	seen := map[string]bool{origin: true}
	for changed := true; changed; {
		changed = false
		for _, ck := range detord.Keys(a.edges) {
			e := a.edges[ck]
			if e.user == user && e.live == 2 && seen[e.a] != seen[e.b] {
				seen[e.a], seen[e.b] = true, true
				changed = true
			}
		}
	}
	return detord.Keys(seen)
}

func (a *auditor) floodDone(seq uint64, e *entry) {
	stamp := stampOf(&e.d)
	fl, ok := a.floods[stamp]
	if !ok || !fl.origind {
		if a.complete {
			a.fail(seq, "flood", "flood %s completed with no origin record", stamp)
		}
		return
	}
	if a.complete {
		// Every host the flood reports covering must have applied it.
		// Both of the record's lists ride in one slot (FloodDone).
		if hosts, _, _ := strings.Cut(e.d.s[2], " partial="); hosts != "" {
			for _, h := range strings.Split(hosts, ",") {
				if fl.applies[h] == 0 {
					a.fail(seq, "flood", "flood %s reports host %s but no apply record", stamp, h)
				}
			}
		}
		// When nothing disturbed the circuit graph during the flood's
		// window, every sibling reachable at origin time must have been
		// reached (applied or recognized the duplicate).
		if fl.epoch == a.epoch {
			for _, h := range fl.reach {
				if fl.applies[h] == 0 && !fl.dups[h] {
					a.fail(seq, "flood", "flood %s never reached live sibling %s", stamp, h)
				}
			}
		}
	}
}

// checkSnapshot verifies one snapshot record against the genealogy
// reconstructed from the kernel records so far. Entries are encoded as
// "gpid|parent|state" joined by ";" ("-" for root parents; GPIDs
// contain commas, so the list separators avoid them).
func (a *auditor) checkSnapshot(seq uint64, e *entry) {
	if !a.complete {
		return // creation records may have been evicted
	}
	procs := e.d.s[1]
	if procs == "" {
		return
	}
	for _, ent := range strings.Split(procs, ";") {
		id, rest, ok := strings.Cut(ent, "|")
		if !ok {
			continue
		}
		parent, state, _ := strings.Cut(rest, "|")
		key, ok := parseGPID(id)
		p, known := a.procs[key]
		if !ok || !known {
			a.fail(seq, "genealogy", "snapshot lists %s which was never created", id)
			continue
		}
		if pp, ok := parseGPID(parent); !ok || p.parent != pp {
			journal := "-"
			if !p.parent.IsZero() {
				journal = p.parent.String()
			}
			a.fail(seq, "genealogy", "snapshot parent of %s is %s, journal says %s", id, parent, journal)
		}
		if state == "exited" && !p.exited {
			a.fail(seq, "genealogy", "snapshot reports %s exited but journal has no exit record", id)
		}
	}
}
