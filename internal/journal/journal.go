// Package journal implements the installation's flight recorder: one
// deterministic, bounded stream of typed records appended by every
// layer of the PPM at its existing instrumentation points. Where the
// metrics registry answers "how many" and the tracer answers "how long",
// the journal answers "what happened, in what order": kernel process
// events, pmd lookups, sibling-circuit handshakes, flood broadcasts and
// network-level sends all land in a single creation-ordered record
// stream stamped with virtual time, host, and the active trace span.
//
// Because the simulation is single-threaded and virtual-timed, two runs
// with the same seed produce byte-identical journals; the first record
// at which two journals differ (Diff) therefore names the causal event
// of a determinism failure, and replaying the stream (Audit) checks
// protocol invariants the aggregate counters cannot express.
package journal

import (
	"fmt"
	"strings"
	"time"

	"ppm/internal/ring"
)

// Kind identifies the type of a journal record. Kinds are dotted names
// grouped by the layer that appends them.
type Kind string

// The record kinds, one per instrumentation point.
const (
	// simnet: message motion and failure injection.
	NetSend         Kind = "net.send"
	NetDeliver      Kind = "net.deliver"
	NetDrop         Kind = "net.drop"
	NetCircuitOpen  Kind = "net.circuit.open"
	NetCircuitClose Kind = "net.circuit.close"
	NetCircuitBreak Kind = "net.circuit.break"
	NetHostCrash    Kind = "net.host.crash"
	NetHostRestart  Kind = "net.host.restart"
	NetPartition    Kind = "net.partition"
	NetHeal         Kind = "net.heal"

	// simnet link flapping: a deterministic injector taking one
	// endpoint pair down and back up on a schedule. Flap boundaries
	// reshape reachability like partitions do, so the audit treats
	// them as epoch boundaries for flood-coverage purposes.
	NetFlapDown Kind = "net.flap.down"
	NetFlapUp   Kind = "net.flap.up"

	// wire: envelope serialization, tagged with the envelope kind.
	WireEncode Kind = "wire.encode"
	WireDecode Kind = "wire.decode"

	// kernel: process lifecycle and trace-event delivery.
	KernelSpawn     Kind = "kernel.spawn"
	KernelFork      Kind = "kernel.fork"
	KernelExit      Kind = "kernel.exit"
	KernelSetParent Kind = "kernel.setparent"
	KernelEvent     Kind = "kernel.event"

	// daemon: pmd lookups and LPM creation.
	DaemonQuery      Kind = "daemon.query"
	DaemonAuthFail   Kind = "daemon.auth.fail"
	DaemonLPMFound   Kind = "daemon.lpm.found"
	DaemonLPMCreated Kind = "daemon.lpm.created"

	// lpm: adoption, sibling circuits, floods, relays, control ops.
	LPMAdopt         Kind = "lpm.adopt"
	LPMControl       Kind = "lpm.control"
	LPMSiblingAuth   Kind = "lpm.sibling.auth"
	LPMSiblingOpen   Kind = "lpm.sibling.open"
	LPMSiblingClose  Kind = "lpm.sibling.close"
	LPMSiblingReject Kind = "lpm.sibling.reject"
	LPMFloodOrigin   Kind = "lpm.flood.origin"
	LPMFloodApply    Kind = "lpm.flood.apply"
	LPMFloodDup      Kind = "lpm.flood.dup"
	LPMFloodDone     Kind = "lpm.flood.done"
	LPMRelayOrigin   Kind = "lpm.relay.origin"
	LPMRelayForward  Kind = "lpm.relay.forward"

	// lpm reliability: the retry engine and at-most-once dedup.
	// A retry names the operation being retransmitted and the attempt
	// number; a redial records the engine (or recovery) re-establishing
	// a circuit; op.exec marks the first execution of an at-most-once
	// operation and op.replay a cached reply answering a retransmit —
	// the audit holds each op to at most one exec.
	// A timeout records a request whose reply never arrived within the
	// request window — the cross-link that lets the profiler tie an
	// attribution gap (dead air before a retry's backoff span) to the
	// specific expired exchange.
	LPMRetry   Kind = "lpm.request.retry"
	LPMTimeout Kind = "lpm.request.timeout"

	LPMRedial   Kind = "lpm.sibling.redial"
	LPMOpExec   Kind = "lpm.op.exec"
	LPMOpReplay Kind = "lpm.op.replay"

	// circuit lifecycle: every transition of a sibling circuit's
	// explicit state machine (idle → dialing → authenticating →
	// established → suspect → closed), journaled at the host whose
	// machine stepped. The audit replays these against the legal
	// transition table and holds each host pair to at most one
	// Established circuit.
	CircuitTransition Kind = "circuit.transition"

	// lpm exit forwarding: a remote kernel's LPM forwarding a process
	// exit event to the process's home LPM so home-declared watches
	// fire (the remote-watch path).
	LPMExitForward Kind = "lpm.exit.forward"

	// snapshot: a completed distributed snapshot, with its merged
	// process table encoded in the detail (audited against the
	// genealogy reconstructed from the kernel records).
	SnapshotTaken Kind = "snapshot"

	// status: a cluster-wide live-introspection sweep. The request
	// record (at the origin) names the sweep id and its sorted target
	// hosts; one report record follows per target — all appended at the
	// origin, so retransmitted status RPCs (the op is read-only and
	// re-executes freely) never double-journal. The audit holds each
	// sweep to exactly one report per reachable target and ok=false for
	// every unreachable one.
	StatusRequest Kind = "status.request"
	StatusReport  Kind = "status.report"
)

// kinds is the canonical list, in layer order.
var kinds = []Kind{
	NetSend, NetDeliver, NetDrop,
	NetCircuitOpen, NetCircuitClose, NetCircuitBreak,
	NetHostCrash, NetHostRestart, NetPartition, NetHeal,
	NetFlapDown, NetFlapUp,
	WireEncode, WireDecode,
	KernelSpawn, KernelFork, KernelExit, KernelSetParent, KernelEvent,
	DaemonQuery, DaemonAuthFail, DaemonLPMFound, DaemonLPMCreated,
	LPMAdopt, LPMControl,
	LPMSiblingAuth, LPMSiblingOpen, LPMSiblingClose, LPMSiblingReject,
	LPMFloodOrigin, LPMFloodApply, LPMFloodDup, LPMFloodDone,
	LPMRelayOrigin, LPMRelayForward,
	LPMRetry, LPMTimeout, LPMRedial, LPMOpExec, LPMOpReplay,
	CircuitTransition, LPMExitForward,
	SnapshotTaken,
	StatusRequest, StatusReport,
}

// counters pairs a record kind with the metrics counter that counts the
// same fact: each layer's observation function bumps the counter named
// here at the moment it appends the record, so the two can never
// disagree (TestJournalMetricsCrossCheck holds every row to that). A
// "*" stands for the record's first detail token — the transport of a
// net.send, the event kind of a kernel.event. Kinds without a row are
// journaled only; wire.encode's per-type counters derive from the wire
// manifest instead.
var counters = map[Kind]string{
	NetSend:         "simnet.*.sent",
	NetDrop:         "simnet.*.dropped",
	NetCircuitOpen:  "simnet.circuit.opened",
	NetCircuitClose: "simnet.circuit.closed",
	NetCircuitBreak: "simnet.circuit.broken",
	NetHostCrash:    "simnet.host.crashes",
	NetHostRestart:  "simnet.host.restarts",
	NetPartition:    "simnet.partition.events",
	NetHeal:         "simnet.partition.heals",
	NetFlapDown:     "simnet.flap.downs",
	NetFlapUp:       "simnet.flap.ups",

	KernelSpawn: "kernel.spawns",
	KernelFork:  "kernel.forks",
	KernelExit:  "kernel.exits",
	KernelEvent: "kernel.events.*",

	DaemonQuery:      "daemon.queries",
	DaemonAuthFail:   "daemon.auth_failures",
	DaemonLPMFound:   "daemon.lpm.found",
	DaemonLPMCreated: "daemon.lpm.created",

	LPMAdopt:          "lpm.adoptions",
	LPMSiblingOpen:    "lpm.siblings.opened",
	LPMSiblingClose:   "lpm.siblings.closed",
	LPMSiblingReject:  "lpm.siblings.rejected",
	LPMFloodOrigin:    "lpm.flood.originated",
	LPMFloodDup:       "lpm.flood.dedup_hits",
	LPMRelayOrigin:    "lpm.relay.originated",
	LPMRelayForward:   "lpm.relay.forwarded",
	LPMRetry:          "lpm.request.retries",
	LPMTimeout:        "lpm.request.timeouts",
	LPMRedial:         "lpm.request.redials",
	LPMOpReplay:       "lpm.dedup.replays",
	CircuitTransition: "lpm.circuit.transitions",
	LPMExitForward:    "lpm.exit.forwards",
	StatusRequest:     "lpm.status.sweeps",
}

// CounterName returns the name of the metrics counter paired with
// records of kind k whose detail leads with token, or "" when the kind
// has no counter. token only matters for the kinds counted per first
// detail token; passing "*" returns such a kind's pattern itself.
func CounterName(k Kind, token string) string {
	name := counters[k]
	if i := strings.IndexByte(name, '*'); i >= 0 {
		return name[:i] + token + name[i+1:]
	}
	return name
}

// Kinds returns the canonical list of record kinds.
func Kinds() []Kind {
	return append([]Kind(nil), kinds...)
}

// ValidKind reports whether k names a known record kind.
func ValidKind(k Kind) bool {
	for _, known := range kinds {
		if k == known {
			return true
		}
	}
	return false
}

// Record is one flight-recorder entry.
type Record struct {
	Seq    uint64        // creation order, 1-based, never reused
	At     time.Duration // virtual time of the append
	Kind   Kind          // what happened
	Host   string        // where (empty for installation-wide events)
	Trace  uint64        // cross-link to the causal trace tree (0 = none)
	Span   uint64        // the active span at append time (0 = none)
	Detail string        // space-separated key=value fields and tokens
}

// String renders the record as one canonical line. Two journals are
// byte-identical iff their rendered lines are.
func (r Record) String() string {
	s := fmt.Sprintf("#%06d %-12s %-8s %-18s %s",
		r.Seq, "T+"+r.At.String(), hostOrDash(r.Host), string(r.Kind), r.Detail)
	s = strings.TrimRight(s, " ")
	if r.Trace != 0 {
		s += fmt.Sprintf(" [t=%d s=%d]", r.Trace, r.Span)
	}
	return s
}

func hostOrDash(h string) string {
	if h == "" {
		return "-"
	}
	return h
}

// Field extracts the value of a key=value token from a record detail
// string ("" if absent). Details are written by the instrumentation
// sites in a fixed token order, so extraction is deterministic.
func Field(detail, key string) string {
	for _, tok := range strings.Fields(detail) {
		if v, ok := strings.CutPrefix(tok, key+"="); ok {
			return v
		}
	}
	return ""
}

// DefaultCapacity bounds the number of retained records. The ring keeps
// roughly the last ~64k events; the total number ever appended is still
// available through Seq/Dropped so consumers can tell when the window
// slid.
const DefaultCapacity = 1 << 16

// Journal is the bounded record stream. The zero of *Journal (nil) is a
// disabled journal: every method no-ops, so instrumented code never
// branches on whether the flight recorder is wired.
type Journal struct {
	now  func() time.Duration
	span func() (trace, span uint64)
	ring *ring.Buffer[Record]
	seq  uint64 // records ever appended; Seq of the newest record
}

// New creates a journal reading virtual time from now.
func New(now func() time.Duration) *Journal {
	return &Journal{now: now, ring: ring.NewBuffer[Record](DefaultCapacity)}
}

// Enabled reports whether the flight recorder is wired at all. Hot
// paths use it to skip building a record's detail string when the
// append would be a no-op anyway.
func (j *Journal) Enabled() bool { return j != nil }

// SetSpanSource installs the tracer cross-link: fn returns the active
// (trace, span) pair, stamped onto records appended without an explicit
// context so journal entries and trace trees reference each other.
func (j *Journal) SetSpanSource(fn func() (trace, span uint64)) {
	if j == nil {
		return
	}
	j.span = fn
}

// SetCapacity resizes the ring bound (only before the first append; 0
// keeps the current capacity).
func (j *Journal) SetCapacity(n int) {
	if j == nil || n <= 0 || j.seq != 0 {
		return
	}
	j.ring = ring.NewBuffer[Record](n)
}

// Append records an event, stamping virtual time and the currently
// active trace span.
//
//ppmlint:hotpath pin=TestJournalAppendZeroAllocs
func (j *Journal) Append(kind Kind, host, detail string) {
	if j == nil {
		return
	}
	var tr, sp uint64
	if j.span != nil {
		tr, sp = j.span()
	}
	j.push(kind, host, detail, tr, sp)
}

// AppendCtx records an event under an explicit trace context (the
// envelope's own trailer IDs, or a dial/flood context); zero IDs mean
// the event is causally unattributed.
//
//ppmlint:hotpath pin=TestJournalAppendZeroAllocs
func (j *Journal) AppendCtx(kind Kind, host, detail string, trace, span uint64) {
	if j == nil {
		return
	}
	j.push(kind, host, detail, trace, span)
}

//ppmlint:hotpath pin=TestJournalAppendZeroAllocs
func (j *Journal) push(kind Kind, host, detail string, trace, span uint64) {
	j.seq++
	j.ring.Push(Record{
		Seq: j.seq, At: j.now(), Kind: kind, Host: host,
		Trace: trace, Span: span, Detail: detail,
	})
}

// Len returns the number of retained records.
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	return j.ring.Len()
}

// Dropped returns how many records have been evicted from the ring.
func (j *Journal) Dropped() uint64 {
	if j == nil {
		return 0
	}
	return j.seq - uint64(j.ring.Len())
}

// Records returns the retained records, oldest first.
func (j *Journal) Records() []Record {
	if j == nil {
		return nil
	}
	return j.ring.Slice()
}

// Reset discards all retained records (the sequence counter keeps
// counting, so records from before and after a reset never alias).
func (j *Journal) Reset() {
	if j == nil {
		return
	}
	j.ring.Reset()
}

// Filter selects records for Select and Report. Zero-valued fields
// match everything; Until of 0 means no upper bound.
type Filter struct {
	Kinds []Kind        // match any of these kinds (empty = all)
	Host  string        // match this host ("" = all)
	Since time.Duration // records at or after this instant
	Until time.Duration // records at or before this instant (0 = unbounded)
}

func (f Filter) match(r Record) bool {
	if len(f.Kinds) > 0 {
		ok := false
		for _, k := range f.Kinds {
			if r.Kind == k || strings.HasPrefix(string(r.Kind), string(k)+".") {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	if f.Host != "" && r.Host != f.Host {
		return false
	}
	if r.At < f.Since {
		return false
	}
	if f.Until != 0 && r.At > f.Until {
		return false
	}
	return true
}

// Select returns the retained records matching the filter, oldest
// first.
func (j *Journal) Select(f Filter) []Record {
	if j == nil {
		return nil
	}
	var out []Record
	for i := 0; i < j.ring.Len(); i++ {
		if r := j.ring.At(i); f.match(r) {
			out = append(out, r)
		}
	}
	return out
}

// Render returns the canonical full-journal text: one line per retained
// record. Byte-identical across same-seed runs.
func (j *Journal) Render() string {
	var b strings.Builder
	for i := 0; i < j.Len(); i++ {
		b.WriteString(j.ring.At(i).String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Report renders the records matching the filter under a summary
// header.
func (j *Journal) Report(f Filter) string {
	if j == nil {
		return "=== journal === (disabled)\n"
	}
	sel := j.Select(f)
	var b strings.Builder
	fmt.Fprintf(&b, "=== journal === (%d shown / %d retained, %d dropped)\n",
		len(sel), j.Len(), j.Dropped())
	for _, r := range sel {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	return b.String()
}
