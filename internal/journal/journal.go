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
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"

	"ppm/internal/ring"
)

// Kind identifies the type of a journal record: a dense index into
// kindTable, which is also how a ring entry stores it.
type Kind uint8

// The record kinds, one per instrumentation point. Zero is not a kind,
// so a forgotten one panics at the append instead of journaling as
// net.send.
const (
	// simnet: message motion and failure injection.
	NetSend Kind = iota + 1
	NetDeliver
	NetDrop
	NetCircuitOpen
	NetCircuitClose
	NetCircuitBreak
	NetHostCrash
	NetHostRestart
	NetPartition
	NetHeal

	// simnet link flapping: a deterministic injector taking one
	// endpoint pair down and back up on a schedule. Flap boundaries
	// reshape reachability like partitions do, so the audit treats
	// them as epoch boundaries for flood-coverage purposes.
	NetFlapDown
	NetFlapUp

	// wire: envelope serialization, tagged with the envelope kind.
	WireEncode
	WireDecode

	// kernel: process lifecycle and trace-event delivery.
	KernelSpawn
	KernelFork
	KernelExit
	KernelSetParent
	KernelEvent

	// daemon: pmd lookups and LPM creation.
	DaemonQuery
	DaemonAuthFail
	DaemonLPMFound
	DaemonLPMCreated

	// lpm: adoption, sibling circuits, floods, relays, control ops.
	LPMAdopt
	LPMControl
	LPMSiblingAuth
	LPMSiblingReject
	LPMFloodOrigin
	LPMFloodApply
	LPMFloodDup
	LPMFloodDone
	LPMRelayOrigin
	LPMRelayForward

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
	LPMRetry
	LPMTimeout

	LPMRedial
	LPMOpExec
	LPMOpReplay

	// circuit lifecycle: every transition of a sibling circuit's
	// explicit state machine (idle → dialing → authenticating →
	// established → suspect → closed), journaled at the host whose
	// machine stepped. A step from Authenticating to Established opens
	// a channel and one from Established or Suspect to Closed closes
	// it: the transition is the only record of either. The audit
	// replays these against the legal transition table and holds each
	// host pair to at most one Established circuit.
	CircuitTransition

	// lpm exit forwarding: a remote kernel's LPM forwarding a process
	// exit event to the process's home LPM so home-declared watches
	// fire (the remote-watch path).
	LPMExitForward

	// snapshot: a completed distributed snapshot, with its merged
	// process table encoded in the detail (audited against the
	// genealogy reconstructed from the kernel records).
	SnapshotTaken

	// status: a cluster-wide live-introspection sweep. The request
	// record (at the origin) names the sweep id and its sorted target
	// hosts; one report record follows per target — all appended at the
	// origin, so retransmitted status RPCs (the op is read-only and
	// re-executes freely) never double-journal. The audit holds each
	// sweep to exactly one report per reachable target and ok=false for
	// every unreachable one.
	StatusRequest
	StatusReport

	// numKinds closes the vocabulary and sizes kindTable, so a constant
	// added above without a row is an empty row (TestKindTableTotal).
	numKinds
)

// kindTable is the vocabulary, indexed by kind: the dotted name a record
// renders under (grouped by the layer that appends it), the metrics
// counter that counts the same fact, the format of a detail of fixed
// fields and the alternative format its flag selects, and the string
// slots of the detail that hold text. Such a detail is written in slots,
// never as text, and the audit reads the slots; every kind but the six
// NetMessage kinds and the three with no detail has a format
// (TestEveryKindHasAFormat). Recorder.Record
// bumps that counter at the moment it appends the record, so the two can
// never disagree (TestJournalMetricsCrossCheck). A "*" stands for the
// record's first detail token — the transport of a net.send, the event
// kind of a kernel.event. Kinds without a counter are journaled only;
// wire.encode's per-type counters derive from the wire manifest instead.
//
// A text is a list, a channel key, a process name, a reason or a key
// without slots of its own; every other string is a name: a host, a user,
// a message type or a vocabulary word. The ring keeps a name as an index
// into its table of names and a text out of line, so texts never grow
// that table. A text detail's one slot is text whatever the row; alt(…)
// marks a slot under the alternative format only.
var kindTable = [numKinds]struct {
	name, counter, format, alt string
	text                       uint8
}{
	NetSend:           {"net.send", "simnet.*.sent", "", "", 0},
	NetDeliver:        {"net.deliver", "", "", "", 0},
	NetDrop:           {"net.drop", "simnet.*.dropped", "", "", 0},
	NetCircuitOpen:    {"net.circuit.open", "simnet.circuit.opened", "", "", 0},
	NetCircuitClose:   {"net.circuit.close", "simnet.circuit.closed", "", "", 0},
	NetCircuitBreak:   {"net.circuit.break", "simnet.circuit.broken", "", "", 0},
	NetHostCrash:      {"net.host.crash", "simnet.host.crashes", "", "", 0},
	NetHostRestart:    {"net.host.restart", "simnet.host.restarts", "", "", 0},
	NetPartition:      {"net.partition", "simnet.partition.events", "groups=%s", "", text0},
	NetHeal:           {"net.heal", "simnet.partition.heals", "", "", 0},
	NetFlapDown:       {"net.flap.down", "simnet.flap.downs", "link=%s|%s", "", 0},
	NetFlapUp:         {"net.flap.up", "simnet.flap.ups", "link=%s|%s", "", 0},
	WireEncode:        {"wire.encode", "", "%s %dB", "", 0},
	WireDecode:        {"wire.decode", "", "%s %dB", "", 0},
	KernelSpawn:       {"kernel.spawn", "kernel.spawns", "pid=%d name=%s user=%s", "", text0},
	KernelFork:        {"kernel.fork", "kernel.forks", "parent=%d child=%d name=%s", "", text0},
	KernelExit:        {"kernel.exit", "kernel.exits", "pid=%d code=%d", "pid=%d code=%d sig=%s", 0},
	KernelSetParent:   {"kernel.setparent", "", "pid=%d parent=-", "pid=%d parent=<%s,%d>", 0},
	KernelEvent:       {"kernel.event", "kernel.events.*", "%s proc=<%s,%d>", "", 0},
	DaemonQuery:       {"daemon.query", "daemon.queries", "user=%s from=%s", "", 0},
	DaemonAuthFail:    {"daemon.auth.fail", "daemon.auth_failures", "user=%s from=%s", "", 0},
	DaemonLPMFound:    {"daemon.lpm.found", "daemon.lpm.found", "user=%s", "", 0},
	DaemonLPMCreated:  {"daemon.lpm.created", "daemon.lpm.created", "user=%s", "", 0},
	LPMAdopt:          {"lpm.adopt", "lpm.adoptions", "user=%s pid=%d", "", 0},
	LPMControl:        {"lpm.control", "", "op=%s pid=%d ok=%t", "", 0},
	LPMSiblingAuth:    {"lpm.sibling.auth", "", "user=%s chan=%s from=%s", "", text1},
	LPMSiblingReject:  {"lpm.sibling.reject", "lpm.siblings.rejected", "from=%s reason=%s", "", text1},
	LPMFloodOrigin:    {"lpm.flood.origin", "lpm.flood.originated", "user=%s stamp=%s@%v#%d inner=%s", "user=%s stamp=%s inner=%s", alt(text1)},
	LPMFloodApply:     {"lpm.flood.apply", "", "user=%s stamp=%s@%v#%d", "user=%s stamp=%s", alt(text1)},
	LPMFloodDup:       {"lpm.flood.dup", "lpm.flood.dedup_hits", "user=%s stamp=%s@%v#%d", "user=%s stamp=%s", alt(text1)},
	LPMFloodDone:      {"lpm.flood.done", "", "user=%s stamp=%s@%v#%d hosts=%s", "user=%s stamp=%s hosts=%s", text2 | alt(text1)},
	LPMRelayOrigin:    {"lpm.relay.origin", "lpm.relay.originated", "user=%s dest=%s via=%s", "", 0},
	LPMRelayForward:   {"lpm.relay.forward", "lpm.relay.forwarded", "user=%s dest=%s next=%s", "", 0},
	LPMRetry:          {"lpm.request.retry", "lpm.request.retries", "user=%s op=%s type=%s attempt=%d backoff=%v", "", text1},
	LPMTimeout:        {"lpm.request.timeout", "lpm.request.timeouts", "user=%s peer=%s type=%s op=%d", "user=%s peer=%s type=%s", alt(text2)},
	LPMRedial:         {"lpm.sibling.redial", "lpm.request.redials", "user=%s peer=%s reason=%s", "", 0},
	LPMOpExec:         {"lpm.op.exec", "", "user=%s op=%s#%d#%d type=%s", "user=%s op=%s type=%s", alt(text1)},
	LPMOpReplay:       {"lpm.op.replay", "lpm.dedup.replays", "user=%s op=%s#%d#%d type=%s", "user=%s op=%s type=%s", alt(text1)},
	CircuitTransition: {"circuit.transition", "lpm.circuit.transitions", "user=%s peer=%s chan=%s from=%s to=%s reason=%s", "", text2},
	LPMExitForward:    {"lpm.exit.forward", "lpm.exit.forwards", "user=%s proc=%s/%d to=%s", "", 0},
	SnapshotTaken:     {"snapshot", "", "user=%s procs=%s partial=%s", "", text1 | text2},
	StatusRequest:     {"status.request", "lpm.status.sweeps", "user=%s sweep=%s#%d hosts=%s", "", text2},
	StatusReport:      {"status.report", "", "user=%s sweep=%s#%d host=%s ok=%t", "", 0},
}

const (
	text0 = 1 << iota
	text1
	text2
)

func alt(text uint8) uint8 { return text << 4 }

// CounterName returns the name of the metrics counter paired with
// records of kind k whose detail leads with token, or "" when the kind
// has no counter. token only matters for the kinds counted per first
// detail token; passing "*" returns such a kind's pattern itself.
func CounterName(k Kind, token string) string {
	name := kindTable[k].counter
	if i := strings.IndexByte(name, '*'); i >= 0 {
		return name[:i] + token + name[i+1:]
	}
	return name
}

// Detail is a record's detail as data: a layout and the few values it
// renders, copied in by the constructors below at the instant of the
// append. Nothing is formatted until a reader asks for the record, so
// only values may ride in a Detail; a site whose detail reads mutable
// state (a process table, a host list) renders it at the append, and
// only when the recorder has a journal (Recorder.Journal() != nil).
type Detail struct {
	s      [3]string
	n      [3]int32 // ports, pids, frame sizes and sequences all fit
	layout layout
	flag   bool
	kind   Kind // set by AppendDetail, not by constructors: it rides in the padding
}

// layout selects how appendTo renders a Detail's slots.
type layout uint8

const (
	layoutText layout = iota
	layoutFormat
	layoutNetMessage
	layoutCircuit
)

// transport names a message's transport: the first token of a net.*
// message detail.
func transport(circuit bool) string {
	if circuit {
		return "circuit"
	}
	return "datagram"
}

// appendTo renders d append-style to exactly the text the fmt call it
// replaced produced, so every golden journal reads as it always did; the
// audit reads the slots instead. A detail of fixed fields renders its
// kind's format; two layouts render theirs by hand: a message's optional
// note, a circuit step's vocabulary indices. A switch rather than a
// table of funcs: through an indirect call the entry and the buffer
// would escape to the heap on every render.
func (d *Detail) appendTo(b []byte) []byte {
	switch d.layout {
	case layoutFormat:
		return d.appendFormat(b, kindTable[d.kind].format, kindTable[d.kind].alt)
	case layoutNetMessage:
		// "%s %s:%d->%s:%d %dB" transport, from, to, size; " "+note if any.
		b = append(append(b, transport(d.flag)...), ' ')
		b = strconv.AppendInt(append(append(b, d.s[1]...), ':'), int64(d.n[0]), 10)
		b = strconv.AppendInt(append(append(append(b, "->"...), d.s[2]...), ':'), int64(d.n[1]), 10)
		b = append(strconv.AppendInt(append(b, ' '), int64(d.n[2]), 10), 'B')
		if d.s[0] != "" {
			b = append(append(b, ' '), d.s[0]...)
		}
		return b
	case layoutCircuit:
		// n0 from<<8|to, n1 reason, n2 level: a nonzero level suffixes the reason.
		b = append(append(b, "user="...), d.s[0]...)
		b = append(append(b, " peer="...), d.s[1]...)
		b = append(append(b, " chan="...), d.s[2]...)
		b = append(append(b, " from="...), CircuitState(d.n[0]>>8).String()...)
		b = append(append(b, " to="...), CircuitState(d.n[0]).String()...)
		b = append(append(b, " reason="...), circuitReasons[d.n[1]]...)
		if d.n[2] != 0 {
			b = strconv.AppendInt(append(b, '-'), int64(d.n[2]), 10)
		}
		return b
	default:
		// layoutText: Journal.Append's ready string, verbatim.
		return append(b, d.s[0]...)
	}
}

// appendFormat renders f, a kindTable format, over d's slots: %s takes
// the next string slot, %d the next int32 slot, %v the next two as a
// time.Duration, %t the flag. The flag picks alt instead, if there is one.
func (d *Detail) appendFormat(b []byte, f, alt string) []byte {
	if alt != "" && d.flag {
		f = alt
	}
	si, ni := 0, 0
	for {
		i := strings.IndexByte(f, '%')
		if i < 0 || i+1 == len(f) {
			return append(b, f...)
		}
		b = append(b, f[:i]...)
		switch f[i+1] {
		case 's':
			b = append(b, d.s[si]...)
			si++
		case 'd':
			b = strconv.AppendInt(b, int64(d.n[ni]), 10)
			ni++
		case 'v':
			b = append(b, time.Duration(int64(d.n[ni])<<32|int64(uint32(d.n[ni+1]))).String()...)
			ni += 2
		case 't':
			b = strconv.AppendBool(b, d.flag)
		}
		f = f[i+2:]
	}
}

// text is a detail already rendered, for a kind without a format.
func text(s string) Detail { return Detail{s: [3]string{s}} }

// NetMessage details one message or circuit event between two
// endpoints: "circuit vax1:7->vax2:512 14B", then the drop reason if
// note is not empty.
func NetMessage(circuit bool, fromHost string, fromPort uint16, toHost string, toPort uint16, size int, note string) Detail {
	return Detail{layout: layoutNetMessage, flag: circuit, s: [3]string{note, fromHost, toHost},
		n: [3]int32{int32(fromPort), int32(toPort), int32(size)}}
}

// Flow is one directed host pair's traffic over a stretch of the
// journal: the messages sent from From to To, their bytes, and the
// messages between the two that were dropped.
type Flow struct {
	From, To           string
	Msgs, Bytes, Drops int
}

// Flows reduces the net.send and net.drop records appended after record
// number after to per-host-pair flows, by descending bytes and then by
// pair — §7's view for assessing message routing. It reads the host and
// size slots of each NetMessage detail in the ring and renders no
// record. evicted counts the records of that stretch the ring no longer
// holds (0 when the reduction is whole).
func (j *Journal) Flows(after uint64) (flows []Flow, evicted uint64) {
	if j == nil {
		return nil, 0
	}
	if oldest := j.Dropped(); after < oldest {
		evicted = oldest - after
	}
	index := map[[2]string]int{}
	var e entry
	for c := (cursor{j: j}); c.next(&e); {
		d := &e.d
		if c.seq <= after || d.layout != layoutNetMessage || (d.kind != NetSend && d.kind != NetDrop) {
			continue
		}
		pair := [2]string{d.s[1], d.s[2]}
		k, ok := index[pair]
		if !ok {
			k = len(flows)
			index[pair] = k
			flows = append(flows, Flow{From: d.s[1], To: d.s[2]})
		}
		if d.kind == NetDrop {
			flows[k].Drops++
		} else {
			flows[k].Msgs++
			flows[k].Bytes += int(d.n[2])
		}
	}
	slices.SortFunc(flows, func(a, b Flow) int {
		return cmp.Or(cmp.Compare(b.Bytes, a.Bytes), cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To))
	})
	return flows, evicted
}

// The constructors of the kinds with a format fill the slots in the
// order the kind's format reads them (kindTable). A zero parent is a
// root's ("-"); a sweep is named by its origin and its number there.
func fixed(s0, s1, s2 string, n0, n1 int32, flag bool) Detail {
	return Detail{layout: layoutFormat, s: [3]string{s0, s1, s2}, n: [3]int32{n0, n1}, flag: flag}
}

func WireFrame(msgType string, size int) Detail { return fixed(msgType, "", "", int32(size), 0, false) }
func EventMessage(event, procHost string, pid int32) Detail {
	return fixed(event, procHost, "", pid, 0, false)
}
func Spawn(pid int32, name, user string) Detail     { return fixed(name, user, "", pid, 0, false) }
func Fork(parent, child int32, name string) Detail  { return fixed(name, "", "", parent, child, false) }
func Exit(pid, code int32, sig string) Detail       { return fixed(sig, "", "", pid, code, sig != "") }
func Control(op string, pid int32, ok bool) Detail  { return fixed(op, "", "", pid, 0, ok) }
func SiblingAuth(user, chanKey, from string) Detail { return fixed(user, chanKey, from, 0, 0, false) }
func Snapshot(user, procs, partial string) Detail   { return fixed(user, procs, partial, 0, 0, false) }
func Query(user, from string) Detail                { return fixed(user, from, "", 0, 0, false) }
func UserLPM(user string) Detail                    { return fixed(user, "", "", 0, 0, false) }
func Adopt(user string, pid int32) Detail           { return fixed(user, "", "", pid, 0, false) }
func SiblingReject(from, reason string) Detail      { return fixed(from, reason, "", 0, 0, false) }
func Relay(user, dest, hop string) Detail           { return fixed(user, dest, hop, 0, 0, false) }
func Redial(user, peer, reason string) Detail       { return fixed(user, peer, reason, 0, 0, false) }
func Link(a, b string) Detail                       { return fixed(a, b, "", 0, 0, false) }
func Partition(groups string) Detail                { return fixed(groups, "", "", 0, 0, false) }
func ExitForward(user, host string, pid int32, to string) Detail {
	return fixed(user, host, to, pid, 0, false)
}

func SetParent(pid int32, parentHost string, parentPID int32) Detail {
	return fixed(parentHost, "", "", pid, parentPID, parentHost != "" || parentPID != 0)
}

func SweepRequest(user, origin string, seq int32, hosts string) Detail {
	return fixed(user, origin, hosts, seq, 0, false)
}

func SweepReport(user, origin string, seq int32, host string, ok bool) Detail {
	return fixed(user, origin, host, seq, 0, ok)
}

// Op details one at-most-once operation by the parts of its key
// (wire.OpKey): the origin host, its incarnation and its sequence there.
// A key whose numbers do not fit the int32 slots renders here, whole,
// into the origin's slot, and the flag says so.
func Op(user, origin string, inc, seq uint64, msgType string) Detail {
	if inc > math.MaxInt32 || seq > math.MaxInt32 {
		return fixed(user, opText(origin, inc, seq), msgType, 0, 0, true)
	}
	return fixed(user, origin, msgType, int32(inc), int32(seq), false)
}

// opText renders an operation's key as wire.OpKey does: "origin#inc#seq".
func opText(origin string, inc, seq uint64) string {
	return origin + "#" + strconv.FormatUint(inc, 10) + "#" + strconv.FormatUint(seq, 10)
}

// Retry details one retransmission of an operation by its key, message
// type, attempt and backoff. The attempt and the backoff fill the int32
// slots, so the key renders here, whole, into a text slot.
func Retry(user, origin string, inc, seq uint64, msgType string, attempt int, backoff time.Duration) Detail {
	return Detail{layout: layoutFormat, s: [3]string{user, opText(origin, inc, seq), msgType},
		n: [3]int32{int32(attempt), int32(backoff >> 32), int32(backoff)}}
}

// Timeout details a request whose reply never came. An op id past the
// int32 slot renders here, whole, into the type's slot, and the flag
// says so.
func Timeout(user, peer, msgType string, op uint64) Detail {
	if op > math.MaxInt32 {
		return fixed(user, peer, msgType+" op="+strconv.FormatUint(op, 10), 0, 0, true)
	}
	return fixed(user, peer, msgType, int32(op), 0, false)
}

// FloodStamp details a flood by its stamp, as lpm.flood.apply and .dup
// do. The mint time takes two slots; a sequence past the third renders
// here, whole, into the origin's slot, and the flag says so.
func FloodStamp(user, origin string, at time.Duration, seq uint64) Detail {
	if seq > math.MaxInt32 {
		return Detail{layout: layoutFormat, s: [3]string{user, fmt.Sprintf("%s@%v#%d", origin, at, seq)}, flag: true}
	}
	return Detail{layout: layoutFormat, s: [3]string{user, origin}, n: [3]int32{int32(at >> 32), int32(at), int32(seq)}}
}

// FloodOrigin extends a FloodStamp by the flooded message's type.
func FloodOrigin(stamp Detail, inner string) Detail { stamp.s[2] = inner; return stamp }

// FloodDone extends a FloodStamp by the hosts it covered and, in the
// same slot, those it did not: "a,b partial=c".
func FloodDone(stamp Detail, hosts, partial string) Detail {
	stamp.s[2] = hosts + " partial=" + partial
	return stamp
}

// CircuitState is one state of a sibling circuit's lifecycle (DESIGN.md
// §13); the audit replays each LPM's per-peer machine from its steps.
type CircuitState uint8

const (
	CircuitIdle CircuitState = iota
	CircuitDialing
	CircuitAuthenticating
	CircuitEstablished
	CircuitSuspect
	CircuitClosed
	numCircuitStates
)

var circuitStateNames = [numCircuitStates]string{"idle", "dialing", "authenticating", "established", "suspect", "closed"}

func (s CircuitState) String() string {
	if s < numCircuitStates {
		return circuitStateNames[s]
	}
	return "invalid"
}

// circuitReasons is the vocabulary of why a circuit steps; a step's
// reason rides in its Detail as an index into it.
var circuitReasons = [...]string{"dial", "dial-failed", "hello", "hello-in", "auth-client", "auth-server",
	"suspicion", "traffic", "detector", "close", "peer-lost", "superseded", "exit"}

// CircuitStep details one circuit.transition: "user=u peer=vax2
// chan=vax1:701->vax2:700 from=established to=suspect reason=suspicion-2".
// A nonzero level suffixes the reason; one outside the vocabulary panics.
func CircuitStep(user, peer, chanKey string, from, to CircuitState, reason string, level int) Detail {
	r := slices.Index(circuitReasons[:], reason)
	if r < 0 {
		panic("journal: unregistered circuit reason " + reason)
	}
	return Detail{layout: layoutCircuit, s: [3]string{user, peer, chanKey},
		n: [3]int32{int32(from)<<8 | int32(to), int32(r), int32(level)}}
}

// text renders the detail.
func (d *Detail) text() string {
	if d.layout == layoutText {
		return d.s[0]
	}
	var buf [64]byte
	return string(d.appendTo(buf[:0]))
}

// NumKinds sizes a table indexed by Kind. It counts the unused slot 0,
// so such a table indexes by the kind itself.
const NumKinds = int(numKinds)

// Kinds returns the record kinds in table order.
func Kinds() []Kind {
	out := make([]Kind, 0, numKinds-1)
	for k := Kind(1); k < numKinds; k++ {
		out = append(out, k)
	}
	return out
}

// String returns the kind's dotted name.
func (k Kind) String() string {
	if k < numKinds && kindTable[k].name != "" {
		return kindTable[k].name
	}
	return "Kind(" + strconv.Itoa(int(k)) + ")"
}

// ParseKinds resolves a comma-separated list of kind names to the kinds
// they select, in table order per name. A name is a kind's own or a
// dotted prefix standing for a whole family ("net", "lpm.sibling"); one
// that selects nothing is an error.
func ParseKinds(list string) ([]Kind, error) {
	var out []Kind
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		n := len(out)
		for k := Kind(1); k < numKinds; k++ {
			if s := kindTable[k].name; s == name || strings.HasPrefix(s, name+".") {
				out = append(out, k)
			}
		}
		if len(out) == n {
			return nil, fmt.Errorf("unknown journal kind %q", name)
		}
	}
	return out, nil
}

// badKind is the cold path of AppendDetail: a kind the vocabulary does
// not hold, or free text under a kind that declares a format, is a bug.
// Out of line so the hot path builds no message.
func badKind(k Kind, why string) {
	panic("journal: " + why + " " + k.String())
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
	var buf [128]byte
	d := text(r.Detail)
	return string(appendLine(buf[:0], r.Seq, r.At, r.Kind, r.Host, r.Trace, r.Span, &d))
}

// appendLine renders one canonical line, append-style:
// "#%06d %-12s %-8s %-18s %s" of seq, "T+"+at, host or "-", kind and
// the detail, trailing spaces trimmed, then " [t=%d s=%d]" when traced.
func appendLine(b []byte, seq uint64, at time.Duration, kind Kind, host string, trace, span uint64, d *Detail) []byte {
	var num [20]byte
	digits := strconv.AppendUint(num[:0], seq, 10)
	b = append(b, '#')
	for n := len(digits); n < 6; n++ {
		b = append(b, '0')
	}
	b = append(append(b, digits...), " T+"...)
	b = append(appendPadded(b, at.String(), 10), ' ')
	if host == "" {
		host = "-"
	}
	b = append(appendPadded(b, host, 8), ' ')
	b = append(appendPadded(b, kind.String(), 18), ' ')
	b = d.appendTo(b)
	for b[len(b)-1] == ' ' {
		b = b[:len(b)-1]
	}
	if trace != 0 {
		b = strconv.AppendUint(append(b, " [t="...), trace, 10)
		b = append(strconv.AppendUint(append(b, " s="...), span, 10), ']')
	}
	return b
}

// appendPadded appends s left-justified in width columns, as %-*s does.
func appendPadded(b []byte, s string, width int) []byte {
	b = append(b, s...)
	for n := utf8.RuneCountInString(s); n < width; n++ {
		b = append(b, ' ')
	}
	return b
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
	ring *ring.Buffer[slot]
	seq  uint64 // records ever appended; Seq of the newest record

	// names is the table a slot's host and names index. It is the
	// journal's own: it spans users and never refuses a name.
	names *ring.Names

	// texts holds the strings the retained slots keep out of line, and
	// ids the trace contexts of their wide slots, oldest first.
	texts ring.Queue[string]
	ids   ring.Queue[[2]uint64]
}

// slot is a record as the ring holds it, 48 bytes where the entry it
// unpacks to is 104: no Seq (the ring position gives it), each name as
// its index in Journal.names, each text out of line, and the trace
// context in 32 bits unless the slot is wide. Its size is the journal's
// retained heap per record (TestEntrySize).
type slot struct {
	at          time.Duration
	n           [3]int32
	host        uint32
	s           [3]uint32
	trace, span uint32
	kind        Kind
	bits        uint8 // the layout, then the bit* flags
}

const (
	bitFlag = 1 << 2 // the detail's flag
	bitWide = 1 << 3 // trace and span are the next entry of Journal.ids
	bitText = 1 << 4 // string slot i is the next entry of Journal.texts: bitText << i
)

// entry is a record as the readers see it, unpacked from its slot: no
// Seq, the kind inside d, the detail unrendered.
type entry struct {
	at          time.Duration
	trace, span uint64
	host        string
	d           Detail
}

// New creates a journal reading virtual time from now.
func New(now func() time.Duration) *Journal {
	return &Journal{now: now, ring: ring.NewBuffer[slot](DefaultCapacity),
		names: ring.NewNames()}
}

// SetCapacity resizes the ring bound (only before the first append; 0
// keeps the current capacity).
func (j *Journal) SetCapacity(n int) {
	if j == nil || n <= 0 || j.seq != 0 {
		return
	}
	j.ring = ring.NewBuffer[slot](n)
}

// Append records a causally unattributed event whose detail is text.
//
//ppmlint:hotpath pin=TestJournalAppendZeroAllocs
func (j *Journal) Append(kind Kind, host, detail string) {
	j.AppendDetail(kind, host, text(detail), 0, 0)
}

// AppendDetail is the one way into the ring: it records an event whose
// detail is handed over as data, under an explicit trace context (the
// envelope's own trailer IDs, a dial or flood context, the tracer's
// active span); zero IDs mean the event is causally unattributed.
//
//ppmlint:hotpath pin=TestJournalAppendZeroAllocs
func (j *Journal) AppendDetail(kind Kind, host string, d Detail, trace, span uint64) {
	if j == nil {
		return
	}
	if kind-1 >= numKinds-1 { // one compare: kind 0 wraps to 255
		badKind(kind, "unregistered record kind")
	}
	if d.layout == layoutText && kindTable[kind].format != "" {
		badKind(kind, "text detail under a formatted kind")
	}
	d.kind = kind
	j.seq++
	// The evicted slot is read only while something waits aside: it is
	// the ring's coldest line.
	sl, evicted := j.ring.Next()
	if evicted && j.texts.Len()+j.ids.Len() > 0 {
		for n := bits.OnesCount8(sl.bits / bitText); n > 0; n-- {
			j.texts.Pop()
		}
		if sl.bits&bitWide != 0 {
			j.ids.Pop()
		}
	}
	j.pack(sl, host, &d, trace, span)
}

// pack fills sl with d, queueing what it keeps out of line. It stores
// field by field: a slot built aside and copied in is read back wide
// right after its narrow stores, which stalls.
func (j *Journal) pack(sl *slot, host string, d *Detail, trace, span uint64) {
	sl.at, sl.n, sl.kind, sl.bits = j.now(), d.n, d.kind, uint8(d.layout)
	var ok bool
	if sl.host, ok = j.names.Cached(host); !ok {
		sl.host = j.names.Index(host)
	}
	if d.flag {
		sl.bits |= bitFlag
	}
	text := kindTable[d.kind].text // the slots of d that hold text
	if d.flag {
		text |= text >> 4
	}
	if d.layout == layoutText {
		text = text0
	}
	for i, s := range &d.s {
		sl.s[i] = 0
		switch {
		case s == "":
		case text&(1<<i) != 0:
			sl.bits |= bitText << i
			j.texts.Push(s)
		default:
			if sl.s[i], ok = j.names.Cached(s); !ok {
				sl.s[i] = j.names.Index(s)
			}
		}
	}
	sl.trace, sl.span = uint32(trace), uint32(span)
	if trace > math.MaxUint32 || span > math.MaxUint32 {
		sl.bits |= bitWide
		j.ids.Push([2]uint64{trace, span})
	}
}

// cursor unpacks the retained slots oldest first: i is the next slot's
// position, texts and ids its first entries in the queues beside the
// ring, seq the Seq of the record last unpacked. It is the one way out
// of the ring.
type cursor struct {
	j             *Journal
	i, texts, ids int
	seq           uint64
}

// next unpacks the next slot into e, or reports false past the newest.
// It allocates nothing: every string it hands back is held by the table
// of names or the queue of texts.
func (c *cursor) next(e *entry) bool {
	j := c.j
	if c.i >= j.Len() {
		return false
	}
	sl := j.ring.At(c.i)
	c.seq = j.seq - uint64(j.ring.Len()-c.i) + 1 // the newest is j.seq, and the ring holds no gaps
	c.i++
	// Field by field: an entry literal would be built aside and copied.
	names := j.names
	e.at, e.trace, e.span, e.host = sl.at, uint64(sl.trace), uint64(sl.span), names.Name(sl.host)
	e.d.n, e.d.layout, e.d.flag, e.d.kind = sl.n, layout(sl.bits&3), sl.bits&bitFlag != 0, sl.kind
	for i, x := range sl.s {
		if sl.bits&(bitText<<i) != 0 {
			e.d.s[i] = j.texts.At(c.texts)
			c.texts++
		} else {
			e.d.s[i] = names.Name(x)
		}
	}
	if sl.bits&bitWide != 0 {
		id := j.ids.At(c.ids)
		c.ids++
		e.trace, e.span = id[0], id[1]
	}
	return true
}

// record renders e, the record numbered seq.
func record(seq uint64, e *entry) Record {
	return Record{
		Seq: seq, At: e.at, Kind: e.d.kind, Host: e.host,
		Trace: e.trace, Span: e.span, Detail: e.d.text(),
	}
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

// Seq returns the number of the newest record appended (0 before the
// first): the position a later Flows reduces from.
func (j *Journal) Seq() uint64 {
	if j == nil {
		return 0
	}
	return j.seq
}

// Records returns the retained records, oldest first.
func (j *Journal) Records() []Record {
	if j == nil {
		return nil
	}
	out := make([]Record, 0, j.ring.Len())
	var e entry
	for c := (cursor{j: j}); c.next(&e); {
		out = append(out, record(c.seq, &e))
	}
	return out
}

// Reset discards all retained records (the sequence counter keeps
// counting, so records from before and after a reset never alias).
func (j *Journal) Reset() {
	if j == nil {
		return
	}
	j.ring.Reset()
	j.texts.Reset()
	j.ids.Reset()
}

// Filter selects records for Select and Report. Zero-valued fields
// match everything; Until of 0 means no upper bound. Kinds are exact:
// ParseKinds resolves names and family prefixes once, where the filter
// is built, so nothing is matched by string per record.
type Filter struct {
	Kinds []Kind        // match any of these kinds (empty = all)
	Host  string        // match this host ("" = all)
	Since time.Duration // records at or after this instant
	Until time.Duration // records at or before this instant (0 = unbounded)
}

// match runs on the unpacked entry, so a record the filter rejects is
// never rendered.
func (f Filter) match(e *entry) bool {
	return (len(f.Kinds) == 0 || slices.Contains(f.Kinds, e.d.kind)) && (f.Host == "" || e.host == f.Host) &&
		e.at >= f.Since && (f.Until == 0 || e.at <= f.Until)
}

// Select returns the retained records matching the filter, oldest
// first.
func (j *Journal) Select(f Filter) []Record {
	if j == nil {
		return nil
	}
	var out []Record
	var e entry
	for c := (cursor{j: j}); c.next(&e); {
		if f.match(&e) {
			out = append(out, record(c.seq, &e))
		}
	}
	return out
}

// Render returns the canonical full-journal text: one line per retained
// record. Byte-identical across same-seed runs.
func (j *Journal) Render() string { return j.text(Filter{}, false) }

// Report renders the records matching the filter under a summary
// header.
func (j *Journal) Report(f Filter) string { return j.text(f, true) }

// text renders the records matching f, one line each, under the summary
// header if head is set: counted and measured first, then exactly sized.
func (j *Journal) text(f Filter, head bool) string {
	if head && j == nil {
		return "=== journal === (disabled)\n"
	}
	var scratch [256]byte
	line, shown, size := scratch[:0], 0, 0
	var e entry
	for c := (cursor{j: j}); c.next(&e); {
		if f.match(&e) {
			line = append(appendLine(line[:0], c.seq, e.at, e.d.kind, e.host, e.trace, e.span, &e.d), '\n')
			shown, size = shown+1, size+len(line)
		}
	}
	if line = line[:0]; head {
		line = fmt.Appendf(line, "=== journal === (%d shown / %d retained, %d dropped)\n", shown, j.Len(), j.Dropped())
	}
	var b strings.Builder
	b.Grow(len(line) + size)
	b.Write(line)
	for c := (cursor{j: j}); c.next(&e); {
		if f.match(&e) {
			line = append(appendLine(line[:0], c.seq, e.at, e.d.kind, e.host, e.trace, e.span, &e.d), '\n')
			b.Write(line)
		}
	}
	return b.String()
}
