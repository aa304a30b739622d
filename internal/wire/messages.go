package wire

import (
	"encoding/binary"
	"fmt"
	"time"

	"ppm/internal/calib"
	"ppm/internal/journal"
	"ppm/internal/proc"
	"ppm/internal/trace"
)

// MsgType identifies a protocol message.
type MsgType uint16

// Protocol message types.
const (
	// pmd protocol — the Figure 2 creation steps.
	MsgLPMQuery MsgType = iota + 1
	MsgLPMQueryResp

	// Sibling channel establishment (Figure 3).
	MsgHello
	MsgHelloResp

	// Requests between tools and LPMs / between sibling LPMs.
	MsgCreateProc
	MsgCreateAck
	MsgControl
	MsgControlResp
	MsgSnapshotReq
	MsgSnapshotResp
	MsgStatsReq
	MsgStatsResp
	MsgHistoryReq
	MsgHistoryResp
	MsgFDReq
	MsgFDResp

	// Graph-covering broadcast envelope and replies.
	MsgBroadcast
	MsgBroadcastResp

	// Kernel-to-LPM event message (112 bytes).
	MsgKernelEvent

	// Liveness and recovery.
	MsgPing
	MsgPong
	MsgCCSUpdate

	// Failure reply.
	MsgError

	// Relay: a request forwarded through intermediate LPMs along a
	// route learned from broadcast replies (paper §4: "this allows
	// quick routing of messages affecting processes in topologically
	// distant hosts").
	MsgRelay
	MsgRelayResp

	// Remote history-dependent triggers: "history dependent events can
	// be set by users to trigger process state changes".
	MsgWatch
	MsgWatchResp

	// Live introspection: a status sweep collects one per-host report
	// from every reachable sibling. The op is read-only, so it rides
	// the retry engine without an at-most-once op id — re-execution is
	// free.
	MsgStatusReq
	MsgStatusResp

	// Adaptive failure detection: a linktest frame is a periodic
	// heartbeat the circuit layer exchanges so the accrual detector
	// has a steady inter-arrival stream even on an idle circuit.
	MsgLinkTest
	MsgLinkTestResp

	// Exit forwarding: a remote kernel's LPM notifies the home LPM of
	// a watched process's exit so home-declared watches fire. The op
	// is at-most-once (it appends to the home history store).
	MsgProcExit
	MsgProcExitResp

	// numOps closes the protocol and sizes opSpecs.
	numOps
)

// opRole classifies a wire op. A request is dispatched and answered
// (lpm's TestProtocolGarbagePayloadsAnsweredNotCrashed sends every op
// that is not a response and names the few served elsewhere); a response
// answers a pending request; an event is pushed through a side channel
// (the kernel's event sink) rather than dispatched.
type opRole uint8

const (
	roleRequest opRole = iota + 1
	roleResponse
	roleEvent
)

// opSpec is one row of the protocol-surface manifest: what the protocol
// layers ask about an op, read through the MsgType methods below.
type opSpec struct {
	name string        // trace name, which also derives the op's counter pair
	role opRole        // see IsResponse
	once bool          // at-most-once: see AtMostOnce
	rtt  bool          // round trips tracked per op: see RTTTracked
	cost time.Duration // endpoint cost where lighter than a full message: see EndpointCost
}

// opSpecs is the protocol-surface manifest, indexed by the op: one row
// per op is the single point a new message type must touch. It is sized
// by the sentinel, so a Msg* constant added without a row is an empty
// row; TestOpSpecsManifestTotal holds every row to a unique name (each
// derives a distinct counter pair) and a valid role.
var opSpecs = [numOps]opSpec{
	MsgLPMQuery:      {name: "LPMQuery", role: roleRequest},
	MsgLPMQueryResp:  {name: "LPMQueryResp", role: roleResponse},
	MsgHello:         {name: "Hello", role: roleRequest},
	MsgHelloResp:     {name: "HelloResp", role: roleResponse},
	MsgCreateProc:    {name: "CreateProc", role: roleRequest, once: true, rtt: true},
	MsgCreateAck:     {name: "CreateAck", role: roleResponse, cost: calib.AckEndpoint},
	MsgControl:       {name: "Control", role: roleRequest, once: true, rtt: true},
	MsgControlResp:   {name: "ControlResp", role: roleResponse},
	MsgSnapshotReq:   {name: "SnapshotReq", role: roleRequest, rtt: true},
	MsgSnapshotResp:  {name: "SnapshotResp", role: roleResponse},
	MsgStatsReq:      {name: "StatsReq", role: roleRequest, rtt: true},
	MsgStatsResp:     {name: "StatsResp", role: roleResponse},
	MsgHistoryReq:    {name: "HistoryReq", role: roleRequest, rtt: true},
	MsgHistoryResp:   {name: "HistoryResp", role: roleResponse},
	MsgFDReq:         {name: "FDReq", role: roleRequest, rtt: true},
	MsgFDResp:        {name: "FDResp", role: roleResponse},
	MsgBroadcast:     {name: "Broadcast", role: roleRequest, once: true, rtt: true},
	MsgBroadcastResp: {name: "BroadcastResp", role: roleResponse},
	MsgKernelEvent:   {name: "KernelEvent", role: roleEvent},
	MsgPing:          {name: "Ping", role: roleRequest, rtt: true},
	MsgPong:          {name: "Pong", role: roleResponse},
	MsgCCSUpdate:     {name: "CCSUpdate", role: roleRequest},
	MsgError:         {name: "Error", role: roleResponse},
	MsgRelay:         {name: "Relay", role: roleRequest, rtt: true},
	MsgRelayResp:     {name: "RelayResp", role: roleResponse},
	MsgWatch:         {name: "Watch", role: roleRequest, once: true, rtt: true},
	MsgWatchResp:     {name: "WatchResp", role: roleResponse},
	MsgStatusReq:     {name: "StatusReq", role: roleRequest, rtt: true},
	MsgStatusResp:    {name: "StatusResp", role: roleResponse},
	MsgLinkTest:      {name: "LinkTest", role: roleRequest, cost: calib.HeartbeatEndpoint},
	MsgLinkTestResp:  {name: "LinkTestResp", role: roleResponse, cost: calib.HeartbeatEndpoint},
	MsgProcExit:      {name: "ProcExit", role: roleRequest, once: true},
	MsgProcExitResp:  {name: "ProcExitResp", role: roleResponse},
}

// NumOps sizes a table indexed by MsgType. It counts the unused slot 0:
// the ops are 1..NumOps-1.
const NumOps = int(numOps)

// IsResponse reports whether t answers a pending request.
func (t MsgType) IsResponse() bool {
	return t < numOps && opSpecs[t].role == roleResponse
}

// AtMostOnce reports whether t is held to at-most-once execution.
// Control operations, process creations, watch installations, broadcast
// echoes and forwarded exits are not idempotent: re-executing a
// retransmit would signal twice, fork twice, install two watches,
// answer Dup for a subtree whose data the first echo already carried,
// or fire the home LPM's watches twice. Snapshot, stats, FD, history,
// status and ping requests are read-only and may re-execute freely.
func (t MsgType) AtMostOnce() bool { return t < numOps && opSpecs[t].once }

// RTTTracked reports whether request round trips of type t are recorded
// per op, in the registry and in each LPM's status report.
func (t MsgType) RTTTracked() bool { return t < numOps && opSpecs[t].rtt }

// EndpointCost returns the CPU demand of processing one circuit message
// of type t at one endpoint. Creation acks are lightweight — the
// dispatcher sends them directly and the blocked handler consumes them
// — and so are linktest heartbeats.
func (t MsgType) EndpointCost() time.Duration {
	if t < numOps && opSpecs[t].cost != 0 {
		return opSpecs[t].cost
	}
	return calib.SiblingEndpoint
}

// msgCounterNames precomputes the per-type metric counter names so the
// per-frame accounting in EncodeLoggedTo performs no string
// concatenation.
var msgCounterNames = func() (t [numOps]struct{ msgs, bytes string }) {
	for i, s := range opSpecs {
		if s.name != "" {
			t[i] = struct{ msgs, bytes string }{"wire.msgs." + s.name, "wire.bytes." + s.name}
		}
	}
	return t
}()

// String returns the message type name for traces.
//
//ppmlint:hotpath pin=TestMsgTypeStringTable
func (t MsgType) String() string {
	if t < numOps && opSpecs[t].name != "" {
		return opSpecs[t].name
	}
	return fmt.Sprintf("MsgType(%d)", uint16(t))
}

// Envelope frames every message: type, a request id correlating
// responses with requests, and the encoded payload. TraceID/SpanID are
// the optional causal-trace context (internal/trace) propagated across
// machine boundaries; zero means the message is not part of a trace.
type Envelope struct {
	Type  MsgType
	ReqID uint64
	Body  []byte

	// OpID is the operation identity for at-most-once delivery: it
	// stays stable across retransmissions of the same logical request
	// while ReqID changes per attempt, so the receiver can recognize a
	// re-execution and replay its cached reply. Zero means the message
	// carries no at-most-once semantics. Encoded as an optional trailer
	// like the trace context.
	OpID uint64

	// Trace context trailer. Only encoded when TraceID != 0, so
	// untraced traffic keeps its exact pre-tracing frame size.
	TraceID uint64
	SpanID  uint64
}

// SetTrace stamps the envelope with a trace context given as raw IDs.
func (ev *Envelope) SetTrace(traceID, spanID uint64) {
	ev.TraceID, ev.SpanID = traceID, spanID
}

// Trailer flags on an envelope frame. Trailers are optional typed
// extensions after the body: a flag byte naming the trailer followed by
// its fixed-size payload. Decoders that predate a trailer still parse
// the frame because decoding permits trailing bytes.
const (
	// traceFlag marks a trace-context trailer (two u64s).
	traceFlag = 1
	// opFlag marks an operation-identity trailer (one u64).
	opFlag = 2
)

// EncodeTo serializes the envelope into e and returns the encoded
// frame (e's buffer). The operation identity, when present, is
// appended as a 9-byte trailer and the trace context as a 17-byte
// trailer, in that fixed order so identical envelopes produce
// identical frames. With a reused (or pooled) encoder this is the
// zero-allocation framing path; the returned slice is owned by e.
//
//ppmlint:hotpath pin=TestEncodeOpLessFrameZeroAllocs
func (ev Envelope) EncodeTo(e *Encoder) []byte {
	e.U16(uint16(ev.Type))
	e.U64(ev.ReqID)
	e.Bytes32(ev.Body)
	if ev.OpID != 0 {
		e.U8(opFlag)
		e.U64(ev.OpID)
	}
	if ev.TraceID != 0 {
		e.U8(traceFlag)
		e.U64(ev.TraceID)
		e.U64(ev.SpanID)
	}
	return e.Bytes()
}

// EncodedSize returns the exact frame size EncodeTo will produce.
func (ev Envelope) EncodedSize() int {
	size := 14 + len(ev.Body)
	if ev.OpID != 0 {
		size += 9
	}
	if ev.TraceID != 0 {
		size += 17
	}
	return size
}

// Encode serializes the envelope into a fresh buffer the caller owns.
func (ev Envelope) Encode() []byte {
	e := Encoder{buf: make([]byte, 0, ev.EncodedSize())}
	return ev.EncodeTo(&e)
}

// EncodeLoggedTo is the send side's one observation point: it
// serializes the envelope into e (see EncodeTo; with a pooled encoder
// the frame is valid only until PutEncoder) and records the frame
// exactly once, at the moment it is produced — one message and its
// size under the envelope's type name in the registry's wire family
// ("wire.msgs.Hello", "wire.bytes.Hello", ..., through two handles per
// type that rec keeps) and a wire.encode journal record tagged with the
// type, frame size and the envelope's own trace context on the host
// producing it. A recorder without a registry or journal skips that
// half.
//
//ppmlint:hotpath pin=TestLoggedCodecZeroAllocs
func (ev Envelope) EncodeLoggedTo(e *Encoder, rec *journal.Recorder, host string) []byte {
	b := ev.EncodeTo(e)
	if i := int(ev.Type); i < len(msgCounterNames) && msgCounterNames[i].msgs != "" {
		rec.Handle(2*i, msgCounterNames[i].msgs).Inc()
		rec.Handle(2*i+1, msgCounterNames[i].bytes).Add(uint64(len(b)))
	} else if reg := rec.Metrics(); reg != nil {
		name := ev.Type.String()
		reg.Counter("wire.msgs." + name).Inc()
		reg.Counter("wire.bytes." + name).Add(uint64(len(b)))
	}
	rec.Record(journal.WireEncode, host, trace.Context{Trace: ev.TraceID, Span: ev.SpanID}, journal.WireFrame(ev.Type.String(), len(b)))
	return b
}

// DecodeEnvelope parses a framed message. Trailers (operation identity,
// trace context) are read when present; zero padding after the body
// (fixed-size frames) stops the trailer scan and decodes as "none".
// The returned Body is a copy the caller owns.
func DecodeEnvelope(b []byte) (Envelope, error) {
	ev, err := DecodeEnvelopeBorrow(b)
	if err == nil && ev.Body != nil {
		ev.Body = append([]byte(nil), ev.Body...)
	}
	return ev, err
}

// DecodeEnvelopeBorrow is DecodeEnvelope without the body copy: the
// returned Body aliases b and is only valid while b is. It is the
// zero-allocation parse for consumers that fully decode the body
// before returning control (Decode copies every field it extracts); a
// handler that defers work referencing the body
// must use DecodeEnvelope.
//
//ppmlint:hotpath pin=TestDecodeOpLessFrameZeroAllocs
func DecodeEnvelopeBorrow(b []byte) (Envelope, error) {
	d := decoder{buf: b}
	var ev Envelope
	ev.Type = MsgType(d.U16())
	ev.ReqID = d.U64()
	ev.Body = d.Bytes32Borrow()
trailers:
	for d.remaining() >= 9 {
		switch d.U8() {
		case opFlag:
			ev.OpID = d.U64()
		case traceFlag:
			if d.remaining() < 16 {
				break trailers
			}
			ev.TraceID = d.U64()
			ev.SpanID = d.U64()
		default:
			break trailers // padding, or a trailer from the future
		}
	}
	if d.err != nil {
		return Envelope{}, d.err
	}
	return ev, nil
}

// DecodeEnvelopeLogged is the receive side's one observation point:
// DecodeEnvelope plus a wire.decode journal record on the receiving
// host for every successfully parsed frame, tagged with the envelope
// type, frame size and the decoded trace context. A nil recorder makes
// it DecodeEnvelope: the record itself costs no allocation, the body
// copy is DecodeEnvelope's.
//
//ppmlint:hotpath pin=TestLoggedCodecZeroAllocs
func DecodeEnvelopeLogged(b []byte, rec *journal.Recorder, host string) (Envelope, error) {
	ev, err := DecodeEnvelopeBorrowLogged(b, rec, host)
	if err == nil && ev.Body != nil {
		ev.Body = append([]byte(nil), ev.Body...)
	}
	return ev, err
}

// DecodeEnvelopeBorrowLogged is DecodeEnvelopeLogged without the body
// copy, as DecodeEnvelopeBorrow is DecodeEnvelope without it.
//
//ppmlint:hotpath pin=TestLoggedCodecZeroAllocs
func DecodeEnvelopeBorrowLogged(b []byte, rec *journal.Recorder, host string) (Envelope, error) {
	ev, err := DecodeEnvelopeBorrow(b)
	if err == nil {
		rec.Record(journal.WireDecode, host, trace.Context{Trace: ev.TraceID, Span: ev.SpanID}, journal.WireFrame(ev.Type.String(), len(b)))
	}
	return ev, err
}

// --- pmd protocol (Figure 2) ---

// LPMQuery asks the pmd for the user's LPM accept address, creating the
// LPM if none exists on the host.
type LPMQuery struct {
	User string
	// Token authenticates the requesting user to the pmd.
	Token []byte
}

// Fields walks the query in wire order.
func (m *LPMQuery) Fields(c *Coder) {
	c.Size(32)
	c.Str(&m.User)
	c.Bytes(&m.Token)
}

// LPMQueryResp returns the accept address (step 4 of Figure 2).
type LPMQueryResp struct {
	OK         bool
	Reason     string
	AcceptHost string
	AcceptPort uint16
	Created    bool // true if the LPM was created by this request
}

// Fields walks the response in wire order.
func (m *LPMQueryResp) Fields(c *Coder) {
	c.Size(32)
	c.Bool(&m.OK)
	c.Str(&m.Reason)
	c.Str(&m.AcceptHost)
	c.U16(&m.AcceptPort)
	c.Bool(&m.Created)
}

// --- sibling channel (Figure 3) ---

// Hello authenticates a new sibling circuit. The token is minted by the
// connecting LPM with the user's key; the stamp prevents replay.
type Hello struct {
	User     string
	FromHost string
	Token    []byte
	Stamp    Stamp
	// CCSHost/CCSPort propagate the crash coordinator site address to
	// newly connected siblings (paper §5: "upon creation of a sibling
	// LPM, the network address of the CCS is passed along").
	CCSHost string
	CCSPort uint16
	// Inc is the dialing LPM's incarnation id. Operation identities
	// (Envelope.OpID) are scoped to one LPM instance; exchanging the
	// incarnation at channel creation lets the acceptor key its
	// at-most-once state so a restarted LPM — whose op counter restarts
	// from zero — never hits its predecessor's cached replies.
	Inc uint64
}

// Fields walks the hello in wire order.
func (m *Hello) Fields(c *Coder) {
	c.Size(64)
	c.Str(&m.User)
	c.Str(&m.FromHost)
	c.Bytes(&m.Token)
	m.Stamp.Fields(c)
	c.Str(&m.CCSHost)
	c.U16(&m.CCSPort)
	c.U64(&m.Inc)
}

// HelloResp accepts or rejects the circuit.
type HelloResp struct {
	OK     bool
	Reason string
	// Inc is the accepting LPM's incarnation id (see Hello.Inc):
	// requests flow both ways over one circuit, so each end needs the
	// other's incarnation.
	Inc uint64
}

// Fields walks the response in wire order.
func (m *HelloResp) Fields(c *Coder) {
	c.Size(16)
	c.Bool(&m.OK)
	c.Str(&m.Reason)
	c.U64(&m.Inc)
}

// --- process creation ---

// CreateProc asks an LPM to create (fork+exec) a process on its host
// and adopt it, with the given logical parent.
type CreateProc struct {
	User   string
	Name   string
	Parent proc.GPID
	// Foreground requests that the process start in the foreground
	// process group of the user's session on that host.
	Foreground bool
}

// Fields walks the request in wire order.
func (m *CreateProc) Fields(c *Coder) {
	c.Size(48)
	c.Str(&m.User)
	c.Str(&m.Name)
	c.GPID(&m.Parent)
	c.Bool(&m.Foreground)
}

// CreateAck is the lightweight acknowledgement sent right after
// fork+adopt succeed (exec continues asynchronously; its completion
// arrives as a kernel event).
type CreateAck struct {
	OK     bool
	Reason string
	ID     proc.GPID
}

// Fields walks the ack in wire order.
func (m *CreateAck) Fields(c *Coder) {
	c.Size(32)
	c.Bool(&m.OK)
	c.Str(&m.Reason)
	c.GPID(&m.ID)
}

// --- process control ---

// ControlOp is a built-in process-control function of the snapshot tool
// (paper §4: stop a process, execute it in the foreground, execute it
// in the background, kill it) plus arbitrary signal delivery.
type ControlOp uint8

// Control operations.
const (
	OpStop ControlOp = iota + 1
	OpForeground
	OpBackground
	OpKill
	OpSignal
)

// String names the operation.
func (o ControlOp) String() string {
	switch o {
	case OpStop:
		return "stop"
	case OpForeground:
		return "fg"
	case OpBackground:
		return "bg"
	case OpKill:
		return "kill"
	case OpSignal:
		return "signal"
	default:
		return fmt.Sprintf("op#%d", uint8(o))
	}
}

// Control requests a state change on one process anywhere in the
// network.
type Control struct {
	User   string
	Target proc.GPID
	Op     ControlOp
	Signal proc.Signal // for OpSignal
}

// Fields walks the request in wire order.
func (m *Control) Fields(c *Coder) {
	c.Size(32)
	c.Str(&m.User)
	c.GPID(&m.Target)
	c.U8((*uint8)(&m.Op))
	c.Int((*int)(&m.Signal))
}

// ControlResp reports the outcome and the process's new state.
type ControlResp struct {
	OK     bool
	Reason string
	State  proc.State
}

// Fields walks the response in wire order.
func (m *ControlResp) Fields(c *Coder) {
	c.Size(16)
	c.Bool(&m.OK)
	c.Str(&m.Reason)
	c.Enum((*int)(&m.State))
}

// --- snapshot ---

// SnapshotReq asks an LPM for information about the user's processes on
// its host (and, via the PPM infrastructure, on hosts it leads to).
type SnapshotReq struct {
	User string
	// Forward requests that the receiving LPM also gather from the
	// siblings reachable through it (used on chain topologies).
	Forward bool
}

// Fields walks the request in wire order.
func (m *SnapshotReq) Fields(c *Coder) {
	c.Size(16)
	c.Str(&m.User)
	c.Bool(&m.Forward)
}

// SnapshotResp carries per-process information fragments.
type SnapshotResp struct {
	OK      bool
	Reason  string
	Procs   []proc.Info
	Partial []string // hosts whose information is missing
}

// Fields walks the response in wire order.
func (m *SnapshotResp) Fields(c *Coder) {
	c.Size(64 + 96*len(m.Procs))
	c.Bool(&m.OK)
	c.Str(&m.Reason)
	c.Infos(&m.Procs)
	c.Strs(&m.Partial)
}

// --- exited-process statistics ---

// StatsReq asks for the preserved resource-consumption record of a
// process (typically exited).
type StatsReq struct {
	User   string
	Target proc.GPID
}

// Fields walks the request in wire order.
func (m *StatsReq) Fields(c *Coder) {
	c.Size(24)
	c.Str(&m.User)
	c.GPID(&m.Target)
}

// StatsResp returns the record.
type StatsResp struct {
	OK     bool
	Reason string
	Info   proc.Info
}

// Fields walks the response in wire order.
func (m *StatsResp) Fields(c *Coder) {
	c.Size(128)
	c.Bool(&m.OK)
	c.Str(&m.Reason)
	c.Info(&m.Info)
}

// --- history ---

// HistoryReq queries the LPM's preserved event trace.
type HistoryReq struct {
	User  string
	Proc  proc.GPID // zero GPID = all processes
	Kinds []uint8   // empty = all kinds
	Since time.Duration
	Limit uint16
}

// Fields walks the request in wire order.
func (m *HistoryReq) Fields(c *Coder) {
	c.Size(48)
	c.Str(&m.User)
	c.GPID(&m.Proc)
	for i, n := 0, Len(c, &m.Kinds); c.More(i, n); i++ {
		c.U8(Elem(c, &m.Kinds, i))
	}
	c.Duration(&m.Since)
	c.U16(&m.Limit)
}

// HistoryResp returns matching events.
type HistoryResp struct {
	OK     bool
	Reason string
	Events []proc.Event
}

// Fields walks the response in wire order.
func (m *HistoryResp) Fields(c *Coder) {
	c.Size(32 + 64*len(m.Events))
	c.Bool(&m.OK)
	c.Str(&m.Reason)
	c.Events(&m.Events)
}

// --- open-descriptor display (a §7 future-work tool, implemented) ---

// FDReq asks for the open descriptors of a process.
type FDReq struct {
	User   string
	Target proc.GPID
}

// Fields walks the request in wire order.
func (m *FDReq) Fields(c *Coder) {
	c.Size(24)
	c.Str(&m.User)
	c.GPID(&m.Target)
}

// FDResp lists open descriptors as "fd:path" strings.
type FDResp struct {
	OK     bool
	Reason string
	Open   []string
}

// Fields walks the response in wire order.
func (m *FDResp) Fields(c *Coder) {
	c.Size(32)
	c.Bool(&m.OK)
	c.Str(&m.Reason)
	c.Strs(&m.Open)
}

// --- broadcast (graph covering, §4) ---

// Broadcast is the flooding envelope for requests that must reach all
// sibling LPMs over the low-connectivity circuit graph. Dedup is by the
// signed stamp (origin host + origin time + sequence); the route
// accumulates the hosts traversed so replies can be source-routed back.
type Broadcast struct {
	Stamp Stamp
	Seq   uint64
	Route List[string]
	Inner []byte // the encoded inner envelope
}

// Fields walks the broadcast envelope in wire order.
func (m *Broadcast) Fields(c *Coder) {
	c.Size(96 + len(m.Route.b) + len(m.Inner))
	m.Stamp.Fields(c)
	c.U64(&m.Seq)
	Listed(c, &m.Route)
	c.Bytes(&m.Inner)
}

// BroadcastResp carries a reply back along the recorded route.
type BroadcastResp struct {
	Seq   uint64
	From  string
	Route List[string] // remaining route back to the originator
	Inner []byte
}

// Fields walks the broadcast reply in wire order.
func (m *BroadcastResp) Fields(c *Coder) {
	c.Size(64 + len(m.Route.b) + len(m.Inner))
	c.U64(&m.Seq)
	c.Str(&m.From)
	Listed(c, &m.Route)
	c.Bytes(&m.Inner)
}

// EncodeEcho returns the wire form of m with res as its Inner (m's own
// is ignored), in one buffer: res is walked straight in behind Inner's
// length, which is back-patched, where Encode would need res encoded on
// its own first.
func EncodeEcho(m BroadcastResp, res *FloodResult) []byte {
	var c Coder
	c.Size(64 + len(m.From) + len(m.Route.b) + res.size())
	m.Inner = nil
	m.Fields(&c)
	at := len(c.e.buf) // Inner is the last field: its empty length ends the buffer
	res.Fields(&c)
	binary.BigEndian.PutUint32(c.e.buf[at-4:at], uint32(len(c.e.buf)-at))
	return c.e.buf
}

// --- liveness / recovery ---

// Ping probes a sibling or a candidate CCS.
type Ping struct {
	FromHost string
	User     string
}

// Fields walks the ping in wire order.
func (m *Ping) Fields(c *Coder) {
	c.Size(24)
	c.Str(&m.FromHost)
	c.Str(&m.User)
}

// Pong answers a ping, reporting the responder's current CCS.
type Pong struct {
	FromHost string
	CCSHost  string
	CCSPort  uint16
	IsCCS    bool
}

// Fields walks the pong in wire order.
func (m *Pong) Fields(c *Coder) {
	c.Size(24)
	c.Str(&m.FromHost)
	c.Str(&m.CCSHost)
	c.U16(&m.CCSPort)
	c.Bool(&m.IsCCS)
}

// --- live introspection ---

// StatusReq asks a sibling LPM for its host's live status report. The
// sweep id names the origin's gather for journal correlation; the op is
// read-only and carries no at-most-once identity.
type StatusReq struct {
	User  string
	Sweep string
}

// Fields walks the request in wire order.
func (m *StatusReq) Fields(c *Coder) {
	c.Size(24)
	c.Str(&m.User)
	c.Str(&m.Sweep)
}

// StatusResp carries one host's status report, pre-encoded by
// internal/status (the wire layer stays ignorant of the report schema).
type StatusResp struct {
	OK     bool
	Reason string
	Report []byte
}

// Fields walks the response in wire order.
func (m *StatusResp) Fields(c *Coder) {
	c.Size(16 + len(m.Report))
	c.Bool(&m.OK)
	c.Str(&m.Reason)
	c.Bytes(&m.Report)
}

// CCSUpdate announces a new crash coordinator site to a sibling.
type CCSUpdate struct {
	CCSHost string
	CCSPort uint16
}

// Fields walks the update in wire order.
func (m *CCSUpdate) Fields(c *Coder) {
	c.Size(16)
	c.Str(&m.CCSHost)
	c.U16(&m.CCSPort)
}

// --- error reply ---

// ErrorResp is the generic failure reply the dispatcher returns when a
// handler reports that a remote request cannot be completed.
type ErrorResp struct {
	Reason string
}

// Fields walks the failure reply in wire order.
func (m *ErrorResp) Fields(c *Coder) {
	c.Size(16)
	c.Str(&m.Reason)
}

// --- flood aggregation ---

// FloodResult is the aggregate a node returns to its broadcast parent
// in the graph-covering echo: snapshot fragments and/or control counts
// collected from the subtree it covered, plus the hosts it failed to
// reach. A duplicate arrival (cycle in the circuit graph) is answered
// with Dup set and no data. Its lists stay in wire form from hop to
// hop; the originator decodes them.
type FloodResult struct {
	OK      bool
	Dup     bool
	Count   int32 // processes affected by a control-all flood
	Procs   List[proc.Info]
	Partial List[string]
	// Hosts lists every host whose LPM contributed to this aggregate,
	// so the originator can tell covered hosts from silent ones.
	Hosts List[string]
	// Routes[i] is the circuit path from the originator to Hosts[i],
	// hosts separated by '/'. The originator learns relay routes to
	// topologically distant hosts from these.
	Routes List[string]
}

// size is about the length of the result's wire form.
func (m *FloodResult) size() int {
	return 16 + len(m.Procs.b) + len(m.Partial.b) + len(m.Hosts.b) + len(m.Routes.b)
}

// Fields walks the flood result in wire order.
func (m *FloodResult) Fields(c *Coder) {
	c.Size(m.size())
	c.Bool(&m.OK)
	c.Bool(&m.Dup)
	c.I32(&m.Count)
	Listed(c, &m.Procs)
	Listed(c, &m.Partial)
	Listed(c, &m.Hosts)
	Listed(c, &m.Routes)
}

// Splice adds a child's echo to the aggregate m: its count, and its
// four lists appended byte for byte. echo is a BroadcastResp body, read
// in place (see DecodeHop); a duplicate's echo adds nothing. An echo
// Decode would reject is rejected, and m left as it was.
func (m *FloodResult) Splice(echo []byte, names Names) error {
	var resp BroadcastResp
	var res FloodResult
	err := DecodeHop(echo, &resp, names)
	if err == nil {
		err = DecodeHop(resp.Inner, &res, names)
	}
	if err != nil || res.Dup {
		return err
	}
	m.Count += res.Count
	m.Procs.Splice(res.Procs)
	m.Partial.Splice(res.Partial)
	m.Hosts.Splice(res.Hosts)
	m.Routes.Splice(res.Routes)
	return nil
}

// --- relay routing ---

// Relay carries a request toward Dest through intermediate LPMs along
// a known route. Each intermediary pops itself off Path and forwards;
// the destination processes Inner and the response travels back the
// same circuits.
type Relay struct {
	User string
	Dest string
	// Path is the remaining route (excluding the current host),
	// ending with Dest.
	Path  []string
	Inner []byte // encoded inner request envelope
}

// Fields walks the relay request in wire order.
func (m *Relay) Fields(c *Coder) {
	c.Size(64 + len(m.Inner))
	c.Str(&m.User)
	c.Str(&m.Dest)
	c.Strs(&m.Path)
	c.Bytes(&m.Inner)
}

// RelayResp carries the destination's response back to the origin.
type RelayResp struct {
	OK     bool
	Reason string
	Inner  []byte // encoded inner response envelope
}

// Fields walks the relay response in wire order.
func (m *RelayResp) Fields(c *Coder) {
	c.Size(32 + len(m.Inner))
	c.Bool(&m.OK)
	c.Str(&m.Reason)
	c.Bytes(&m.Inner)
}

// --- remote history-dependent triggers ---

// WatchReq installs (or removes) an event trigger on a remote LPM: when
// a matching kernel event arrives there, the named control action is
// applied to the target process (which may itself live on yet another
// host).
type WatchReq struct {
	User string
	// Remove uninstalls the watch with ID instead of installing one.
	Remove bool
	ID     int32

	// Filter (install only).
	Kind   uint8       // proc.EventKind
	Signal proc.Signal // for signal events, 0 = any
	Proc   proc.GPID   // zero = any process

	// Action (install only).
	Op        ControlOp
	ActionSig proc.Signal
	Target    proc.GPID
}

// Fields walks the watch request in wire order.
func (m *WatchReq) Fields(c *Coder) {
	c.Size(64)
	c.Str(&m.User)
	c.Bool(&m.Remove)
	c.I32(&m.ID)
	c.U8(&m.Kind)
	c.Int((*int)(&m.Signal))
	c.GPID(&m.Proc)
	c.U8((*uint8)(&m.Op))
	c.Int((*int)(&m.ActionSig))
	c.GPID(&m.Target)
}

// WatchResp acknowledges a watch installation or removal.
type WatchResp struct {
	OK     bool
	Reason string
	ID     int32
}

// Fields walks the response in wire order.
func (m *WatchResp) Fields(c *Coder) {
	c.Size(16)
	c.Bool(&m.OK)
	c.Str(&m.Reason)
	c.I32(&m.ID)
}

// --- adaptive failure detection ---

// LinkTest is the periodic heartbeat frame the circuit layer sends so
// the accrual failure detector sees a steady inter-arrival stream even
// on an otherwise idle circuit. Seq increments per circuit.
type LinkTest struct {
	FromHost string
	Seq      uint64
}

// Fields walks the linktest frame in wire order.
func (m *LinkTest) Fields(c *Coder) {
	c.Size(24)
	c.Str(&m.FromHost)
	c.U64(&m.Seq)
}

// LinkTestResp echoes a linktest; its arrival is itself a detector
// sample for the requesting side.
type LinkTestResp struct {
	FromHost string
	Seq      uint64
}

// Fields walks the linktest reply in wire order.
func (m *LinkTestResp) Fields(c *Coder) {
	c.Size(24)
	c.Str(&m.FromHost)
	c.U64(&m.Seq)
}

// --- exit forwarding (remote watches) ---

// ProcExit carries a watched process's exit event from the kernel that
// observed it to the process's home LPM, so watches declared at home
// fire. Event is the raw kernel exit event; Info is the final process
// record (for the home history store's exit index).
type ProcExit struct {
	User  string
	Event proc.Event
	Info  proc.Info
}

// Fields walks the exit notification in wire order.
func (m *ProcExit) Fields(c *Coder) {
	c.Size(192)
	c.Str(&m.User)
	c.Event(&m.Event)
	c.Info(&m.Info)
}

// ProcExitResp acknowledges an exit notification.
type ProcExitResp struct {
	OK     bool
	Reason string
}

// Fields walks the response in wire order.
func (m *ProcExitResp) Fields(c *Coder) {
	c.Size(16)
	c.Bool(&m.OK)
	c.Str(&m.Reason)
}
