package wire

import (
	"fmt"
	"time"

	"ppm/internal/calib"
	"ppm/internal/journal"
	"ppm/internal/metrics"
	"ppm/internal/proc"
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
)

// opRole classifies a wire op for the protocol-surface analyzer
// (internal/analysis/wireop). Requests must have a dispatch site
// somewhere under the protocol root; responses must be referenced by a
// requester; events are pushed through side channels (the kernel's
// event sink) rather than dispatched, so they are exempt from the
// dispatch check.
type opRole uint8

const (
	roleRequest opRole = iota + 1
	roleResponse
	roleEvent
)

// opSpec is one row of the protocol-surface manifest: the op's trace
// name (which also derives its metrics counter pair), its dispatch
// role, and the journal kind under which its effect is recorded.
type opSpec struct {
	name string
	role opRole
	kind journal.Kind
}

// opSpecs is the protocol-surface manifest, indexed by the op's
// ordinal. msgNames and msgCounterNames are derived from it, so one
// row per op is the single point a new message type must touch.
// ppmlint's wireop analyzer machine-checks the manifest: every Msg*
// constant needs a row, names must be unique (each derives a distinct
// counter pair), kinds must be named journal constants, and every
// request-role op must be dispatched somewhere under the protocol
// root. Ops whose effect has no dedicated flight-recorder kind
// (read-only queries, liveness probes) record under the generic
// journal.WireDecode their frames already land in.
var opSpecs = [...]opSpec{
	MsgLPMQuery:      {"LPMQuery", roleRequest, journal.DaemonQuery},
	MsgLPMQueryResp:  {"LPMQueryResp", roleResponse, journal.DaemonQuery},
	MsgHello:         {"Hello", roleRequest, journal.LPMSiblingAuth},
	MsgHelloResp:     {"HelloResp", roleResponse, journal.LPMSiblingOpen},
	MsgCreateProc:    {"CreateProc", roleRequest, journal.LPMAdopt},
	MsgCreateAck:     {"CreateAck", roleResponse, journal.LPMAdopt},
	MsgControl:       {"Control", roleRequest, journal.LPMControl},
	MsgControlResp:   {"ControlResp", roleResponse, journal.LPMControl},
	MsgSnapshotReq:   {"SnapshotReq", roleRequest, journal.SnapshotTaken},
	MsgSnapshotResp:  {"SnapshotResp", roleResponse, journal.SnapshotTaken},
	MsgStatsReq:      {"StatsReq", roleRequest, journal.WireDecode},
	MsgStatsResp:     {"StatsResp", roleResponse, journal.WireDecode},
	MsgHistoryReq:    {"HistoryReq", roleRequest, journal.WireDecode},
	MsgHistoryResp:   {"HistoryResp", roleResponse, journal.WireDecode},
	MsgFDReq:         {"FDReq", roleRequest, journal.WireDecode},
	MsgFDResp:        {"FDResp", roleResponse, journal.WireDecode},
	MsgBroadcast:     {"Broadcast", roleRequest, journal.LPMFloodApply},
	MsgBroadcastResp: {"BroadcastResp", roleResponse, journal.LPMFloodDone},
	MsgKernelEvent:   {"KernelEvent", roleEvent, journal.KernelEvent},
	MsgPing:          {"Ping", roleRequest, journal.WireDecode},
	MsgPong:          {"Pong", roleResponse, journal.WireDecode},
	MsgCCSUpdate:     {"CCSUpdate", roleRequest, journal.WireDecode},
	MsgError:         {"Error", roleResponse, journal.WireDecode},
	MsgRelay:         {"Relay", roleRequest, journal.LPMRelayForward},
	MsgRelayResp:     {"RelayResp", roleResponse, journal.LPMRelayForward},
	MsgWatch:         {"Watch", roleRequest, journal.WireDecode},
	MsgWatchResp:     {"WatchResp", roleResponse, journal.WireDecode},
	MsgStatusReq:     {"StatusReq", roleRequest, journal.StatusRequest},
	MsgStatusResp:    {"StatusResp", roleResponse, journal.StatusReport},
	MsgLinkTest:      {"LinkTest", roleRequest, journal.WireDecode},
	MsgLinkTestResp:  {"LinkTestResp", roleResponse, journal.WireDecode},
	MsgProcExit:      {"ProcExit", roleRequest, journal.LPMExitForward},
	MsgProcExitResp:  {"ProcExitResp", roleResponse, journal.LPMExitForward},
}

// msgNames maps each message type to its trace name, derived from the
// manifest. A fixed table instead of a map keeps String — called per
// encoded frame by the metrics accounting — off the allocator.
var msgNames = func() (t [len(opSpecs)]string) {
	for i, s := range opSpecs {
		t[i] = s.name
	}
	return t
}()

// OpJournalKind returns the flight-recorder kind under which t's
// effect is recorded — the manifest column that lets journal audits
// correlate a wire op with the records it should have produced. Ops
// outside the manifest map to the generic journal.WireDecode.
func OpJournalKind(t MsgType) journal.Kind {
	if int(t) < len(opSpecs) && opSpecs[t].kind != "" {
		return opSpecs[t].kind
	}
	return journal.WireDecode
}

// msgCounterNames precomputes the per-type metric counter names so the
// per-frame accounting in EncodeLoggedTo performs no string
// concatenation.
var msgCounterNames = func() (t [len(msgNames)]struct{ msgs, bytes string }) {
	for i, n := range msgNames {
		if n != "" {
			t[i] = struct{ msgs, bytes string }{"wire.msgs." + n, "wire.bytes." + n}
		}
	}
	return t
}()

// String returns the message type name for traces.
//
//ppmlint:hotpath pin=TestMsgTypeStringTable
func (t MsgType) String() string {
	if int(t) < len(msgNames) && msgNames[t] != "" {
		return msgNames[t]
	}
	//ppmlint:allow hotalloc cold fallback: only ops outside the manifest reach the formatter
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

// SetTrace stamps the envelope with a trace context given as raw IDs
// (the caller holds a trace.Context; wire stays decoupled from it).
func (ev *Envelope) SetTrace(traceID, spanID uint64) {
	ev.TraceID, ev.SpanID = traceID, spanID
}

// Trailer flags on an envelope frame. Trailers are optional typed
// extensions after the body: a flag byte naming the trailer followed by
// its fixed-size payload. Decoders that predate a trailer still parse
// the frame because Finish permits trailing bytes.
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
// size under the envelope's type name in reg's wire family
// ("wire.msgs.Hello", "wire.bytes.Hello", ...) and a wire.encode
// journal record tagged with the type, frame size and the envelope's
// own trace context on the host producing it. A nil registry or
// journal skips that half.
//
//ppmlint:hotpath pin=TestLoggedCodecZeroAllocs
func (ev Envelope) EncodeLoggedTo(e *Encoder, reg *metrics.Registry, jr *journal.Journal, host string) []byte {
	b := ev.EncodeTo(e)
	if reg != nil {
		if i := int(ev.Type); i < len(msgCounterNames) && msgCounterNames[i].msgs != "" {
			reg.Counter(msgCounterNames[i].msgs).Inc()
			reg.Counter(msgCounterNames[i].bytes).Add(uint64(len(b)))
		} else {
			name := ev.Type.String()
			//ppmlint:allow hotalloc cold fallback: only ops outside the manifest build their counter names
			reg.Counter("wire.msgs." + name).Inc()
			//ppmlint:allow hotalloc cold fallback: only ops outside the manifest build their counter names
			reg.Counter("wire.bytes." + name).Add(uint64(len(b)))
		}
	}
	jr.AppendDetail(journal.WireEncode, host, journal.WireFrame(ev.Type.String(), len(b)), ev.TraceID, ev.SpanID)
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
// before returning control (the typed Decode* functions copy every
// field they extract); a handler that defers work referencing the body
// must use DecodeEnvelope.
//
//ppmlint:hotpath pin=TestDecodeOpLessFrameZeroAllocs
func DecodeEnvelopeBorrow(b []byte) (Envelope, error) {
	d := Decoder{buf: b}
	var ev Envelope
	ev.Type = MsgType(d.U16())
	ev.ReqID = d.U64()
	ev.Body = d.Bytes32Borrow()
trailers:
	for d.Remaining() >= 9 {
		switch d.U8() {
		case opFlag:
			ev.OpID = d.U64()
		case traceFlag:
			if d.Remaining() < 16 {
				break trailers
			}
			ev.TraceID = d.U64()
			ev.SpanID = d.U64()
		default:
			break trailers // padding, or a trailer from the future
		}
	}
	if err := d.Finish(); err != nil {
		return Envelope{}, err
	}
	return ev, nil
}

// DecodeEnvelopeLogged is the receive side's one observation point:
// DecodeEnvelope plus a wire.decode journal record on the receiving
// host for every successfully parsed frame, tagged with the envelope
// type, frame size and the decoded trace context. A nil journal makes
// it DecodeEnvelope: the record itself costs no allocation, the body
// copy is DecodeEnvelope's.
//
//ppmlint:hotpath pin=TestLoggedCodecZeroAllocs
func DecodeEnvelopeLogged(b []byte, jr *journal.Journal, host string) (Envelope, error) {
	ev, err := DecodeEnvelope(b)
	if err == nil {
		jr.AppendDetail(journal.WireDecode, host, journal.WireFrame(ev.Type.String(), len(b)), ev.TraceID, ev.SpanID)
	}
	return ev, err
}

// --- shared field helpers ---

func putGPID(e *Encoder, g proc.GPID) {
	e.String(g.Host)
	e.I32(int32(g.PID))
}

func getGPID(d *Decoder) proc.GPID {
	return proc.GPID{Host: d.String(), PID: proc.PID(d.I32())}
}

func putRusage(e *Encoder, r proc.Rusage) {
	e.Duration(r.CPUTime)
	e.I64(r.Syscalls)
	e.I64(r.MsgsSent)
	e.I64(r.MsgsRecv)
	e.I64(r.MaxRSSKB)
}

func getRusage(d *Decoder) proc.Rusage {
	return proc.Rusage{
		CPUTime:  d.Duration(),
		Syscalls: d.I64(),
		MsgsSent: d.I64(),
		MsgsRecv: d.I64(),
		MaxRSSKB: d.I64(),
	}
}

func putInfo(e *Encoder, p proc.Info) {
	putGPID(e, p.ID)
	putGPID(e, p.Parent)
	e.String(p.Name)
	e.String(p.User)
	e.U8(uint8(p.State))
	putRusage(e, p.Rusage)
	e.I32(int32(p.ExitCode))
	e.Duration(p.StartedAt)
	e.Duration(p.ExitedAt)
}

func getInfo(d *Decoder) proc.Info {
	return proc.Info{
		ID:        getGPID(d),
		Parent:    getGPID(d),
		Name:      d.String(),
		User:      d.String(),
		State:     proc.State(d.U8()),
		Rusage:    getRusage(d),
		ExitCode:  int(d.I32()),
		StartedAt: d.Duration(),
		ExitedAt:  d.Duration(),
	}
}

// --- pmd protocol (Figure 2) ---

// LPMQuery asks the pmd for the user's LPM accept address, creating the
// LPM if none exists on the host.
type LPMQuery struct {
	User string
	// Token authenticates the requesting user to the pmd.
	Token []byte
}

// Encode serializes the query.
func (m LPMQuery) Encode() []byte {
	e := NewEncoder(32)
	e.String(m.User)
	e.Bytes32(m.Token)
	return e.Bytes()
}

// DecodeLPMQuery parses an LPMQuery body.
func DecodeLPMQuery(b []byte) (LPMQuery, error) {
	d := NewDecoder(b)
	m := LPMQuery{User: d.String(), Token: d.Bytes32()}
	return m, d.Finish()
}

// LPMQueryResp returns the accept address (step 4 of Figure 2).
type LPMQueryResp struct {
	OK         bool
	Reason     string
	AcceptHost string
	AcceptPort uint16
	Created    bool // true if the LPM was created by this request
}

// Encode serializes the response.
func (m LPMQueryResp) Encode() []byte {
	e := NewEncoder(32)
	e.Bool(m.OK)
	e.String(m.Reason)
	e.String(m.AcceptHost)
	e.U16(m.AcceptPort)
	e.Bool(m.Created)
	return e.Bytes()
}

// DecodeLPMQueryResp parses an LPMQueryResp body.
func DecodeLPMQueryResp(b []byte) (LPMQueryResp, error) {
	d := NewDecoder(b)
	m := LPMQueryResp{
		OK:         d.Bool(),
		Reason:     d.String(),
		AcceptHost: d.String(),
		AcceptPort: d.U16(),
		Created:    d.Bool(),
	}
	return m, d.Finish()
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

// Encode serializes the hello.
func (m Hello) Encode() []byte {
	e := NewEncoder(64)
	e.String(m.User)
	e.String(m.FromHost)
	e.Bytes32(m.Token)
	m.Stamp.encode(e)
	e.String(m.CCSHost)
	e.U16(m.CCSPort)
	e.U64(m.Inc)
	return e.Bytes()
}

// DecodeHello parses a Hello body.
func DecodeHello(b []byte) (Hello, error) {
	d := NewDecoder(b)
	m := Hello{User: d.String(), FromHost: d.String(), Token: d.Bytes32()}
	m.Stamp = decodeStamp(d)
	m.CCSHost = d.String()
	m.CCSPort = d.U16()
	m.Inc = d.U64()
	return m, d.Finish()
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

// Encode serializes the response.
func (m HelloResp) Encode() []byte {
	e := NewEncoder(16)
	e.Bool(m.OK)
	e.String(m.Reason)
	e.U64(m.Inc)
	return e.Bytes()
}

// DecodeHelloResp parses a HelloResp body.
func DecodeHelloResp(b []byte) (HelloResp, error) {
	d := NewDecoder(b)
	m := HelloResp{OK: d.Bool(), Reason: d.String()}
	m.Inc = d.U64()
	return m, d.Finish()
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

// Encode serializes the request.
func (m CreateProc) Encode() []byte {
	e := NewEncoder(48)
	e.String(m.User)
	e.String(m.Name)
	putGPID(e, m.Parent)
	e.Bool(m.Foreground)
	return e.Bytes()
}

// DecodeCreateProc parses a CreateProc body.
func DecodeCreateProc(b []byte) (CreateProc, error) {
	d := NewDecoder(b)
	m := CreateProc{User: d.String(), Name: d.String(), Parent: getGPID(d), Foreground: d.Bool()}
	return m, d.Finish()
}

// CreateAck is the lightweight acknowledgement sent right after
// fork+adopt succeed (exec continues asynchronously; its completion
// arrives as a kernel event).
type CreateAck struct {
	OK     bool
	Reason string
	ID     proc.GPID
}

// Encode serializes the ack.
func (m CreateAck) Encode() []byte {
	e := NewEncoder(32)
	e.Bool(m.OK)
	e.String(m.Reason)
	putGPID(e, m.ID)
	return e.Bytes()
}

// DecodeCreateAck parses a CreateAck body.
func DecodeCreateAck(b []byte) (CreateAck, error) {
	d := NewDecoder(b)
	m := CreateAck{OK: d.Bool(), Reason: d.String(), ID: getGPID(d)}
	return m, d.Finish()
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

// Encode serializes the request.
func (m Control) Encode() []byte {
	e := NewEncoder(32)
	e.String(m.User)
	putGPID(e, m.Target)
	e.U8(uint8(m.Op))
	e.I32(int32(m.Signal))
	return e.Bytes()
}

// DecodeControl parses a Control body.
func DecodeControl(b []byte) (Control, error) {
	d := NewDecoder(b)
	m := Control{User: d.String(), Target: getGPID(d), Op: ControlOp(d.U8()), Signal: proc.Signal(d.I32())}
	return m, d.Finish()
}

// ControlResp reports the outcome and the process's new state.
type ControlResp struct {
	OK     bool
	Reason string
	State  proc.State
}

// Encode serializes the response.
func (m ControlResp) Encode() []byte {
	e := NewEncoder(16)
	e.Bool(m.OK)
	e.String(m.Reason)
	e.U8(uint8(m.State))
	return e.Bytes()
}

// DecodeControlResp parses a ControlResp body.
func DecodeControlResp(b []byte) (ControlResp, error) {
	d := NewDecoder(b)
	m := ControlResp{OK: d.Bool(), Reason: d.String(), State: proc.State(d.U8())}
	return m, d.Finish()
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

// Encode serializes the request.
func (m SnapshotReq) Encode() []byte {
	e := NewEncoder(16)
	e.String(m.User)
	e.Bool(m.Forward)
	return e.Bytes()
}

// DecodeSnapshotReq parses a SnapshotReq body.
func DecodeSnapshotReq(b []byte) (SnapshotReq, error) {
	d := NewDecoder(b)
	m := SnapshotReq{User: d.String(), Forward: d.Bool()}
	return m, d.Finish()
}

// SnapshotResp carries per-process information fragments.
type SnapshotResp struct {
	OK      bool
	Reason  string
	Procs   []proc.Info
	Partial []string // hosts whose information is missing
}

// Encode serializes the response.
func (m SnapshotResp) Encode() []byte {
	e := NewEncoder(64 + 96*len(m.Procs))
	e.Bool(m.OK)
	e.String(m.Reason)
	e.U16(uint16(len(m.Procs)))
	for _, p := range m.Procs {
		putInfo(e, p)
	}
	e.StringSlice(m.Partial)
	return e.Bytes()
}

// DecodeSnapshotResp parses a SnapshotResp body.
func DecodeSnapshotResp(b []byte) (SnapshotResp, error) {
	d := NewDecoder(b)
	m := SnapshotResp{OK: d.Bool(), Reason: d.String()}
	n := int(d.U16())
	for i := 0; i < n && d.Err() == nil; i++ {
		m.Procs = append(m.Procs, getInfo(d))
	}
	m.Partial = d.StringSlice()
	return m, d.Finish()
}

// --- exited-process statistics ---

// StatsReq asks for the preserved resource-consumption record of a
// process (typically exited).
type StatsReq struct {
	User   string
	Target proc.GPID
}

// Encode serializes the request.
func (m StatsReq) Encode() []byte {
	e := NewEncoder(24)
	e.String(m.User)
	putGPID(e, m.Target)
	return e.Bytes()
}

// DecodeStatsReq parses a StatsReq body.
func DecodeStatsReq(b []byte) (StatsReq, error) {
	d := NewDecoder(b)
	m := StatsReq{User: d.String(), Target: getGPID(d)}
	return m, d.Finish()
}

// StatsResp returns the record.
type StatsResp struct {
	OK     bool
	Reason string
	Info   proc.Info
}

// Encode serializes the response.
func (m StatsResp) Encode() []byte {
	e := NewEncoder(128)
	e.Bool(m.OK)
	e.String(m.Reason)
	putInfo(e, m.Info)
	return e.Bytes()
}

// DecodeStatsResp parses a StatsResp body.
func DecodeStatsResp(b []byte) (StatsResp, error) {
	d := NewDecoder(b)
	m := StatsResp{OK: d.Bool(), Reason: d.String(), Info: getInfo(d)}
	return m, d.Finish()
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

// Encode serializes the request.
func (m HistoryReq) Encode() []byte {
	e := NewEncoder(48)
	e.String(m.User)
	putGPID(e, m.Proc)
	e.U16(uint16(len(m.Kinds)))
	for _, k := range m.Kinds {
		e.U8(k)
	}
	e.Duration(m.Since)
	e.U16(m.Limit)
	return e.Bytes()
}

// DecodeHistoryReq parses a HistoryReq body.
func DecodeHistoryReq(b []byte) (HistoryReq, error) {
	d := NewDecoder(b)
	m := HistoryReq{User: d.String(), Proc: getGPID(d)}
	n := int(d.U16())
	for i := 0; i < n && d.Err() == nil; i++ {
		m.Kinds = append(m.Kinds, d.U8())
	}
	m.Since = d.Duration()
	m.Limit = d.U16()
	return m, d.Finish()
}

// HistoryResp returns matching events.
type HistoryResp struct {
	OK     bool
	Reason string
	Events []proc.Event
}

// Encode serializes the response.
func (m HistoryResp) Encode() []byte {
	e := NewEncoder(32 + 64*len(m.Events))
	e.Bool(m.OK)
	e.String(m.Reason)
	e.U16(uint16(len(m.Events)))
	for _, ev := range m.Events {
		putEvent(e, ev)
	}
	return e.Bytes()
}

// DecodeHistoryResp parses a HistoryResp body.
func DecodeHistoryResp(b []byte) (HistoryResp, error) {
	d := NewDecoder(b)
	m := HistoryResp{OK: d.Bool(), Reason: d.String()}
	n := int(d.U16())
	for i := 0; i < n && d.Err() == nil; i++ {
		m.Events = append(m.Events, getEvent(d))
	}
	return m, d.Finish()
}

// --- open-descriptor display (a §7 future-work tool, implemented) ---

// FDReq asks for the open descriptors of a process.
type FDReq struct {
	User   string
	Target proc.GPID
}

// Encode serializes the request.
func (m FDReq) Encode() []byte {
	e := NewEncoder(24)
	e.String(m.User)
	putGPID(e, m.Target)
	return e.Bytes()
}

// DecodeFDReq parses an FDReq body.
func DecodeFDReq(b []byte) (FDReq, error) {
	d := NewDecoder(b)
	m := FDReq{User: d.String(), Target: getGPID(d)}
	return m, d.Finish()
}

// FDResp lists open descriptors as "fd:path" strings.
type FDResp struct {
	OK     bool
	Reason string
	Open   []string
}

// Encode serializes the response.
func (m FDResp) Encode() []byte {
	e := NewEncoder(32)
	e.Bool(m.OK)
	e.String(m.Reason)
	e.StringSlice(m.Open)
	return e.Bytes()
}

// DecodeFDResp parses an FDResp body.
func DecodeFDResp(b []byte) (FDResp, error) {
	d := NewDecoder(b)
	m := FDResp{OK: d.Bool(), Reason: d.String(), Open: d.StringSlice()}
	return m, d.Finish()
}

// --- broadcast (graph covering, §4) ---

// Broadcast is the flooding envelope for requests that must reach all
// sibling LPMs over the low-connectivity circuit graph. Dedup is by the
// signed stamp (origin host + origin time + sequence); the route
// accumulates the hosts traversed so replies can be source-routed back.
type Broadcast struct {
	Stamp Stamp
	Seq   uint64
	Route []string
	Inner []byte // the encoded inner envelope
}

// Encode serializes the broadcast envelope.
func (m Broadcast) Encode() []byte {
	e := NewEncoder(96 + len(m.Inner))
	m.Stamp.encode(e)
	e.U64(m.Seq)
	e.StringSlice(m.Route)
	e.Bytes32(m.Inner)
	return e.Bytes()
}

// DecodeBroadcast parses a Broadcast body.
func DecodeBroadcast(b []byte) (Broadcast, error) {
	d := NewDecoder(b)
	m := Broadcast{Stamp: decodeStamp(d), Seq: d.U64(), Route: d.StringSlice(), Inner: d.Bytes32()}
	return m, d.Finish()
}

// BroadcastResp carries a reply back along the recorded route.
type BroadcastResp struct {
	Seq   uint64
	From  string
	Route []string // remaining route back to the originator
	Inner []byte
}

// Encode serializes the broadcast reply.
func (m BroadcastResp) Encode() []byte {
	e := NewEncoder(64 + len(m.Inner))
	e.U64(m.Seq)
	e.String(m.From)
	e.StringSlice(m.Route)
	e.Bytes32(m.Inner)
	return e.Bytes()
}

// DecodeBroadcastResp parses a BroadcastResp body.
func DecodeBroadcastResp(b []byte) (BroadcastResp, error) {
	d := NewDecoder(b)
	m := BroadcastResp{Seq: d.U64(), From: d.String(), Route: d.StringSlice(), Inner: d.Bytes32()}
	return m, d.Finish()
}

// --- kernel event message (112 bytes) ---

func putEvent(e *Encoder, ev proc.Event) {
	e.Duration(ev.At)
	e.U8(uint8(ev.Kind))
	putGPID(e, ev.Proc)
	putGPID(e, ev.Child)
	e.I32(int32(ev.Signal))
	e.String(ev.Detail)
	putRusage(e, ev.Rusage)
}

func getEvent(d *Decoder) proc.Event {
	return proc.Event{
		At:     d.Duration(),
		Kind:   proc.EventKind(d.U8()),
		Proc:   getGPID(d),
		Child:  getGPID(d),
		Signal: proc.Signal(d.I32()),
		Detail: d.String(),
		Rusage: getRusage(d),
	}
}

// EncodeKernelEvent produces the fixed-size 112-byte kernel-to-LPM
// event message of the paper's Table 1. Long host names or details are
// truncated to keep the size fixed.
func EncodeKernelEvent(ev proc.Event) []byte {
	if len(ev.Detail) > 16 {
		ev.Detail = ev.Detail[:16]
	}
	if len(ev.Proc.Host) > 14 {
		ev.Proc.Host = ev.Proc.Host[:14]
	}
	if len(ev.Child.Host) > 14 {
		ev.Child.Host = ev.Child.Host[:14]
	}
	e := NewEncoder(calib.KernelMsgBytes)
	putEvent(e, ev)
	e.Pad(calib.KernelMsgBytes)
	b := e.Bytes()
	if len(b) > calib.KernelMsgBytes {
		b = b[:calib.KernelMsgBytes]
	}
	return b
}

// DecodeKernelEvent parses a kernel event message.
func DecodeKernelEvent(b []byte) (proc.Event, error) {
	d := NewDecoder(b)
	ev := getEvent(d)
	if err := d.Finish(); err != nil {
		return proc.Event{}, err
	}
	return ev, nil
}

// --- liveness / recovery ---

// Ping probes a sibling or a candidate CCS.
type Ping struct {
	FromHost string
	User     string
}

// Encode serializes the ping.
func (m Ping) Encode() []byte {
	e := NewEncoder(24)
	e.String(m.FromHost)
	e.String(m.User)
	return e.Bytes()
}

// DecodePing parses a Ping body.
func DecodePing(b []byte) (Ping, error) {
	d := NewDecoder(b)
	m := Ping{FromHost: d.String(), User: d.String()}
	return m, d.Finish()
}

// Pong answers a ping, reporting the responder's current CCS.
type Pong struct {
	FromHost string
	CCSHost  string
	CCSPort  uint16
	IsCCS    bool
}

// Encode serializes the pong.
func (m Pong) Encode() []byte {
	e := NewEncoder(24)
	e.String(m.FromHost)
	e.String(m.CCSHost)
	e.U16(m.CCSPort)
	e.Bool(m.IsCCS)
	return e.Bytes()
}

// DecodePong parses a Pong body.
func DecodePong(b []byte) (Pong, error) {
	d := NewDecoder(b)
	m := Pong{FromHost: d.String(), CCSHost: d.String(), CCSPort: d.U16(), IsCCS: d.Bool()}
	return m, d.Finish()
}

// --- live introspection ---

// StatusReq asks a sibling LPM for its host's live status report. The
// sweep id names the origin's gather for journal correlation; the op is
// read-only and carries no at-most-once identity.
type StatusReq struct {
	User  string
	Sweep string
}

// Encode serializes the request.
func (m StatusReq) Encode() []byte {
	e := NewEncoder(24)
	e.String(m.User)
	e.String(m.Sweep)
	return e.Bytes()
}

// DecodeStatusReq parses a StatusReq body.
func DecodeStatusReq(b []byte) (StatusReq, error) {
	d := NewDecoder(b)
	m := StatusReq{User: d.String(), Sweep: d.String()}
	return m, d.Finish()
}

// StatusResp carries one host's status report, pre-encoded by
// internal/status (the wire layer stays ignorant of the report schema).
type StatusResp struct {
	OK     bool
	Reason string
	Report []byte
}

// Encode serializes the response.
func (m StatusResp) Encode() []byte {
	e := NewEncoder(16 + len(m.Report))
	e.Bool(m.OK)
	e.String(m.Reason)
	e.Bytes32(m.Report)
	return e.Bytes()
}

// DecodeStatusResp parses a StatusResp body.
func DecodeStatusResp(b []byte) (StatusResp, error) {
	d := NewDecoder(b)
	m := StatusResp{OK: d.Bool(), Reason: d.String(), Report: d.Bytes32()}
	return m, d.Finish()
}

// CCSUpdate announces a new crash coordinator site to a sibling.
type CCSUpdate struct {
	CCSHost string
	CCSPort uint16
}

// Encode serializes the update.
func (m CCSUpdate) Encode() []byte {
	e := NewEncoder(16)
	e.String(m.CCSHost)
	e.U16(m.CCSPort)
	return e.Bytes()
}

// DecodeCCSUpdate parses a CCSUpdate body.
func DecodeCCSUpdate(b []byte) (CCSUpdate, error) {
	d := NewDecoder(b)
	m := CCSUpdate{CCSHost: d.String(), CCSPort: d.U16()}
	return m, d.Finish()
}

// --- error reply ---

// ErrorResp is the generic failure reply the dispatcher returns when a
// handler reports that a remote request cannot be completed.
type ErrorResp struct {
	Reason string
}

// Encode serializes the failure reply.
func (m ErrorResp) Encode() []byte {
	e := NewEncoder(16)
	e.String(m.Reason)
	return e.Bytes()
}

// DecodeErrorResp parses an ErrorResp body.
func DecodeErrorResp(b []byte) (ErrorResp, error) {
	d := NewDecoder(b)
	m := ErrorResp{Reason: d.String()}
	return m, d.Finish()
}

// --- flood aggregation ---

// FloodResult is the aggregate a node returns to its broadcast parent
// in the graph-covering echo: snapshot fragments and/or control counts
// collected from the subtree it covered, plus the hosts it failed to
// reach. A duplicate arrival (cycle in the circuit graph) is answered
// with Dup set and no data.
type FloodResult struct {
	OK      bool
	Dup     bool
	Count   int32 // processes affected by a control-all flood
	Procs   []proc.Info
	Partial []string
	// Hosts lists every host whose LPM contributed to this aggregate,
	// so the originator can tell covered hosts from silent ones.
	Hosts []string
	// Routes[i] is the circuit path from the originator to Hosts[i],
	// hosts separated by '/'. The originator learns relay routes to
	// topologically distant hosts from these.
	Routes []string
}

// Encode serializes the flood result.
func (m FloodResult) Encode() []byte {
	e := NewEncoder(32 + 96*len(m.Procs))
	e.Bool(m.OK)
	e.Bool(m.Dup)
	e.I32(m.Count)
	e.U16(uint16(len(m.Procs)))
	for _, p := range m.Procs {
		putInfo(e, p)
	}
	e.StringSlice(m.Partial)
	e.StringSlice(m.Hosts)
	e.StringSlice(m.Routes)
	return e.Bytes()
}

// DecodeFloodResult parses a FloodResult body.
func DecodeFloodResult(b []byte) (FloodResult, error) {
	d := NewDecoder(b)
	m := FloodResult{OK: d.Bool(), Dup: d.Bool(), Count: d.I32()}
	n := int(d.U16())
	for i := 0; i < n && d.Err() == nil; i++ {
		m.Procs = append(m.Procs, getInfo(d))
	}
	m.Partial = d.StringSlice()
	m.Hosts = d.StringSlice()
	m.Routes = d.StringSlice()
	return m, d.Finish()
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

// Encode serializes the relay request.
func (m Relay) Encode() []byte {
	e := NewEncoder(64 + len(m.Inner))
	e.String(m.User)
	e.String(m.Dest)
	e.StringSlice(m.Path)
	e.Bytes32(m.Inner)
	return e.Bytes()
}

// DecodeRelay parses a Relay body.
func DecodeRelay(b []byte) (Relay, error) {
	d := NewDecoder(b)
	m := Relay{User: d.String(), Dest: d.String(), Path: d.StringSlice(), Inner: d.Bytes32()}
	return m, d.Finish()
}

// RelayResp carries the destination's response back to the origin.
type RelayResp struct {
	OK     bool
	Reason string
	Inner  []byte // encoded inner response envelope
}

// Encode serializes the relay response.
func (m RelayResp) Encode() []byte {
	e := NewEncoder(32 + len(m.Inner))
	e.Bool(m.OK)
	e.String(m.Reason)
	e.Bytes32(m.Inner)
	return e.Bytes()
}

// DecodeRelayResp parses a RelayResp body.
func DecodeRelayResp(b []byte) (RelayResp, error) {
	d := NewDecoder(b)
	m := RelayResp{OK: d.Bool(), Reason: d.String(), Inner: d.Bytes32()}
	return m, d.Finish()
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

// Encode serializes the watch request.
func (m WatchReq) Encode() []byte {
	e := NewEncoder(64)
	e.String(m.User)
	e.Bool(m.Remove)
	e.I32(m.ID)
	e.U8(m.Kind)
	e.I32(int32(m.Signal))
	putGPID(e, m.Proc)
	e.U8(uint8(m.Op))
	e.I32(int32(m.ActionSig))
	putGPID(e, m.Target)
	return e.Bytes()
}

// DecodeWatchReq parses a WatchReq body.
func DecodeWatchReq(b []byte) (WatchReq, error) {
	d := NewDecoder(b)
	m := WatchReq{
		User:   d.String(),
		Remove: d.Bool(),
		ID:     d.I32(),
		Kind:   d.U8(),
		Signal: proc.Signal(d.I32()),
		Proc:   getGPID(d),
		Op:     ControlOp(d.U8()),
	}
	m.ActionSig = proc.Signal(d.I32())
	m.Target = getGPID(d)
	return m, d.Finish()
}

// WatchResp acknowledges a watch installation or removal.
type WatchResp struct {
	OK     bool
	Reason string
	ID     int32
}

// Encode serializes the response.
func (m WatchResp) Encode() []byte {
	e := NewEncoder(16)
	e.Bool(m.OK)
	e.String(m.Reason)
	e.I32(m.ID)
	return e.Bytes()
}

// DecodeWatchResp parses a WatchResp body.
func DecodeWatchResp(b []byte) (WatchResp, error) {
	d := NewDecoder(b)
	m := WatchResp{OK: d.Bool(), Reason: d.String(), ID: d.I32()}
	return m, d.Finish()
}

// --- adaptive failure detection ---

// LinkTest is the periodic heartbeat frame the circuit layer sends so
// the accrual failure detector sees a steady inter-arrival stream even
// on an otherwise idle circuit. Seq increments per circuit.
type LinkTest struct {
	FromHost string
	Seq      uint64
}

// Encode serializes the linktest frame.
func (m LinkTest) Encode() []byte {
	e := NewEncoder(24)
	e.String(m.FromHost)
	e.U64(m.Seq)
	return e.Bytes()
}

// DecodeLinkTest parses a LinkTest body.
func DecodeLinkTest(b []byte) (LinkTest, error) {
	d := NewDecoder(b)
	m := LinkTest{FromHost: d.String(), Seq: d.U64()}
	return m, d.Finish()
}

// LinkTestResp echoes a linktest; its arrival is itself a detector
// sample for the requesting side.
type LinkTestResp struct {
	FromHost string
	Seq      uint64
}

// Encode serializes the linktest reply.
func (m LinkTestResp) Encode() []byte {
	e := NewEncoder(24)
	e.String(m.FromHost)
	e.U64(m.Seq)
	return e.Bytes()
}

// DecodeLinkTestResp parses a LinkTestResp body.
func DecodeLinkTestResp(b []byte) (LinkTestResp, error) {
	d := NewDecoder(b)
	m := LinkTestResp{FromHost: d.String(), Seq: d.U64()}
	return m, d.Finish()
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

// Encode serializes the exit notification.
func (m ProcExit) Encode() []byte {
	e := NewEncoder(192)
	e.String(m.User)
	putEvent(e, m.Event)
	putInfo(e, m.Info)
	return e.Bytes()
}

// DecodeProcExit parses a ProcExit body.
func DecodeProcExit(b []byte) (ProcExit, error) {
	d := NewDecoder(b)
	m := ProcExit{User: d.String(), Event: getEvent(d), Info: getInfo(d)}
	return m, d.Finish()
}

// ProcExitResp acknowledges an exit notification.
type ProcExitResp struct {
	OK     bool
	Reason string
}

// Encode serializes the response.
func (m ProcExitResp) Encode() []byte {
	e := NewEncoder(16)
	e.Bool(m.OK)
	e.String(m.Reason)
	return e.Bytes()
}

// DecodeProcExitResp parses a ProcExitResp body.
func DecodeProcExitResp(b []byte) (ProcExitResp, error) {
	d := NewDecoder(b)
	m := ProcExitResp{OK: d.Bool(), Reason: d.String()}
	return m, d.Finish()
}
