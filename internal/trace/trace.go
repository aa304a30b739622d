// Package trace is the causal-tracing subsystem: spans with
// virtual-time start/end instants, deterministic IDs, and parent links
// that cross machine boundaries by riding inside wire envelopes.
//
// The paper's Section 7 promises "selectable-granularity event tracing"
// feeding data-reduction and display tools. Where internal/metrics
// (PR 1) answers "how many, how often" with installation-wide
// aggregates, this package answers "where did the time of THIS
// operation go": every instrumented layer opens a span against the
// context it was handed, the contexts are serialized into the optional
// trailer of wire.Envelope, and the cluster-side buffer reassembles the
// spans of one client operation into a single cross-host tree.
//
// Determinism mirrors the metrics registry: IDs come from per-tracer
// counters (no randomness, no wall clock), spans are recorded in
// creation order, and tree children are ordered by (start, ID), so two
// identically seeded runs render byte-identical reports.
//
// Tracing is opt-in per operation. A disabled tracer hands out nil
// *Span handles and invalid Contexts; every method is safe on a nil
// receiver and a nil handle, so instrumented code never branches on
// whether tracing is on. Untraced traffic pays exactly one flag
// comparison and zero extra wire bytes.
package trace

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"
)

// Context names a position in a trace: the trace it belongs to and the
// span that is the parent of whatever happens next. The zero Context is
// "not traced"; it is what crosses machine boundaries inside envelopes.
type Context struct {
	Trace uint64
	Span  uint64
}

// Valid reports whether the context belongs to a real trace.
func (c Context) Valid() bool { return c.Trace != 0 }

// SpanData is one recorded span. End == Start until the span is ended.
// Ends counts EndAt calls, so post-hoc analysis (journal.AuditWithSpans,
// internal/profile) can tell a zero-length span (Ends == 1) from one
// left open on an error path (Ends == 0) or double-closed (Ends > 1).
type SpanData struct {
	ID     uint64
	Trace  uint64
	Parent uint64 // 0 for a trace root
	Host   string
	Name   string
	Start  time.Duration // virtual time since the simulation epoch
	End    time.Duration
	Ends   int
}

// Closed reports whether the span was ended exactly once.
func (s SpanData) Closed() bool { return s.Ends == 1 }

// DefaultMaxSpans bounds the span buffer. One Table 2 cell is a few
// dozen spans; the cap only matters if an operation loops wildly.
const DefaultMaxSpans = 4096

// Tracer owns the span buffer of one cluster. All hosts of a simulated
// cluster share one Tracer (the simulation is single-goroutine), which
// is what lets a "distributed" trace assemble without a collection
// protocol: the buffer plays the role of the per-host trace files that
// the paper's data-reduction tools would gather.
type Tracer struct {
	now       func() time.Duration
	enabled   bool
	nextTrace uint64
	nextSpan  uint64
	spans     []SpanData
	index     *Index // the last index handed out; it reads spans, so EndAt copies them first
	active    Context
	maxSpans  int
	dropped   uint64
	handles   []Span // the slab chunk record carves span handles from
	refill    int    // the length the last Reset dropped: with a sixteenth more, the next table's size
}

// New returns a Tracer that reads virtual time from now. The tracer
// starts disabled.
func New(now func() time.Duration) *Tracer {
	return &Tracer{now: now, maxSpans: DefaultMaxSpans}
}

// Enable turns span recording on. Safe on nil.
func (t *Tracer) Enable() {
	if t != nil {
		t.enabled = true
	}
}

// Disable turns span recording off and clears the active context.
// Spans already recorded stay in the buffer. Safe on nil.
func (t *Tracer) Disable() {
	if t != nil {
		t.enabled = false
		t.active = Context{}
	}
}

// Enabled reports whether StartTrace will record. Safe on nil.
func (t *Tracer) Enabled() bool { return t != nil && t.enabled }

// SetMaxSpans changes the span-buffer cap.
func (t *Tracer) SetMaxSpans(n int) {
	if t != nil && n > 0 {
		t.maxSpans = n
	}
}

// Span is a handle to an open span. A nil *Span is a valid no-op
// handle: End does nothing and Context returns the invalid Context, so
// instrumentation downstream of a disabled tracer no-ops transitively.
// A handle opened before a Reset stays valid but inert: ending it
// changes nothing.
type Span struct {
	t   *Tracer
	idx int
	ctx Context
}

// Context returns the context that children of this span should use.
func (s *Span) Context() Context {
	if s == nil {
		return Context{}
	}
	return s.ctx
}

// End closes the span at the current virtual time.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.EndAt(s.t.now())
}

// EndAt closes the span at an explicit instant (used when the closing
// time is computed rather than observed, e.g. per-hop transit spans).
func (s *Span) EndAt(at time.Duration) {
	if s == nil || s.idx >= len(s.t.spans) || s.t.spans[s.idx].ID != s.ctx.Span {
		return // the span went with a Reset; its slot is empty or another span's
	}
	if t := s.t; t.index != nil && s.idx < len(t.index.Spans) {
		t.spans, t.index = append(make([]SpanData, 0, cap(t.spans)), t.spans...), nil
	}
	s.t.spans[s.idx].End = at
	s.t.spans[s.idx].Ends++
}

// StartTrace opens a new trace rooted at a fresh span on host. It
// returns nil when the tracer is nil or disabled — the root handle's
// invalid Context then silences all downstream instrumentation.
func (t *Tracer) StartTrace(host, name string) *Span {
	if t == nil || !t.enabled {
		return nil
	}
	t.nextTrace++
	return t.record(t.nextTrace, 0, host, name, t.now())
}

// StartSpan opens a child span under parent. It returns nil when the
// parent context is invalid, which is how untraced paths stay free.
func (t *Tracer) StartSpan(host, name string, parent Context) *Span {
	if t == nil || !parent.Valid() {
		return nil
	}
	return t.record(parent.Trace, parent.Span, host, name, t.now())
}

// AddSpan records a fully-formed span whose start and end are both
// already known (per-hop network transit, whose schedule is computed at
// send time).
func (t *Tracer) AddSpan(host, name string, parent Context, start, end time.Duration) {
	if t == nil || !parent.Valid() {
		return
	}
	if sp := t.record(parent.Trace, parent.Span, host, name, start); sp != nil {
		sp.EndAt(end)
	}
}

func (t *Tracer) record(traceID, parent uint64, host, name string, start time.Duration) *Span {
	if len(t.spans) >= t.maxSpans {
		t.dropped++
		return nil
	}
	if t.spans == nil && t.refill > 0 {
		t.spans = make([]SpanData, 0, min(t.refill+t.refill/16, t.maxSpans))
	}
	t.nextSpan++
	id := t.nextSpan
	t.spans = append(t.spans, SpanData{
		ID: id, Trace: traceID, Parent: parent,
		Host: host, Name: name, Start: start, End: start,
	})
	if len(t.handles) == cap(t.handles) { // a full chunk is left to the handles in it
		t.handles = make([]Span, 0, 256)
	}
	t.handles = append(t.handles, Span{t: t, idx: len(t.spans) - 1, ctx: Context{Trace: traceID, Span: id}})
	return &t.handles[len(t.handles)-1]
}

// Exchange installs ctx as the active context and returns the previous
// one. The active context is how layers that cannot be handed a
// Context parameter (the kernel's event emission, reached through
// syscall-shaped interfaces) discover the operation in progress: the
// instrumented caller wraps the kernel-op region in
// Exchange(ctx)/Exchange(old). Single-goroutine simulation makes this
// safe; it is the moral equivalent of a per-process trace flag.
func (t *Tracer) Exchange(ctx Context) Context {
	if t == nil {
		return Context{}
	}
	old := t.active
	t.active = ctx
	return old
}

// Active returns the current active context. Safe on nil.
func (t *Tracer) Active() Context {
	if t == nil {
		return Context{}
	}
	return t.active
}

// LastTrace returns the ID of the most recently started trace (0 if none).
func (t *Tracer) LastTrace() uint64 {
	if t == nil {
		return 0
	}
	return t.nextTrace
}

// Dropped returns how many spans were discarded to the buffer cap.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// Spans returns a copy of the buffer in creation order.
func (t *Tracer) Spans() []SpanData {
	if t == nil {
		return nil
	}
	return slices.Clone(t.spans)
}

var empty Index

// Index returns the buffer's index, built once per state of the buffer
// and shared by its readers. Spans recorded later land past its length,
// and a span ended later ends in a copy, so the index stays a snapshot.
func (t *Tracer) Index() *Index {
	switch {
	case t == nil || len(t.spans) == 0:
		return &empty // so an empty table's readers allocate nothing
	case t.index == nil || len(t.index.Spans) != len(t.spans):
		t.index = NewIndex(t.spans)
	}
	return t.index
}

// Reset discards all recorded spans and the drop counter. ID counters
// keep counting so contexts from before a Reset can never collide with
// new spans. The next table is made at this one's length plus a sixteenth.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.spans, t.refill, t.index = nil, len(t.spans), nil
	t.dropped = 0
	t.active = Context{}
}

// ---------------------------------------------------------------------
// Tree assembly and rendering.
// ---------------------------------------------------------------------

// Report renders one trace as a waterfall: each line is a span with its
// start and end in virtual milliseconds relative to the trace root,
// indented by tree depth. Children are ordered by (Start, ID), so the
// rendering is deterministic. A span whose parent is not an earlier span
// of its trace (dropped at the cap, or named by a decoded context but not
// yet issued) renders as an extra root rather than disappearing.
func (t *Tracer) Report(traceID uint64) string {
	if k, ok := t.Index().Find(traceID); ok {
		return t.render(k, k+1)
	}
	return fmt.Sprintf("trace %d: no spans\n", traceID)
}

// ReportAll renders every recorded trace in ID order.
func (t *Tracer) ReportAll() string {
	if n := len(t.Index().Traces()); n > 0 {
		return t.render(0, n)
	}
	return "no traces recorded\n"
}

// render renders the index's traces lo to hi through one scratch line into
// a builder grown once to a bound on the text: a host count fits in the span
// count's digits, a dropped line in 51 bytes, a wide instant's line in 16 more.
func (t *Tracer) render(lo, hi int) string {
	x := t.Index()
	var scratch [256]byte
	line, size := scratch[:0], 51*(hi-lo)*int(min(t.dropped, 1))
	for k := lo; k < hi; k++ {
		root, n := &x.Spans[x.Roots(k)[0]], int64(len(x.SpansOf(k)))
		size += 71 + len(root.Name) + len(strconv.AppendUint(line, x.Traces()[k], 10)) + 2*len(strconv.AppendInt(line, n, 10))
		for _, p := range x.SpansOf(k) {
			s := &x.Spans[p]
			size += 33 + len(s.Host) - min(8, utf8.RuneCountInString(s.Host)) + 2*x.Depth(p) + len(s.Name)
			if a, b := s.Start-root.Start, s.End-root.Start; min(a, b) <= -99999*time.Millisecond || max(a, b) >= 999999*time.Millisecond {
				size += 16
			}
		}
	}
	var b strings.Builder
	b.Grow(size)
	var hosts []string
	for k := lo; k < hi; k++ {
		hosts = hosts[:0]
		for _, p := range x.SpansOf(k) {
			hosts = append(hosts, x.Spans[p].Host)
		}
		slices.Sort(hosts)
		roots := x.Roots(k)
		root := &x.Spans[roots[0]]
		line = strconv.AppendUint(append(line[:0], "=== trace "...), x.Traces()[k], 10)
		line = append(append(append(line, ": "...), root.Name...), " ("...)
		line = strconv.AppendInt(line, int64(len(x.SpansOf(k))), 10)
		line = strconv.AppendInt(append(line, " spans, "...), int64(len(slices.Compact(hosts))), 10)
		b.Write(append(line, " hosts) ===\n  start ms     end ms  host     span\n"...))
		for _, r := range roots {
			line = writeSpan(&b, line, x, r, root.Start)
		}
		if t.dropped > 0 {
			b.Write(append(strconv.AppendUint(append(line[:0], '('), t.dropped, 10), " spans dropped at buffer cap)\n"...))
		}
	}
	return b.String()
}

// writeSpan writes span p's line, rendered into line, then its
// subtree's: what fmt's "%10.3f %10.3f  %-8s %s%s\n" made of its window
// relative to base, its host (padded by runes, as %-8s pads), indent and name.
func writeSpan(b *strings.Builder, line []byte, x *Index, p int32, base time.Duration) []byte {
	s := &x.Spans[p]
	line = append(appendMs(append(appendMs(line[:0], s.Start-base), ' '), s.End-base), "  "...)
	line = append(append(line, s.Host...), "         "[min(8, utf8.RuneCountInString(s.Host)):]...)
	for d := x.Depth(p); d > 0; d-- {
		line = append(line, "  "...)
	}
	line = append(append(line, s.Name...), '\n')
	b.Write(line)
	for _, c := range x.Children(p) {
		line = writeSpan(b, line, x, c, base)
	}
	return line
}

// appendMs appends d in milliseconds as fmt's %10.3f does.
func appendMs(b []byte, d time.Duration) []byte {
	var buf [24]byte
	num := strconv.AppendFloat(buf[:0], float64(d)/float64(time.Millisecond), 'f', 3, 64)
	return append(append(b, "          "[min(10, len(num)):]...), num...)
}
