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
	"strings"
	"time"

	"ppm/internal/detord"
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
	active    Context
	maxSpans  int
	dropped   uint64
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
	if s == nil {
		return
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
	t.nextSpan++
	id := t.nextSpan
	t.spans = append(t.spans, SpanData{
		ID: id, Trace: traceID, Parent: parent,
		Host: host, Name: name, Start: start, End: start,
	})
	return &Span{t: t, idx: len(t.spans) - 1, ctx: Context{Trace: traceID, Span: id}}
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

// LastTrace returns the ID of the most recently started trace (0 if
// none).
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
	out := make([]SpanData, len(t.spans))
	copy(out, t.spans)
	return out
}

// SpansOf returns the spans of one trace in creation order.
func (t *Tracer) SpansOf(traceID uint64) []SpanData {
	if t == nil {
		return nil
	}
	var out []SpanData
	for _, s := range t.spans {
		if s.Trace == traceID {
			out = append(out, s)
		}
	}
	return out
}

// Reset discards all recorded spans and the drop counter. ID counters
// keep counting so contexts from before a Reset can never collide with
// new spans.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.spans = nil
	t.dropped = 0
	t.active = Context{}
}

// ---------------------------------------------------------------------
// Tree assembly and rendering.
// ---------------------------------------------------------------------

// Report renders one trace as a waterfall: each line is a span with its
// start and end in virtual milliseconds relative to the trace root,
// indented by tree depth. Children are ordered by (Start, ID), so the
// rendering is deterministic. Spans whose parent was dropped (buffer
// cap) render as extra roots rather than disappearing.
func (t *Tracer) Report(traceID uint64) string {
	return t.report(traceID, t.SpansOf(traceID))
}

// report renders the spans of one trace (in creation order).
func (t *Tracer) report(traceID uint64, spans []SpanData) string {
	if len(spans) == 0 {
		return fmt.Sprintf("trace %d: no spans\n", traceID)
	}
	present := make(map[uint64]bool, len(spans))
	for _, s := range spans {
		present[s.ID] = true
	}
	children := make(map[uint64][]SpanData)
	var roots []SpanData
	hosts := make(map[string]bool)
	for _, s := range spans {
		hosts[s.Host] = true
		if s.Parent == 0 || !present[s.Parent] {
			roots = append(roots, s)
		} else {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byStartID := func(ss []SpanData) {
		detord.SortBy2(ss,
			func(s SpanData) time.Duration { return s.Start },
			func(s SpanData) uint64 { return s.ID })
	}
	byStartID(roots)
	for _, ss := range children {
		byStartID(ss)
	}
	base := roots[0].Start
	var b strings.Builder
	fmt.Fprintf(&b, "=== trace %d: %s (%d spans, %d hosts) ===\n",
		traceID, roots[0].Name, len(spans), len(hosts))
	fmt.Fprintf(&b, "%10s %10s  %-8s %s\n", "start ms", "end ms", "host", "span")
	ms := func(d time.Duration) float64 { return float64(d-base) / float64(time.Millisecond) }
	var walk func(s SpanData, depth int)
	walk = func(s SpanData, depth int) {
		fmt.Fprintf(&b, "%10.3f %10.3f  %-8s %s%s\n",
			ms(s.Start), ms(s.End), s.Host, strings.Repeat("  ", depth), s.Name)
		for _, c := range children[s.ID] {
			walk(c, depth+1)
		}
	}
	for _, r := range roots {
		walk(r, 0)
	}
	if t != nil && t.dropped > 0 {
		fmt.Fprintf(&b, "(%d spans dropped at buffer cap)\n", t.dropped)
	}
	return b.String()
}

// ReportAll renders every recorded trace in ID order.
func (t *Tracer) ReportAll() string {
	if t == nil || len(t.spans) == 0 {
		return "no traces recorded\n"
	}
	// One pass groups the buffer by trace; rescanning it per trace made
	// the report quadratic in the number of traces.
	byTrace := make(map[uint64][]SpanData)
	for _, s := range t.spans {
		byTrace[s.Trace] = append(byTrace[s.Trace], s)
	}
	var b strings.Builder
	for _, id := range detord.Keys(byTrace) {
		b.WriteString(t.report(id, byTrace[id]))
	}
	return b.String()
}
