package journal

import (
	"strings"

	"ppm/internal/metrics"
	"ppm/internal/trace"
)

// Recorder is the installation's one observation point. It holds the
// cluster's metrics registry, tracer and journal — any of them may be
// nil — and owns the decision kindTable states: a fact of some kind is
// one bump of the kind's paired counter and one journal record, made
// together so the two can never disagree. Every layer is handed the one
// Recorder its cluster built and states each fact to it once. A nil
// *Recorder is valid and inert, so a bare layer needs no wiring.
type Recorder struct {
	reg     *metrics.Registry
	tracer  *trace.Tracer
	journal *Journal

	// The handle cache: each paired counter is looked up by name once,
	// when it first fires, so a counter nothing bumped stays out of the
	// report. byKind serves the plain rows, byToken the "*" rows (one
	// handle per kind and first detail token seen), extra the callers'
	// own counters (Handle). All are sized so that an installation's
	// recorder is built once and never grows: the "*" rows fire under
	// two transports each and ten event kinds, wire has under sixty-four
	// message types.
	byKind  [numKinds]*metrics.Counter
	byToken []tokenCounter
	extra   [128]*metrics.Counter
}

type tokenCounter struct {
	kind  Kind
	token string
	c     *metrics.Counter
}

// NewRecorder returns the recorder of one installation.
func NewRecorder(reg *metrics.Registry, tracer *trace.Tracer, j *Journal) *Recorder {
	return &Recorder{reg: reg, tracer: tracer, journal: j, byToken: make([]tokenCounter, 0, 16)}
}

// Metrics returns the installation's registry (possibly nil; all
// registry methods tolerate that), for what a layer counts on its own.
func (r *Recorder) Metrics() *metrics.Registry {
	if r == nil {
		return nil
	}
	return r.reg
}

// Tracer returns the installation's tracer (possibly nil; all tracer
// methods tolerate that).
func (r *Recorder) Tracer() *trace.Tracer {
	if r == nil {
		return nil
	}
	return r.tracer
}

// Journal returns the installation's journal (possibly nil; all journal
// methods tolerate that).
func (r *Recorder) Journal() *Journal {
	if r == nil {
		return nil
	}
	return r.journal
}

// Record states one fact: it bumps the counter kindTable pairs with
// kind — for a "*" row, the one named by d's first token — and appends
// the record on host under ctx. d is handed over as data, so a wired
// registry and journal cost a fact no allocation.
//
//ppmlint:hotpath pin=TestRecordZeroAllocs
func (r *Recorder) Record(kind Kind, host string, ctx trace.Context, d Detail) {
	if r == nil {
		return
	}
	if r.reg != nil {
		r.counter(kind, &d).Inc()
	}
	r.journal.AppendDetail(kind, host, d, ctx.Trace, ctx.Span)
}

// counter returns the handle on kind's paired counter, nil for a kind
// without one.
//
//ppmlint:hotpath pin=TestRecordZeroAllocs
func (r *Recorder) counter(kind Kind, d *Detail) *metrics.Counter {
	name := kindTable[kind].counter
	if c := r.byKind[kind]; c != nil || name == "" {
		return c
	}
	if !strings.Contains(name, "*") {
		r.byKind[kind] = r.reg.Counter(name)
		return r.byKind[kind]
	}
	token := d.firstToken()
	for i := range r.byToken {
		if tc := &r.byToken[i]; tc.kind == kind && tc.token == token {
			return tc.c
		}
	}
	c := r.reg.Counter(CounterName(kind, token))
	r.byToken = append(r.byToken, tokenCounter{kind, token, c})
	return c
}

// firstToken returns the first space-separated token of the rendered
// detail without rendering it: a "*" row's format leads with its first
// string slot.
func (d *Detail) firstToken() string {
	if d.layout == layoutNetMessage {
		return transport(d.flag)
	}
	return d.s[0]
}

// Handle returns the counter registered under name through slot i of a
// handle table the recorder keeps for a caller with nowhere of its own:
// package wire is stateless, and counts every frame under two counters
// per message type. Like a paired handle, a slot is filled on first
// fire; an index past the table is looked up by name every time.
func (r *Recorder) Handle(i int, name string) *metrics.Counter {
	if r == nil || r.reg == nil {
		return nil
	}
	if i >= len(r.extra) {
		return r.reg.Counter(name)
	}
	return r.reg.Handle(&r.extra[i], name)
}
