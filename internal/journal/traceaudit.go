package journal

import (
	"fmt"
	"strings"

	"ppm/internal/trace"
)

// The trace-consistency audit: the journal and the tracer observe the
// same run through different instruments, and when both are complete
// their stories must agree. Three invariants are checked:
//
//   - span lifecycle: every recorded span was closed exactly once.
//     Ends == 0 is a span leaked on some error path; Ends > 1 is a
//     double-close, which silently rewrites the span's end instant and
//     corrupts any attribution built on it;
//   - nesting: a child span never starts before its parent, and starts
//     no later than the parent's close. Child *ends* are also held
//     inside the parent except for the known asynchronous spans —
//     kernel event delivery and the remote-create exec tail — which by
//     design outlive the request window that spawned them;
//   - cross-links: every (trace, span) context a journal record carries
//     names a span that was actually recorded.
//
// Existence checks require both streams to be complete: a journal ring
// that evicted records cannot invalidate the span table, and a tracer
// that dropped spans at its buffer cap cannot invalidate the journal.

// asyncOverrun reports whether a span is allowed to end after its
// parent: kernel event delivery pays its delivery delay after the
// emitting operation has moved on, and createForRemote's exec leg
// deliberately completes after the creation ack is on the wire.
func asyncOverrun(name string) bool {
	return strings.HasPrefix(name, "kernel.event.") || name == "exec.exec"
}

// auditSpans checks the span table alone — lifecycle and nesting — into
// the trace violations, which carry Seq 0: they have no offending
// journal record. It reads the table in place through its index, and
// keeps the index for crossLink when both streams are complete.
func (a *auditor) auditSpans(x *trace.Index, complete bool) {
	fail := func(format string, args ...any) {
		a.links = append(a.links, Violation{Check: "trace", Msg: fmt.Sprintf(format, args...)})
	}
	if complete {
		a.spans = x
	}
	for i, s := range x.Spans {
		if len(a.links) >= maxViolations {
			return
		}
		if first, _ := x.ByID(s.ID); first != int32(i) {
			fail("span %d (%s on %s) recorded twice", s.ID, s.Name, s.Host)
			continue
		}
		switch {
		case s.Ends == 0:
			fail("span %d (%s on %s) opened at %v but never closed",
				s.ID, s.Name, s.Host, s.Start)
		case s.Ends > 1:
			fail("span %d (%s on %s) closed %d times", s.ID, s.Name, s.Host, s.Ends)
		}
		if s.End < s.Start {
			fail("span %d (%s on %s) ends at %v before its start %v",
				s.ID, s.Name, s.Host, s.End, s.Start)
		}
	}
	for _, s := range x.Spans {
		if len(a.links) >= maxViolations {
			return
		}
		if s.Parent == 0 {
			continue
		}
		at, ok := x.ByID(s.Parent)
		if !ok {
			if complete {
				fail("span %d (%s on %s) names missing parent span %d",
					s.ID, s.Name, s.Host, s.Parent)
			}
			continue
		}
		p := x.Spans[at]
		if s.Trace != p.Trace {
			fail("span %d (%s) belongs to trace %d but its parent %d belongs to trace %d",
				s.ID, s.Name, s.Trace, p.ID, p.Trace)
		}
		if s.Start < p.Start {
			fail("span %d (%s on %s) starts at %v before its parent %d (%s) at %v",
				s.ID, s.Name, s.Host, s.Start, p.ID, p.Name, p.Start)
		}
		if p.Closed() && s.Start > p.End {
			fail("span %d (%s on %s) starts at %v after its parent %d (%s) closed at %v",
				s.ID, s.Name, s.Host, s.Start, p.ID, p.Name, p.End)
		}
		if p.Closed() && s.End > p.End && !asyncOverrun(s.Name) {
			fail("span %d (%s on %s) ends at %v after its parent %d (%s) closed at %v",
				s.ID, s.Name, s.Host, s.End, p.ID, p.Name, p.End)
		}
	}
}

// crossLink checks one record's trace context against the span table,
// when the audit has one: a (trace, span) pair it carries must name a
// recorded span of that trace.
func (a *auditor) crossLink(seq, traceID, spanID uint64) {
	if a.spans == nil || len(a.links) >= maxViolations || traceID == 0 || spanID == 0 {
		return
	}
	msg := ""
	if at, ok := a.spans.ByID(spanID); !ok {
		msg = fmt.Sprintf("record references span %d which was never recorded", spanID)
	} else if s := &a.spans.Spans[at]; s.Trace != traceID {
		msg = fmt.Sprintf("record references span %d under trace %d, but the span belongs to trace %d", spanID, traceID, s.Trace)
	}
	if msg != "" {
		a.links = append(a.links, Violation{Seq: seq, Check: "trace", Msg: msg})
	}
}

// AuditWithSpans is Audit extended with the trace-consistency
// invariants over the span table's index, for runs that recorded both
// streams. spansComplete says the table is full (Tracer.Dropped() == 0);
// the journal's own completeness is read from its ring as in Audit. The
// cross-links are checked in Audit's one pass, reading each entry's
// trace context only.
func AuditWithSpans(j *Journal, x *trace.Index, spansComplete bool) []Violation {
	a := newAuditor(j.Dropped() == 0, j)
	a.auditSpans(x, a.complete && spansComplete)
	out := a.pass(j)
	room := max(maxViolations-len(out), 0)
	return append(out, a.links[:min(room, len(a.links))]...)
}
