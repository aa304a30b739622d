package journal

import (
	"time"

	"ppm/internal/trace"
)

// The audits over hand-written record streams, for this package's
// tests: the records, numbered consecutively from the first one's Seq,
// go into a journal as Text details, which the audits read as they read
// any ring.
func recordJournal(records []Record) *Journal {
	j := New(func() time.Duration { return 0 })
	if len(records) > 0 {
		j.seq = records[0].Seq - 1
	}
	for _, r := range records {
		j.AppendDetail(r.Kind, r.Host, Text(r.Detail), r.Trace, r.Span)
	}
	return j
}

// AuditRecords is Audit over a record stream; complete says the slice
// is the full stream (no ring eviction).
func AuditRecords(records []Record, complete bool) []Violation {
	return newAuditor(complete).pass(recordJournal(records))
}

// AuditTraceRecords checks the trace-consistency invariants over a
// record stream and span table; complete says both streams are full.
func AuditTraceRecords(records []Record, spans []trace.SpanData, complete bool) []Violation {
	a := newAuditor(complete)
	a.auditSpans(spans, complete)
	a.pass(recordJournal(records))
	return a.links
}
