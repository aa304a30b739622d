package journal

import (
	"time"

	"ppm/internal/trace"
)

// testRecord is one record of a hand-written stream for this package's
// audit tests: a kind on a host, its trace context, and its detail as a
// site hands it over.
type testRecord struct {
	Seq         uint64
	Kind        Kind
	Host        string
	Detail      Detail
	Trace, Span uint64
}

// recordJournal appends the records, numbered consecutively from the
// first one's Seq, into a journal, which the audits read as they read
// any ring.
func recordJournal(records []testRecord) *Journal {
	j := New(func() time.Duration { return 0 })
	if len(records) > 0 {
		j.seq = records[0].Seq - 1
	}
	for _, r := range records {
		j.AppendDetail(r.Kind, r.Host, r.Detail, r.Trace, r.Span)
	}
	return j
}

// AuditRecords is Audit over a record stream; complete says the slice
// is the full stream (no ring eviction).
func AuditRecords(records []testRecord, complete bool) []Violation {
	return newAuditor(complete, nil).pass(recordJournal(records))
}

// AuditTraceRecords checks the trace-consistency invariants over a
// record stream and span table; complete says both streams are full.
func AuditTraceRecords(records []testRecord, spans []trace.SpanData, complete bool) []Violation {
	a := newAuditor(complete, nil)
	a.auditSpans(trace.NewIndex(spans), complete)
	a.pass(recordJournal(records))
	return a.links
}
