package journal

import (
	"strings"
	"testing"
	"time"
	"unsafe"

	"ppm/internal/trace"
)

func tspan(id, traceID, parent uint64, name string, start, end time.Duration, ends int) trace.SpanData {
	return trace.SpanData{ID: id, Trace: traceID, Parent: parent,
		Host: "a", Name: name, Start: start, End: end, Ends: ends}
}

func violationMsgs(vs []Violation) string {
	var b strings.Builder
	for _, v := range vs {
		b.WriteString(v.Msg)
		b.WriteString("\n")
	}
	return b.String()
}

func TestTraceAuditCleanRun(t *testing.T) {
	spans := []trace.SpanData{
		tspan(1, 1, 0, "op.stop", 0, 100, 1),
		tspan(2, 1, 1, "lpm.request.b", 10, 90, 1),
		tspan(3, 1, 2, "kernel.event.stop", 80, 120, 1), // async overrun: fine
	}
	recs := []testRecord{{Seq: 1, Kind: LPMRetry, Detail: retry, Trace: 1, Span: 2}}
	if vs := AuditTraceRecords(recs, spans, true); len(vs) != 0 {
		t.Errorf("clean run flagged:\n%s", violationMsgs(vs))
	}
}

func TestTraceAuditSpanLifecycle(t *testing.T) {
	spans := []trace.SpanData{
		tspan(1, 1, 0, "op.stop", 0, 100, 1),
		tspan(2, 1, 1, "lpm.request.b", 10, 10, 0),     // leaked
		tspan(3, 1, 1, "dispatch.endpoint", 10, 30, 2), // double-closed
	}
	vs := AuditTraceRecords(nil, spans, true)
	msgs := violationMsgs(vs)
	if !strings.Contains(msgs, "never closed") {
		t.Errorf("leaked span not flagged:\n%s", msgs)
	}
	if !strings.Contains(msgs, "closed 2 times") {
		t.Errorf("double close not flagged:\n%s", msgs)
	}
}

func TestTraceAuditNesting(t *testing.T) {
	spans := []trace.SpanData{
		tspan(1, 1, 0, "op.stop", 10, 100, 1),
		tspan(2, 1, 1, "net.hop.b", 5, 20, 1),           // starts before parent
		tspan(3, 1, 1, "dispatch.endpoint", 20, 110, 1), // sync span outliving parent
	}
	vs := AuditTraceRecords(nil, spans, true)
	msgs := violationMsgs(vs)
	if !strings.Contains(msgs, "starts at 5ns before its parent") {
		t.Errorf("early child not flagged:\n%s", msgs)
	}
	if !strings.Contains(msgs, "ends at 110ns after its parent") {
		t.Errorf("overrunning sync child not flagged:\n%s", msgs)
	}
}

func TestTraceAuditCrossLinks(t *testing.T) {
	spans := []trace.SpanData{tspan(1, 1, 0, "op.stop", 0, 100, 1)}
	recs := []testRecord{{Seq: 7, Kind: LPMRetry, Detail: retry, Trace: 1, Span: 99}}
	vs := AuditTraceRecords(recs, spans, true)
	if len(vs) != 1 || !strings.Contains(vs[0].Msg, "never recorded") {
		t.Errorf("dangling cross-link not flagged: %v", vs)
	}
	if vs[0].Seq != 7 {
		t.Errorf("violation carries seq %d, want 7", vs[0].Seq)
	}
	// An incomplete stream cannot prove the span missing.
	if vs := AuditTraceRecords(recs, spans, false); len(vs) != 0 {
		t.Errorf("incomplete stream flagged existence:\n%s", violationMsgs(vs))
	}
}

// TestAuditReadsTheSpanTableInPlace: over a clean 5,000-span table and
// its index the trace audit allocates less than one int32 per span: it
// copies no SpanData and keys no map, it finds spans through the index.
func TestAuditReadsTheSpanTableInPlace(t *testing.T) {
	var spans []trace.SpanData
	for id := uint64(1); id <= 5000; id++ {
		if root := id - (id-1)%10; id == root { // traces of 10 spans
			spans = append(spans, tspan(id, root, 0, "op.stop", 0, 100, 1))
		} else {
			spans = append(spans, tspan(id, root, root, "lpm.request.b", 10, 90, 1))
		}
	}
	recs := []testRecord{{Seq: 1, Kind: LPMRetry, Detail: retry, Trace: 1, Span: 2}}
	j, x := recordJournal(recs), trace.NewIndex(spans)
	var vs []Violation
	got := allocBytes(func() { vs = AuditWithSpans(j, x, true) })
	if len(vs) != 0 {
		t.Fatalf("clean table flagged:\n%s", violationMsgs(vs))
	}
	if perSpan := uint64(len(spans)) * uint64(unsafe.Sizeof(int32(0))); got >= perSpan {
		t.Fatalf("the audit of %d spans allocates %d bytes, want under the %d of one int32 a span", len(spans), got, perSpan)
	}
}

// retry is a typed lpm.request.retry detail for the cross-link records.
var retry = Retry("u", "a", 1, 7, "Control", 2, 200*time.Millisecond)
