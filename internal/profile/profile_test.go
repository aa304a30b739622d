package profile

import (
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"ppm/internal/journal"
	"ppm/internal/trace"
)

const msec = time.Millisecond

// span builds a closed SpanData for fixture tables.
func span(id, traceID, parent uint64, host, name string, start, end time.Duration) trace.SpanData {
	return trace.SpanData{ID: id, Trace: traceID, Parent: parent,
		Host: host, Name: name, Start: start, End: end, Ends: 1}
}

// TestAttributionConservation hand-checks the sweep on a synthetic
// trace and asserts the conservation invariant: phase buckets sum
// exactly to the root's end-to-end time.
//
// Layout (ms):
//
//	op.stop            [0,100]                     (root, structural)
//	  lpm.request.b    [5,95]                      (structural)
//	    net.hop.b      [5,15]   -> network 10
//	    dispatch.endpoint [15,20] -> dispatch 5
//	    exec.adopt     [20,60]  -> kernel 40
//	    kernel.event.stop [58,65] -> fully shadowed: ties exec on
//	                      [58,60] (both kernel), loses [60,65] to reply
//	    net.reply.a    [60,70]  -> reply 10
//	  lpm.retry.b      [70,90]  -> backoff 20
func TestAttributionConservation(t *testing.T) {
	spans := []trace.SpanData{
		span(1, 7, 0, "a", "op.stop", 0, 100*msec),
		span(2, 7, 1, "a", "lpm.request.b", 5*msec, 95*msec),
		span(3, 7, 2, "a", "net.hop.b", 5*msec, 15*msec),
		span(4, 7, 2, "b", "dispatch.endpoint", 15*msec, 20*msec),
		span(5, 7, 2, "b", "exec.adopt", 20*msec, 60*msec),
		span(6, 7, 2, "b", "kernel.event.stop", 58*msec, 65*msec),
		span(7, 7, 2, "b", "net.reply.a", 60*msec, 70*msec),
		span(8, 7, 1, "a", "lpm.retry.b", 70*msec, 90*msec),
	}
	p := Build(trace.NewIndex(spans), nil)
	if len(p.Requests) != 1 {
		t.Fatalf("got %d requests, want 1", len(p.Requests))
	}
	r := p.Requests[0]
	if !r.Conserved() {
		t.Fatalf("conservation violated: phases %v, total %v", r.Phases, r.Total())
	}
	// Hand-walked expectation: [0,5] unattr, [5,15] network, [15,20]
	// dispatch, [20,60] kernel (exec; the [58,60] overlap with
	// kernel.event ties at equal depth — both kernel anyway), [60,70]
	// reply (on [60,65] phase Reply=1 beats Kernel=4 at equal depth),
	// [70,90] backoff, [90,100] unattr.
	want := [numPhases]time.Duration{
		PhaseNetwork:      10 * msec,
		PhaseReply:        10 * msec,
		PhaseDispatch:     5 * msec,
		PhaseBackoff:      20 * msec,
		PhaseKernel:       40 * msec,
		PhaseUnattributed: 15 * msec,
	}
	if r.Phases != want {
		t.Errorf("phases = %v, want %v", r.Phases, want)
	}
	if r.Total() != 100*msec {
		t.Errorf("total = %v, want 100ms", r.Total())
	}
}

// TestCriticalPathHandChecked pins the longest dependent chain of a
// synthetic fan-out: the chain must descend into the latest-ending
// child at every level, skip async spans that outlive their parent,
// and report per-hop slack against the parent's completion.
func TestCriticalPathHandChecked(t *testing.T) {
	spans := []trace.SpanData{
		span(1, 3, 0, "a", "op.snapshot", 0, 100*msec),
		span(2, 3, 1, "a", "lpm.request.b", 0, 40*msec),
		span(3, 3, 1, "a", "lpm.request.c", 5*msec, 90*msec),
		span(4, 3, 1, "a", "exec.exec", 50*msec, 120*msec), // async: outlives root
		span(5, 3, 3, "c", "dispatch.endpoint", 10*msec, 40*msec),
		span(6, 3, 3, "c", "exec.gather", 20*msec, 85*msec),
	}
	p := Build(trace.NewIndex(spans), nil)
	path := p.CriticalPath(3)
	wantNames := []string{"op.snapshot", "lpm.request.c", "exec.gather"}
	if len(path) != len(wantNames) {
		t.Fatalf("path length %d, want %d (%+v)", len(path), len(wantNames), path)
	}
	for i, want := range wantNames {
		if path[i].Name != want {
			t.Errorf("hop %d = %s, want %s", i, path[i].Name, want)
		}
	}
	wantSlack := []time.Duration{0, 10 * msec, 5 * msec}
	for i, want := range wantSlack {
		if path[i].Slack != want {
			t.Errorf("hop %d slack = %v, want %v", i, path[i].Slack, want)
		}
	}
}

// TestJournalCrossLinks: retry/timeout records under a trace surface
// on its request.
func TestJournalCrossLinks(t *testing.T) {
	spans := []trace.SpanData{
		span(1, 9, 0, "a", "op.ping", 0, 10*msec),
	}
	recs := []journal.Record{
		{Seq: 1, Kind: journal.LPMRetry, Host: "a", Trace: 9, Span: 1},
		{Seq: 2, Kind: journal.LPMRetry, Host: "a", Trace: 9, Span: 1},
		{Seq: 3, Kind: journal.LPMTimeout, Host: "a", Trace: 9, Span: 1},
		{Seq: 4, Kind: journal.LPMRetry, Host: "a", Trace: 8, Span: 0}, // other trace
	}
	p := Build(trace.NewIndex(spans), recs)
	r := p.Requests[0]
	if r.Retries != 2 || r.Timeouts != 1 {
		t.Errorf("cross-links = %d retries / %d timeouts, want 2/1", r.Retries, r.Timeouts)
	}
}

// TestReportDeterminism: two Builds over the same inputs render
// byte-identical output in every mode.
func TestReportDeterminism(t *testing.T) {
	spans := []trace.SpanData{
		span(1, 1, 0, "a", "op.stop", 0, 50*msec),
		span(2, 1, 1, "a", "net.hop.b", 0, 10*msec),
		span(3, 1, 1, "b", "exec.adopt", 10*msec, 30*msec),
		span(4, 2, 0, "b", "op.snapshot", 20*msec, 90*msec),
		span(5, 2, 4, "b", "lpm.request.a", 25*msec, 80*msec),
		span(6, 2, 5, "a", "exec.gather", 30*msec, 70*msec),
	}
	a, b := Build(trace.NewIndex(spans), nil), Build(trace.NewIndex(spans), nil)
	var o Options
	if a.Report(o) != b.Report(o) {
		t.Error("Report not deterministic")
	}
	if a.FoldedStacks(o) != b.FoldedStacks(o) {
		t.Error("FoldedStacks not deterministic")
	}
	if a.CriticalReport(o) != b.CriticalReport(o) {
		t.Error("CriticalReport not deterministic")
	}
	if !strings.Contains(a.Report(o), "op.snapshot") {
		t.Error("report lacks op.snapshot row")
	}
}

// TestFoldedStacksSelfTime: the folded export weights stacks by
// self-time (interval minus children), in microseconds.
func TestFoldedStacksSelfTime(t *testing.T) {
	spans := []trace.SpanData{
		span(1, 1, 0, "a", "op.stop", 0, 50*msec),
		span(2, 1, 1, "a", "net.hop.b", 10*msec, 30*msec),
	}
	p := Build(trace.NewIndex(spans), nil)
	got := p.FoldedStacks(Options{})
	want := "op.stop 30000\nop.stop;net.hop.b 20000\n"
	if got != want {
		t.Errorf("folded stacks:\n%s\nwant:\n%s", got, want)
	}
}

// TestOptionsFilter: -op and -host narrow the request set, accepting
// the op name with or without its "op." prefix.
func TestOptionsFilter(t *testing.T) {
	spans := []trace.SpanData{
		span(1, 1, 0, "a", "op.stop", 0, 50*msec),
		span(2, 2, 0, "b", "op.snapshot", 0, 70*msec),
	}
	p := Build(trace.NewIndex(spans), nil)
	if got := p.Report(Options{Op: "snapshot"}); strings.Contains(got, "op.stop") {
		t.Errorf("op filter leaked op.stop:\n%s", got)
	}
	if got := p.Report(Options{Host: "a"}); strings.Contains(got, "op.snapshot") {
		t.Errorf("host filter leaked op.snapshot:\n%s", got)
	}
	if got := p.Report(Options{Op: "op.snapshot"}); !strings.Contains(got, "op.snapshot") {
		t.Errorf("prefixed op filter dropped its own op:\n%s", got)
	}
}

// TestBuildAllocsPerSpan pins the analyzer's cost per Build: the span
// index, the request table and the sweep's scratch are a fixed number of
// allocations however many spans and requests the table holds — no map
// and no slice per span or per trace.
func TestBuildAllocsPerSpan(t *testing.T) {
	allocs := func(n int) float64 { // n requests of 4 spans
		var spans []trace.SpanData
		for i := 0; i < n; i++ {
			base := time.Duration(i) * 100 * msec
			root, tr := uint64(4*i+1), uint64(i+1)
			spans = append(spans,
				span(root, tr, 0, "a", "op.stop", base, base+50*msec),
				span(root+1, tr, root, "a", "net.hop.b", base, base+10*msec),
				span(root+2, tr, root, "b", "exec.adopt", base+10*msec, base+30*msec),
				span(root+3, tr, root, "b", "net.reply.a", base+30*msec, base+40*msec),
			)
		}
		recs := []journal.Record{{Kind: journal.LPMRetry, Trace: 1}, {Kind: journal.LPMTimeout, Trace: uint64(n)}}
		return testing.AllocsPerRun(10, func() { Build(trace.NewIndex(spans), recs) })
	}
	small, large := allocs(64), allocs(640)
	t.Logf("%v allocs per Build", large)
	if large != small || large > 24 {
		t.Errorf("Build allocates %v times over 640 requests and %v over 64; want the same few (pin 24)", large, small)
	}
}

// TestProfileIsASnapshot: a profile reads the tracer's table in place,
// yet one taken while a span is open keeps that span's instants after
// the span ends, while the tracer's own table shows the end.
func TestProfileIsASnapshot(t *testing.T) {
	var now time.Duration
	tr := trace.New(func() time.Duration { return now })
	tr.Enable()
	root := tr.StartTrace("a", "op.stop")
	hop := tr.StartSpan("a", "net.hop.b", root.Context())
	now = 10 * msec
	hop.End()
	p := Build(tr.Index(), nil)
	before := p.CriticalReport(Options{})
	now = 30 * msec
	root.End()
	if path := p.CriticalPath(1); len(path) == 0 || path[0].End != 0 || p.CriticalReport(Options{}) != before {
		t.Fatalf("the profile taken with the root open now reads its end: %+v", path)
	}
	if s := tr.Spans()[0]; s.End != 30*msec || s.Ends != 1 {
		t.Fatalf("the tracer's table does not show the root's end: %+v", s)
	}
}

// TestReadBackBuildsOneIndex: the profile, the trace audit and the
// waterfall read one table through one index: read together over a
// table no reader has indexed, they allocate one index more than over a
// built one, and over a built one each allocates what it returns, not a
// copy of the table.
func TestReadBackBuildsOneIndex(t *testing.T) {
	var now time.Duration
	tr := trace.New(func() time.Duration { return now })
	tr.Enable()
	tr.SetMaxSpans(1 << 16)
	for i := 0; i < 500; i++ {
		root := tr.StartTrace("a", "op.stop")
		for j := 1; j < 10; j++ {
			now += msec
			tr.AddSpan("b", "net.hop.b", root.Context(), now-msec, now)
		}
		root.End()
	}
	j := journal.New(func() time.Duration { return now })
	var text string
	build := func() { Build(tr.Index(), nil) }
	audit := func() {
		if vs := journal.AuditWithSpans(j, tr.Index(), true); len(vs) != 0 {
			t.Fatalf("the table audits dirty:\n%s", journal.AuditReport(vs))
		}
	}
	report := func() { text = tr.ReportAll() }
	x := tr.Index()
	table := uint64(len(x.Spans)) * uint64(unsafe.Sizeof(x.Spans[0]))
	nop, all := func() {}, func() { build(); audit(); report() }
	index := bytesOf(nop, func() { trace.NewIndex(x.Spans) })
	built := bytesOf(nop, all)
	fresh := bytesOf(func() { tr.StartTrace("a", "op.stop").End() }, all) // a new state of the table, not yet indexed
	b, a, r := bytesOf(nop, build), bytesOf(nop, audit), bytesOf(nop, report)
	t.Logf("%d spans (%d B of table): %d B read together over a new table, %d over a built index (profile %d, audit %d, report %d for %d of text); an index is %d",
		len(x.Spans), table, fresh, built, b, a, r, len(text), index)
	if slack := uint64(8 << 10); fresh > built+index+slack || b > table/4 || a > 4<<10 || r > uint64(len(text))+slack {
		t.Fatalf("reading %d spans (%d B of table) allocates %d B together over a new table, %d over a built index (profile %d, audit %d, report %d for %d of text); want one %d B index more and no copy",
			len(x.Spans), table, fresh, built, b, a, r, len(text), index)
	}
}

// bytesOf returns the fewest bytes f allocated over five calls, each
// after a call of setup, by runtime.MemStats.TotalAlloc.
func bytesOf(setup, f func()) uint64 {
	least := ^uint64(0)
	for range 5 {
		var before, after runtime.MemStats
		setup()
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}
