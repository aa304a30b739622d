package trace

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"ppm/internal/detord"
)

// referenceReport is the map-and-fmt renderer the index replaced, kept
// as the reference Report and ReportAll are compared against. It agrees
// with them on every table whose parents are earlier spans or absent.
func referenceReport(traceID uint64, spans []SpanData, dropped uint64) string {
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
	if dropped > 0 {
		fmt.Fprintf(&b, "(%d spans dropped at buffer cap)\n", dropped)
	}
	return b.String()
}

func referenceReportAll(spans []SpanData, dropped uint64) string {
	if len(spans) == 0 {
		return "no traces recorded\n"
	}
	byTrace := make(map[uint64][]SpanData)
	for _, s := range spans {
		byTrace[s.Trace] = append(byTrace[s.Trace], s)
	}
	var b strings.Builder
	for _, id := range detord.Keys(byTrace) {
		b.WriteString(referenceReport(id, byTrace[id], dropped))
	}
	return b.String()
}

var (
	// Hosts the renderer must pad by runes: empty, non-ASCII, invalid
	// UTF-8, and longer than the 8-column field.
	testHosts = []string{"a", "h12", "", "ünïcødé", "gateway-long-name", "日本語ホスト名です", "\xff\xfe", "exactly8"}
	testNames = []string{"op.stop", "net.hop.b", "dispatch.endpoint", "exec.adopt", "kernel.event.stop", "lpm.request.ü", ""}
)

// randomTable builds a span table the way a tracer records one —
// traces interleaved, IDs increasing with gaps where spans were dropped
// — whose parents are earlier spans of the trace or were dropped.
func randomTable(rng *rand.Rand) []SpanData {
	nTraces := 1 + rng.Intn(6)
	traceIDs := make([]uint64, nTraces)
	for i := range traceIDs {
		traceIDs[i] = uint64(1 + rng.Intn(1000))
	}
	var spans []SpanData
	byTrace := map[uint64][]uint64{}
	id := uint64(0)
	for n := 1 + rng.Intn(40); n > 0; n-- {
		id += uint64(1 + rng.Intn(2)) // a skipped ID is a span dropped at the cap
		tr := traceIDs[rng.Intn(nTraces)]
		var parent uint64
		switch earlier := byTrace[tr]; {
		case len(earlier) > 0 && rng.Intn(4) != 0:
			parent = earlier[rng.Intn(len(earlier))]
		case rng.Intn(3) == 0:
			parent = id - 1 // an orphan when the previous ID was dropped or is another trace's
			for _, e := range earlier {
				if e == parent {
					parent = 0
				}
			}
		}
		start := time.Duration(rng.Int63n(int64(10*time.Second))) - time.Second
		if rng.Intn(10) == 0 {
			start = time.Duration(rng.Int63n(int64(1000 * time.Hour)))
		}
		spans = append(spans, SpanData{
			ID: id, Trace: tr, Parent: parent,
			Host:  testHosts[rng.Intn(len(testHosts))],
			Name:  testNames[rng.Intn(len(testNames))],
			Start: start, End: start + time.Duration(rng.Int63n(int64(time.Second))),
			Ends: 1,
		})
		byTrace[tr] = append(byTrace[tr], id)
	}
	return spans
}

// TestReportMatchesReference: over seeded random tables, Report and
// ReportAll render byte for byte what the map-and-fmt renderer did.
func TestReportMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		spans := randomTable(rng)
		var dropped uint64
		if rng.Intn(5) == 0 {
			dropped = uint64(1 + rng.Intn(50))
		}
		tr := &Tracer{spans: spans, dropped: dropped}
		if got, want := tr.ReportAll(), referenceReportAll(spans, dropped); got != want {
			t.Fatalf("table %d: ReportAll\n%s\nreference\n%s", i, got, want)
		}
		for _, id := range []uint64{spans[0].Trace, spans[len(spans)-1].Trace, 1001} {
			if got, want := tr.Report(id), referenceReport(id, slices.DeleteFunc(slices.Clone(spans), func(s SpanData) bool { return s.Trace != id }), dropped); got != want {
				t.Fatalf("table %d: Report(%d)\n%s\nreference\n%s", i, id, got, want)
			}
		}
	}
}

// FuzzReportAll: over arbitrary span tables — self- and forward-parented
// spans, duplicate IDs, traces without a span whose parent is 0 — the
// renderer never panics and renders every span exactly once, under a
// parent that is an earlier span of its trace.
func FuzzReportAll(f *testing.F) {
	f.Add([]byte{1, 1, 0, 0, 0, 5})
	f.Add([]byte{1, 1, 1, 0, 0, 5})                   // self-parented: the trace's only span
	f.Add([]byte{1, 1, 2, 0, 0, 5, 1, 2, 1, 0, 0, 5}) // forward-parented first span
	f.Add([]byte{7, 3, 3, 1, 9, 2, 7, 3, 3, 2, 8, 1, 2, 3, 0, 3, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		var spans []SpanData
		for i := 0; i+6 <= len(data) && len(spans) < 256; i += 6 {
			d := data[i : i+6]
			start := time.Duration(int8(d[4])) * time.Millisecond
			spans = append(spans, SpanData{
				Trace: uint64(d[0] % 4), ID: uint64(d[1]), Parent: uint64(d[2]),
				Host: testHosts[int(d[3])%len(testHosts)], Name: fmt.Sprintf("s%d", len(spans)),
				Start: start, End: start + time.Duration(d[5])*time.Microsecond,
			})
		}
		tr := &Tracer{spans: spans}
		out := tr.ReportAll()
		lines := strings.Split(out, "\n")
		for i := range spans {
			n := 0
			for _, l := range lines {
				if strings.HasSuffix(l, " "+spans[i].Name) {
					n++
				}
			}
			if n != 1 {
				t.Fatalf("span %d rendered %d times:\n%s", i, n, out)
			}
		}
		x := NewIndex(spans)
		for i, s := range spans {
			for _, c := range x.Children(int32(i)) {
				if c <= int32(i) || spans[c].Trace != s.Trace || spans[c].Parent != s.ID {
					t.Fatalf("span %d is a child of span %d", c, i)
				}
			}
			tr.Report(s.Trace)
		}
	})
}

// tracedTable returns a tracer holding traces traces of 10 spans, each
// child opening reach before its instant and closing reach after it.
func tracedTable(traces int, reach time.Duration) *Tracer {
	clk := &fakeClock{}
	tr := New(clk.now)
	tr.Enable()
	tr.SetMaxSpans(traces * 10)
	for i := 0; i < traces; i++ {
		root := tr.StartTrace(testHosts[i%len(testHosts)], "op.stop")
		for j := 1; j < 10; j++ {
			clk.at += time.Millisecond
			tr.AddSpan(testHosts[j%len(testHosts)], testNames[j%len(testNames)], root.Context(), clk.at-reach, clk.at+reach+time.Millisecond)
		}
		root.End()
	}
	return tr
}

// TestReportAllAllocs: ReportAll and Report allocate a fixed number of
// times — the index's slices and one text — not a number that grows
// with the traces or spans there are. Each run indexes the table anew.
func TestReportAllAllocs(t *testing.T) {
	allocs := func(traces int) (all, one float64) {
		tr := tracedTable(traces, 0)
		return testing.AllocsPerRun(50, func() { tr.index = nil; tr.ReportAll() }),
			testing.AllocsPerRun(50, func() { tr.index = nil; tr.Report(uint64(traces / 2)) })
	}
	small, smallOne := allocs(50)
	large, largeOne := allocs(500)
	t.Logf("%v allocs per ReportAll, %v per Report", large, largeOne)
	if large != small || large > 20 {
		t.Fatalf("ReportAll allocates %v times over 500 traces of 10 spans and %v over 50; want the same few", large, small)
	}
	if largeOne != smallOne || largeOne > 24 {
		t.Fatalf("Report allocates %v times among 500 traces of 10 spans and %v among 50; want the same few", largeOne, smallOne)
	}
}

// allocBytes returns the fewest bytes f allocated over five calls, by
// runtime.MemStats.TotalAlloc; the minimum drops what another goroutine
// allocated meanwhile.
func allocBytes(f func()) uint64 {
	least := ^uint64(0)
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestReportAllBytes: beside its index's slices, ReportAll allocates
// its text once, at about its length — no buffer sized far past it and
// no copy of it. The slack is 8 KiB for the rounding of an object past
// 32 KiB to whole pages, and 4 KiB for the sorted hosts of a trace and
// the header bound's byte a trace. Instants past 10 columns add what the
// bound pays for them, 16 bytes a span, and spans dropped at the cap 51
// bytes a trace; a bound short of either grows the builder past the limit.
func TestReportAllBytes(t *testing.T) {
	for _, c := range []struct {
		reach time.Duration
		drops int
		has   string
	}{
		{0, 0, "0.000      9.000  h12      op.stop"},
		{100000 * time.Second, 0, "-99999999.000 100000002.000  h12        net.hop.b"},
		{0, 1000, "(1000 spans dropped at buffer cap)"},
	} {
		tr, slack := tracedTable(500, c.reach), uint64(12<<10)
		for range c.drops {
			tr.StartTrace("a", "dropped")
		}
		if c.reach > 0 {
			slack += 16 * uint64(len(tr.spans))
		}
		if c.drops > 0 {
			slack += 51 * 500
		}
		var out string
		index := allocBytes(func() { NewIndex(tr.spans) })
		got := allocBytes(func() { tr.index = nil; out = tr.ReportAll() })
		t.Logf("reach %v, %d dropped: ReportAll allocates %d bytes for %d of text and %d of index", c.reach, c.drops, got, len(out), index)
		if limit := uint64(len(out)) + index + slack; got > limit || len(out) < 64<<10 || !strings.Contains(out, c.has) {
			t.Fatalf("reach %v, %d dropped: ReportAll allocates %d bytes for %d of text and %d of index, want at most %d (and a text of 64 KiB or more holding %q)",
				c.reach, c.drops, got, len(out), index, limit, c.has)
		}
		// Over the index the first read built, ReportAll and Report
		// allocate their text alone: no second index, no copy of a trace.
		again := allocBytes(func() { out = tr.ReportAll() })
		one := allocBytes(func() { tr.Report(250) })
		if again > uint64(len(out))+slack || one > 4<<10 {
			t.Fatalf("reach %v, %d dropped: over a built index ReportAll allocates %d bytes for %d of text and Report %d",
				c.reach, c.drops, again, len(out), one)
		}
	}
}

// TestIndexIsSharedPerTable: the tracer builds one index per state of
// its table and hands it to every reader; a span recorded later lands
// past the index's length, and a span ended later ends in a copy, so an
// index handed out stays what it was. Reset keeps no table and no index.
func TestIndexIsSharedPerTable(t *testing.T) {
	clk := &fakeClock{}
	tr := New(clk.now)
	tr.Enable()
	fill(tr, 64)
	tr.Reset() // the next table has room: records land in the indexed array
	root := tr.StartTrace("a", "op.stop")
	child := tr.StartSpan("b", "net.hop.b", root.Context())
	x := tr.Index()
	if tr.Index() != x {
		t.Fatal("a second reader of an unchanged table got another index")
	}
	clk.at = time.Millisecond
	late := tr.StartSpan("a", "dispatch.endpoint", root.Context())
	if y := tr.Index(); y == x || len(y.Spans) != 3 || len(x.Spans) != 2 {
		t.Fatalf("after a record the index holds %d spans and the old one %d; want a new index of 3 and the old of 2", len(y.Spans), len(x.Spans))
	}
	child.End()
	late.End()
	root.End()
	for i, s := range x.Spans {
		if s.Ends != 0 || s.End != s.Start {
			t.Fatalf("span %d ended in the index handed out before it ended: %+v", i, s)
		}
	}
	for i, s := range tr.Spans() {
		if s.Ends != 1 || (i > 0 && s.End != time.Millisecond) {
			t.Fatalf("span %d did not end in the tracer's table: %+v", i, s)
		}
	}
	if !strings.Contains(tr.ReportAll(), "=== trace 2: op.stop (3 spans, 2 hosts)") || !strings.Contains(tr.ReportAll(), "0.000      1.000  b          net.hop.b") {
		t.Fatalf("the report renders the table before its spans ended:\n%s", tr.ReportAll())
	}
	tr.Reset()
	if tr.spans != nil || tr.index != nil {
		t.Fatalf("Reset kept %d spans and index %p", len(tr.spans), tr.index)
	}
}

// TestEndPastTheIndexCopiesNothing: a span recorded after the index was
// handed out lies past its length, so ending it leaves the shared table
// in place; ending a span inside the index copies the table first.
func TestEndPastTheIndexCopiesNothing(t *testing.T) {
	clk := &fakeClock{}
	tr := New(clk.now)
	tr.Enable()
	fill(tr, 64)
	tr.Reset() // the next table has room: records land in the indexed array
	root := tr.StartTrace("a", "op.stop")
	x := tr.Index()
	clk.at = time.Millisecond
	tr.StartSpan("b", "net.hop.b", root.Context()).End()
	if &tr.spans[0] != &x.Spans[0] || tr.spans[1].Ends != 1 {
		t.Fatal("ending a span past the index's length copied the table")
	}
	root.End()
	if &tr.spans[0] == &x.Spans[0] || x.Spans[0].Ends != 0 || tr.spans[0].Ends != 1 {
		t.Fatal("ending a span inside the index wrote to the table the index reads")
	}
}

// TestEmptyIndexAllocatesNothing: handing out the index of an empty
// table and reporting it allocate nothing, so readers of a tracer
// left off pay nothing for the trace half.
func TestEmptyIndexAllocatesNothing(t *testing.T) {
	tr, off := New(func() time.Duration { return 0 }), (*Tracer)(nil)
	if allocs := testing.AllocsPerRun(100, func() {
		tr.Index()
		off.Index()
		tr.ReportAll()
	}); allocs != 0 {
		t.Fatalf("an empty table's index and report allocate %v times, want 0", allocs)
	}
	if x := tr.Index(); len(x.Traces()) != 0 || len(x.Spans) != 0 {
		t.Fatalf("an empty table's index holds %d traces", len(x.Traces()))
	}
}

// TestStartSpanZeroAllocs: opening and closing a span on an enabled
// tracer allocates nothing once amortized — handles come from a slab.
func TestStartSpanZeroAllocs(t *testing.T) {
	tr := New(func() time.Duration { return 0 })
	tr.Enable()
	tr.SetMaxSpans(1 << 20)
	ctx := tr.StartTrace("a", "op").Context()
	if allocs := testing.AllocsPerRun(10000, func() { tr.StartSpan("a", "x", ctx).End() }); allocs != 0 {
		t.Fatalf("StartSpan+End allocates %v times per span, want 0", allocs)
	}
	if spans := tr.Spans(); len(spans) != 10002 || !spans[10001].Closed() {
		t.Fatalf("recorded %d spans, want 10002, all closed", len(spans))
	}
}

// TestByIDFindsTheFirstSpan: over seeded random tables, with gaps in
// their IDs or without (a tracer's), ByID finds the first span recorded
// with an ID, or none.
func TestByIDFindsTheFirstSpan(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		spans := randomTable(rng)
		if i%2 == 0 { // a tracer's table: IDs count up from the first's, no gap
			for j := range spans {
				spans[j].ID = spans[0].ID + uint64(j)
			}
		}
		x := NewIndex(spans)
		for id := uint64(0); id <= spans[len(spans)-1].ID+1; id++ {
			want := slices.IndexFunc(spans, func(s SpanData) bool { return s.ID == id })
			if got, ok := x.ByID(id); int(got) != want || ok != (want >= 0) {
				t.Fatalf("table %d: ByID(%d) = %d, %v; want %d", i, id, got, ok, want)
			}
		}
	}
}
