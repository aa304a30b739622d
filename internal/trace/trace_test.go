package trace

import (
	"strings"
	"testing"
	"time"
)

// fakeClock is a settable virtual clock for tests.
type fakeClock struct{ at time.Duration }

func (c *fakeClock) now() time.Duration { return c.at }

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	tr.Enable()
	tr.Disable()
	if sp := tr.StartTrace("h", "op"); sp != nil {
		t.Fatal("nil tracer handed out a span")
	}
	if sp := tr.StartSpan("h", "x", Context{Trace: 1, Span: 1}); sp != nil {
		t.Fatal("nil tracer handed out a child span")
	}
	tr.AddSpan("h", "x", Context{Trace: 1}, 0, 0)
	if got := tr.Exchange(Context{Trace: 9}); got.Valid() {
		t.Fatal("nil tracer returned a valid active context")
	}
	if tr.Active().Valid() {
		t.Fatal("nil tracer has an active context")
	}
	if tr.Spans() != nil || tr.Index().Traces() != nil {
		t.Fatal("nil tracer returned spans")
	}
	tr.Reset()

	var sp *Span
	sp.End()
	sp.EndAt(time.Second)
	if sp.Context().Valid() {
		t.Fatal("nil span has a valid context")
	}
}

func TestDisabledTracerRecordsNothing(t *testing.T) {
	clk := &fakeClock{}
	tr := New(clk.now)
	if sp := tr.StartTrace("h", "op"); sp != nil {
		t.Fatal("disabled tracer started a trace")
	}
	// A child against the invalid context must also be nil.
	if sp := tr.StartSpan("h", "x", Context{}); sp != nil {
		t.Fatal("invalid parent context produced a span")
	}
	if len(tr.Spans()) != 0 {
		t.Fatalf("spans recorded while disabled: %v", tr.Spans())
	}
}

func TestTreeAssemblyAndIDs(t *testing.T) {
	clk := &fakeClock{}
	tr := New(clk.now)
	tr.Enable()

	root := tr.StartTrace("a", "op.stop")
	clk.at = 2 * time.Millisecond
	child1 := tr.StartSpan("a", "dispatch.endpoint", root.Context())
	clk.at = 3 * time.Millisecond
	child1.End()
	clk.at = 4 * time.Millisecond
	child2 := tr.StartSpan("b", "lpm.request", root.Context())
	grand := tr.StartSpan("b", "kernel.event.stop", child2.Context())
	clk.at = 9 * time.Millisecond
	grand.End()
	child2.End()
	clk.at = 10 * time.Millisecond
	root.End()

	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	if spans[0].ID != 1 || spans[1].ID != 2 || spans[2].ID != 3 || spans[3].ID != 4 {
		t.Fatalf("span IDs not sequential: %+v", spans)
	}
	if spans[3].Parent != spans[2].ID {
		t.Fatalf("grandchild parent = %d, want %d", spans[3].Parent, spans[2].ID)
	}
	if tr.LastTrace() != 1 {
		t.Fatalf("LastTrace = %d, want 1", tr.LastTrace())
	}

	rep := tr.Report(1)
	for _, want := range []string{
		"=== trace 1: op.stop (4 spans, 2 hosts) ===",
		"op.stop",
		"  dispatch.endpoint",
		"    kernel.event.stop",
	} {
		if !strings.Contains(rep, want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}
}

func TestReportDeterministicOrdering(t *testing.T) {
	build := func() string {
		clk := &fakeClock{}
		tr := New(clk.now)
		tr.Enable()
		root := tr.StartTrace("a", "op")
		// Two children starting at the same instant: order must fall
		// back to span ID.
		c2 := tr.StartSpan("b", "second", root.Context())
		c1 := tr.StartSpan("a", "first", root.Context())
		clk.at = time.Millisecond
		c1.End()
		c2.End()
		root.End()
		return tr.Report(1)
	}
	a, b := build(), build()
	if a != b {
		t.Fatalf("reports differ:\n%s\n---\n%s", a, b)
	}
	// Same start instant: the earlier-created span renders first.
	if strings.Index(a, "second") > strings.Index(a, "first") {
		t.Fatalf("same-start children not ordered by ID:\n%s", a)
	}
}

func TestMaxSpansDropsAndCounts(t *testing.T) {
	clk := &fakeClock{}
	tr := New(clk.now)
	tr.Enable()
	tr.SetMaxSpans(2)
	root := tr.StartTrace("a", "op")
	tr.StartSpan("a", "kept", root.Context())
	if sp := tr.StartSpan("a", "dropped", root.Context()); sp != nil {
		t.Fatal("span recorded past the cap")
	}
	if tr.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", tr.Dropped())
	}
	if !strings.Contains(tr.Report(1), "1 spans dropped") {
		t.Fatalf("report does not mention drops:\n%s", tr.Report(1))
	}
	tr.Reset()
	if tr.Dropped() != 0 || len(tr.Spans()) != 0 {
		t.Fatal("Reset did not clear the buffer")
	}
}

// TestSpanEndAfterResetIsInert: a handle opened before a Reset ends
// nothing afterwards — not whichever new span took its slot, and not a
// slot past the end of the new table.
func TestSpanEndAfterResetIsInert(t *testing.T) {
	tr := New(func() time.Duration { return time.Millisecond })
	tr.Enable()
	old := tr.StartTrace("a", "old")
	tr.StartSpan("a", "x", old.Context())
	beyond := tr.StartSpan("a", "y", old.Context())
	tr.Reset()
	root := tr.StartTrace("a", "new")
	tr.StartSpan("a", "child", root.Context())
	old.End()
	beyond.End()
	for _, s := range tr.Spans() {
		if s.Ends != 0 {
			t.Fatalf("a handle from before Reset ended %s: %+v", s.Name, s)
		}
	}
}

// fill records n spans on tr as one trace: a root and its children.
func fill(tr *Tracer, n int) {
	root := tr.StartTrace("a", "op")
	for i := 1; i < n; i++ {
		tr.StartSpan("a", "x", root.Context()).End()
	}
	root.End()
}

// TestRefillAllocatesTheTableOnce: an interval that records up to a
// sixteenth more spans than the last one dropped at Reset fills one
// table, made at that length by its first span.
func TestRefillAllocatesTheTableOnce(t *testing.T) {
	tr := New(func() time.Duration { return 0 })
	tr.Enable()
	fill(tr, 1000)
	tr.Reset()
	root := tr.StartTrace("a", "op")
	first := &tr.spans[0]
	for i := 1; i < 1062; i++ {
		tr.StartSpan("a", "x", root.Context()).End()
	}
	if len(tr.spans) != 1062 || cap(tr.spans) != 1062 || &tr.spans[0] != first {
		t.Fatalf("refilled to %d spans in a table of %d, moved: %v; want one table of 1062",
			len(tr.spans), cap(tr.spans), &tr.spans[0] != first)
	}
}

// TestStaleHandleInertInTheRemadeTable: a handle opened before Reset
// stays inert once the next table is made at the old length, with a new
// span at its index, and ending it changes no new span.
func TestStaleHandleInertInTheRemadeTable(t *testing.T) {
	tr := New(func() time.Duration { return time.Millisecond })
	tr.Enable()
	old := []*Span{tr.StartTrace("a", "old")}
	for i := 1; i < 300; i++ { // past one slab chunk of handles
		old = append(old, tr.StartSpan("a", "x", old[0].Context()))
	}
	tr.Reset()
	root := tr.StartTrace("a", "new")
	for i := 1; i < 300; i++ {
		tr.StartSpan("a", "y", root.Context())
	}
	for _, h := range old {
		h.End()
	}
	for _, s := range tr.Spans() {
		if s.Ends != 0 {
			t.Fatalf("a handle from before Reset ended %s: %+v", s.Name, s)
		}
	}
	if root.End(); tr.Spans()[0].Ends != 1 {
		t.Fatal("a new handle no longer ends its span")
	}
}

// TestResetSizesByTheLastInterval: the table after a Reset is made at
// the length that Reset dropped plus a sixteenth, capped at the buffer
// cap, not at the most any interval held: a 1 M-span epilogue presizes
// no later small interval past what the interval before it held.
func TestResetSizesByTheLastInterval(t *testing.T) {
	tr := New(func() time.Duration { return 0 })
	tr.Enable()
	tr.SetMaxSpans(1 << 20)
	fill(tr, 1<<20)
	tr.Reset()
	tr.SetMaxSpans(64)
	fill(tr, 10)
	if cap(tr.spans) != 64 {
		t.Fatalf("after 1 M spans, a table capped at 64 spans was made at %d", cap(tr.spans))
	}
	tr.Reset()
	tr.SetMaxSpans(1 << 20)
	fill(tr, 1)
	if cap(tr.spans) != 10 {
		t.Fatalf("after an interval of 10 spans the table was made at %d, want 10", cap(tr.spans))
	}
	fill(tr, 159)
	tr.Reset()
	fill(tr, 1)
	if cap(tr.spans) != 170 {
		t.Fatalf("after an interval of 160 spans the table was made at %d, want 170", cap(tr.spans))
	}
}

func TestExchangeActiveContext(t *testing.T) {
	tr := New(func() time.Duration { return 0 })
	tr.Enable()
	root := tr.StartTrace("a", "op")
	old := tr.Exchange(root.Context())
	if old.Valid() {
		t.Fatal("initial active context should be invalid")
	}
	if tr.Active() != root.Context() {
		t.Fatal("Exchange did not install the context")
	}
	tr.Exchange(old)
	if tr.Active().Valid() {
		t.Fatal("Exchange did not restore the old context")
	}
	// Disable clears any active context left behind.
	tr.Exchange(root.Context())
	tr.Disable()
	if tr.Active().Valid() {
		t.Fatal("Disable left an active context")
	}
}

func TestAddSpanExplicitWindow(t *testing.T) {
	tr := New(func() time.Duration { return 0 })
	tr.Enable()
	root := tr.StartTrace("a", "op")
	tr.AddSpan("gw", "net.hop", root.Context(), 5*time.Millisecond, 8*time.Millisecond)
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	hop := spans[1]
	if hop.Start != 5*time.Millisecond || hop.End != 8*time.Millisecond {
		t.Fatalf("hop window = [%v, %v]", hop.Start, hop.End)
	}
	if hop.Host != "gw" {
		t.Fatalf("hop host = %q, want gw", hop.Host)
	}
}
