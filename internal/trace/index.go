package trace

import (
	"cmp"
	"slices"
)

// Index is the tree view of a span table that the waterfall renderer,
// internal/profile and the trace audit share: int32 positions into Spans,
// by span ID, grouped by trace (IDs ascending, creation order within),
// with each span's parent, depth and children and each trace's roots,
// ordered by (Start, ID). A span's parent is the first span recorded with
// the ID it names, if that is an earlier span of its trace; else it is a
// root, so every span is in exactly one tree, once.
type Index struct {
	Spans   []SpanData
	traces  []uint64 // trace IDs, ascending
	traceAt []int32  // trace k's spans are byTrace[traceAt[k]:traceAt[k+1]]
	byTrace []int32
	byID    []int32 // every span, ordered by (ID, position); nil if the IDs count up by one, as a tracer's do
	up      []int32 // a span's parent, or len(Spans)+k for a root of trace k
	depth   []int32
	kids    []int32 // node v's children (v an up value) are kids[kidAt[v]:kidAt[v+1]]
	kidAt   []int32
}

// NewIndex indexes spans, given in creation order; it reads them in place.
func NewIndex(spans []SpanData) *Index {
	n := len(spans)
	x := &Index{Spans: spans, traces: make([]uint64, n), up: make([]int32, n), depth: make([]int32, n)}
	for i := range spans {
		if x.traces[i] = spans[i].Trace; x.byID == nil && spans[i].ID != spans[0].ID+uint64(i) {
			x.byID = make([]int32, n) // the IDs skip or repeat, unlike a tracer's: order them
		}
	}
	for i := range x.byID {
		x.byID[i] = int32(i)
	}
	slices.Sort(x.traces)
	x.traces = slices.Compact(x.traces)
	slices.SortFunc(x.byID, func(a, b int32) int { return cmp.Or(cmp.Compare(spans[a].ID, spans[b].ID), cmp.Compare(a, b)) })
	for i := range spans {
		k, _ := slices.BinarySearch(x.traces, spans[i].Trace)
		x.up[i] = int32(k) // for now, the span's trace
	}
	x.byTrace, x.traceAt = groupBy(x.up, len(x.traces), nil)
	for p := range spans { // parents precede, so depths fill in
		x.up[p] += int32(n)
		s := &spans[p]
		if e, ok := x.ByID(s.Parent); ok && s.Parent != 0 && e < int32(p) && spans[e].Trace == s.Trace {
			x.up[p], x.depth[p] = e, x.depth[e]+1
		}
	}
	x.kids, x.kidAt = groupBy(x.up, n+len(x.traces), func(a, b int32) int {
		return cmp.Or(cmp.Compare(spans[a].Start, spans[b].Start), cmp.Compare(spans[a].ID, spans[b].ID), cmp.Compare(a, b))
	})
	return x
}

// groupBy counting-sorts the positions of key by value (in [0, m)),
// each group ordered by order or else by position: group v is
// pos[at[v]:at[v+1]].
func groupBy(key []int32, m int, order func(a, b int32) int) (pos, at []int32) {
	at, pos = make([]int32, m+2), make([]int32, len(key))
	for _, v := range key {
		at[v+2]++
	}
	for v := 2; v < len(at); v++ {
		at[v] += at[v-1] // at[v+1] is now where group v starts
	}
	for i, v := range key {
		pos[at[v+1]] = int32(i)
		at[v+1]++ // until it is where group v ends: group v+1's start
	}
	for v := 0; order != nil && v < m; v++ {
		slices.SortFunc(pos[at[v]:at[v+1]], order)
	}
	return pos, at[:m+1]
}

// Traces returns the trace IDs, ascending; trace k is Traces()[k], and
// Find returns the k of an ID.
func (x *Index) Traces() []uint64                { return x.traces }
func (x *Index) Find(traceID uint64) (int, bool) { return slices.BinarySearch(x.traces, traceID) }

// ByID returns the position of the first span recorded with an ID.
func (x *Index) ByID(id uint64) (int32, bool) {
	if x.byID == nil && len(x.Spans) > 0 && id-x.Spans[0].ID < uint64(len(x.Spans)) {
		return int32(id - x.Spans[0].ID), true
	}
	j, ok := slices.BinarySearchFunc(x.byID, id, func(e int32, id uint64) int { return cmp.Compare(x.Spans[e].ID, id) })
	if !ok {
		return -1, false
	}
	return x.byID[j], true
}

// SpansOf returns trace k's spans in creation order; Roots its roots,
// Children span i's children, both ordered (Start, ID); Depth span i's
// depth in its tree.
func (x *Index) SpansOf(k int) []int32    { return x.byTrace[x.traceAt[k]:x.traceAt[k+1]] }
func (x *Index) Roots(k int) []int32      { return x.kidsOf(len(x.Spans) + k) }
func (x *Index) Children(i int32) []int32 { return x.kidsOf(int(i)) }
func (x *Index) Depth(i int32) int        { return int(x.depth[i]) }
func (x *Index) kidsOf(v int) []int32     { return x.kids[x.kidAt[v]:x.kidAt[v+1]] }
