package trace

import (
	"cmp"
	"slices"
)

// Index is the tree view of a span table, built once per read for the
// waterfall renderer and internal/profile: int32 positions into Spans,
// grouped by trace (IDs ascending, creation order within), with each
// span's parent, depth and children and each trace's roots, ordered by
// (Start, ID). A span's parent is the latest earlier span of its trace
// with the ID it names; one with none is a root, so every span is in
// exactly one tree, once.
type Index struct {
	Spans   []SpanData
	traces  []uint64 // trace IDs, ascending
	traceAt []int32  // trace k's spans are byTrace[traceAt[k]:traceAt[k+1]]
	byTrace []int32
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
		x.traces[i] = spans[i].Trace
	}
	slices.Sort(x.traces)
	x.traces = slices.Compact(x.traces)
	for i := range spans {
		k, _ := slices.BinarySearch(x.traces, spans[i].Trace)
		x.up[i] = int32(k) // for now, the span's trace
	}
	x.byTrace, x.traceAt = groupBy(x.up, len(x.traces), nil)
	// A parent is searched for just before the span in its trace's spans
	// ordered by (ID, position); parents precede, so depths fill in.
	byID, _ := groupBy(x.up, len(x.traces), func(a, b int32) int {
		return cmp.Or(cmp.Compare(spans[a].ID, spans[b].ID), cmp.Compare(a, b))
	})
	for k := range x.traces {
		ids := byID[x.traceAt[k]:x.traceAt[k+1]]
		for _, p := range x.SpansOf(k) {
			x.up[p] = int32(n + k)
			id := spans[p].Parent
			j, _ := slices.BinarySearchFunc(ids, p, func(e, self int32) int {
				return cmp.Or(cmp.Compare(spans[e].ID, id), cmp.Compare(e, self))
			})
			if id != 0 && j > 0 && spans[ids[j-1]].ID == id {
				x.up[p], x.depth[p] = ids[j-1], x.depth[ids[j-1]]+1
			}
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

// SpansOf returns trace k's spans in creation order; Roots its roots,
// Children span i's children, both ordered (Start, ID); Depth span i's
// depth in its tree.
func (x *Index) SpansOf(k int) []int32    { return x.byTrace[x.traceAt[k]:x.traceAt[k+1]] }
func (x *Index) Roots(k int) []int32      { return x.kidsOf(len(x.Spans) + k) }
func (x *Index) Children(i int32) []int32 { return x.kidsOf(int(i)) }
func (x *Index) Depth(i int32) int        { return int(x.depth[i]) }
func (x *Index) kidsOf(v int) []int32     { return x.kids[x.kidAt[v]:x.kidAt[v+1]] }
