// Package profile is the post-hoc virtual-time profiler: it consumes a
// run's trace spans (internal/trace) and journal records
// (internal/journal) and answers the administrator's question the
// paper's Section 7 data-reduction tools exist for — *where did the
// time of this operation go?*
//
// Three products come out of one Build:
//
//   - per-request phase attribution: every instant of an operation's
//     end-to-end window is assigned to exactly one phase — request
//     network transit, reply transit, dispatch queueing, retry
//     backoff, kernel exec — or reported as unattributed. The
//     assignment is a sweep over the window: at each instant the
//     deepest covering classified span wins, so by construction the
//     phases plus the unattributed remainder sum exactly to the
//     request's total (the conservation invariant Request.Conserved
//     checks);
//   - critical-path extraction: for a multi-hop fan-out (flood,
//     snapshot, status sweep) the longest dependent chain of child
//     spans — at every level the child whose completion gated its
//     parent's — with per-hop slack;
//   - aggregation: per-op-type phase tables, a flamegraph-compatible
//     folded-stacks export weighted by span self-time, and per-host
//     busy/queue-depth timelines.
//
// Everything is deterministic: spans are processed in creation order,
// maps are iterated through detord, and ties in the sweep are broken
// by (depth, phase, span ID) — two same-seed runs render byte-identical
// reports.
package profile

import (
	"strings"
	"time"

	"ppm/internal/detord"
	"ppm/internal/journal"
	"ppm/internal/trace"
)

// Phase is one attribution bucket of the profiler.
type Phase int

// The phases, in tie-break priority order (a lower phase wins when two
// classified spans cover the same instant at equal depth).
const (
	PhaseNetwork  Phase = iota // request/forward transit: net.hop.*, net.loopback
	PhaseReply                 // reply transit: net.reply.*, net.loopback.reply
	PhaseDispatch              // dispatch.*: endpoint, pmd and control dispatch costs
	PhaseBackoff               // lpm.retry.*: retry-engine backoff waits
	PhaseKernel                // exec.* and kernel.*: kernel work and event delivery
	PhaseUnattributed
	numPhases
)

var phaseNames = [numPhases]string{
	"network", "reply", "dispatch", "backoff", "kernel", "unattributed",
}

func (p Phase) String() string {
	if p < 0 || p >= numPhases {
		return "invalid"
	}
	return phaseNames[p]
}

// classify maps a span name to its phase. Structural spans — the op
// root, handler-occupancy windows (lpm.request.*), circuit
// establishment and the pmd name-server exchange — return ok=false:
// they bound other spans rather than doing work themselves, and any
// instant only they cover is honestly unattributed.
func classify(name string) (Phase, bool) {
	switch {
	case strings.HasPrefix(name, "net.reply.") || name == "net.loopback.reply":
		return PhaseReply, true
	case strings.HasPrefix(name, "net."):
		return PhaseNetwork, true
	case strings.HasPrefix(name, "dispatch."):
		return PhaseDispatch, true
	case strings.HasPrefix(name, "lpm.retry."):
		return PhaseBackoff, true
	case strings.HasPrefix(name, "exec.") || strings.HasPrefix(name, "kernel."):
		return PhaseKernel, true
	}
	return 0, false
}

// Request is the phase attribution of one traced operation.
type Request struct {
	Trace    uint64
	Op       string // root span name, e.g. "op.snapshot"
	Host     string // originating host
	Start    time.Duration
	End      time.Duration
	Phases   [numPhases]time.Duration
	Spans    int // spans recorded under this trace
	Retries  int // lpm.request.retry journal records under this trace
	Timeouts int // lpm.request.timeout journal records under this trace
}

// Total is the request's end-to-end virtual time.
func (r Request) Total() time.Duration { return r.End - r.Start }

// Conserved checks the conservation invariant: the phase buckets
// (unattributed included) sum exactly to the end-to-end total.
func (r Request) Conserved() bool {
	var sum time.Duration
	for _, d := range r.Phases {
		sum += d
	}
	return sum == r.Total()
}

// Hop is one element of a critical path. Depth is the hop's tree depth
// under the op root (the report indents by it): consecutive hops at
// equal depth are siblings that gated one another in time; a deeper
// hop explains the interval of the hop above it.
type Hop struct {
	Span  uint64
	Host  string
	Name  string
	Depth int
	Start time.Duration
	End   time.Duration
	// Slack is the idle gap between this hop completing and the next
	// dependent activity starting (the parent's completion, for a
	// final hop): how far the hop could slip without delaying the
	// chain. The root carries zero slack.
	Slack time.Duration
}

// Profile is the analyzed form of one run.
type Profile struct {
	Requests []Request

	spans    []trace.SpanData
	byID     map[uint64]int   // span ID -> index into spans
	children map[uint64][]int // span ID -> child indices, ordered (Start, ID)
	byTrace  map[uint64][]int // trace ID -> span indices, creation order
}

// Build analyzes a run. Both inputs are optional views of the same
// run: spans drive the attribution, records contribute the
// retry/timeout cross-links (a nil records slice just zeroes those).
func Build(spans []trace.SpanData, records []journal.Record) *Profile {
	p := &Profile{
		spans:    spans,
		byID:     make(map[uint64]int, len(spans)),
		children: make(map[uint64][]int),
		byTrace:  make(map[uint64][]int),
	}
	for i, s := range spans {
		p.byID[s.ID] = i
		p.byTrace[s.Trace] = append(p.byTrace[s.Trace], i)
	}
	for i, s := range spans {
		if s.Parent == 0 {
			continue
		}
		if _, ok := p.byID[s.Parent]; ok {
			p.children[s.Parent] = append(p.children[s.Parent], i)
		}
	}
	for _, idxs := range p.children {
		detord.SortBy2(idxs,
			func(i int) time.Duration { return p.spans[i].Start },
			func(i int) uint64 { return p.spans[i].ID })
	}
	retries := make(map[uint64]int)
	timeouts := make(map[uint64]int)
	for _, r := range records {
		if r.Trace == 0 {
			continue
		}
		switch r.Kind {
		case journal.LPMRetry:
			retries[r.Trace]++
		case journal.LPMTimeout:
			timeouts[r.Trace]++
		}
	}
	var sw sweeper
	for i, s := range spans {
		if s.Parent != 0 || !strings.HasPrefix(s.Name, "op.") {
			continue
		}
		req := Request{
			Trace: s.Trace, Op: s.Name, Host: s.Host,
			Start: s.Start, End: s.End,
			Spans:    len(p.byTrace[s.Trace]),
			Retries:  retries[s.Trace],
			Timeouts: timeouts[s.Trace],
		}
		req.Phases = sw.attribute(p, i)
		p.Requests = append(p.Requests, req)
	}
	return p
}

// sweeper carries the scratch state of the attribution sweep, reused
// across requests so per-request analysis settles into zero steady
// allocations.
type sweeper struct {
	cand   []candidate
	bounds []time.Duration
}

// candidate is a classified span clipped to the request window.
type candidate struct {
	start, end time.Duration
	depth      int
	phase      Phase
	id         uint64
}

// attribute assigns every instant of the root span's window to a phase:
// for each elementary interval between span boundaries, the deepest
// covering classified span wins (ties: lower phase, then lower span
// ID); instants covered only by structural spans — or by nothing — are
// unattributed. The buckets sum exactly to the window by construction.
func (sw *sweeper) attribute(p *Profile, rootIdx int) [numPhases]time.Duration {
	var out [numPhases]time.Duration
	root := p.spans[rootIdx]
	lo, hi := root.Start, root.End
	if hi <= lo {
		return out
	}
	sw.cand = sw.cand[:0]
	sw.bounds = sw.bounds[:0]
	sw.bounds = append(sw.bounds, lo, hi)
	// Depth-first walk of the root's subtree, collecting classified
	// spans clipped to the window.
	var walk func(idx, depth int)
	walk = func(idx, depth int) {
		s := p.spans[idx]
		if idx != rootIdx {
			if ph, ok := classify(s.Name); ok {
				cs, ce := s.Start, s.End
				if cs < lo {
					cs = lo
				}
				if ce > hi {
					ce = hi
				}
				if ce > cs {
					sw.cand = append(sw.cand,
						candidate{start: cs, end: ce, depth: depth, phase: ph, id: s.ID})
					sw.bounds = append(sw.bounds, cs, ce)
				}
			}
		}
		for _, c := range p.children[s.ID] {
			walk(c, depth+1)
		}
	}
	walk(rootIdx, 0)
	detord.Sort(sw.bounds)
	prev := sw.bounds[0]
	for _, b := range sw.bounds[1:] {
		if b == prev {
			continue
		}
		// The elementary interval [prev, b): boundaries include every
		// candidate edge, so coverage is all-or-nothing per interval.
		best := -1
		for i, c := range sw.cand {
			if c.start > prev || c.end < b {
				continue
			}
			if best < 0 || deeper(c, sw.cand[best]) {
				best = i
			}
		}
		if best >= 0 {
			out[sw.cand[best].phase] += b - prev
		} else {
			out[PhaseUnattributed] += b - prev
		}
		prev = b
	}
	return out
}

// deeper reports whether candidate a beats candidate b in the sweep:
// greater depth, then lower phase, then lower span ID.
func deeper(a, b candidate) bool {
	if a.depth != b.depth {
		return a.depth > b.depth
	}
	if a.phase != b.phase {
		return a.phase < b.phase
	}
	return a.id < b.id
}

// CriticalPath extracts the longest dependent chain of one trace. At
// every span, the chain is found by walking backward from the span's
// completion: the child whose end gated the cursor is picked, the
// cursor moves to that child's start, and the walk repeats — so a
// fan-out's path runs through the leg that finished last, and serial
// stages (the reply tool leg after the last flood echo) chain onto
// whatever they waited for. Each picked child is then expanded into
// its own sub-chain. A child that outlives the cursor (async kernel
// event delivery, the remote-create exec tail) never gates anything
// and is skipped. Hops come out in time order, depth-annotated.
// Returns nil for an unknown trace or one without an op root.
func (p *Profile) CriticalPath(traceID uint64) []Hop {
	rootIdx := -1
	for _, i := range p.byTrace[traceID] {
		s := p.spans[i]
		if s.Parent == 0 && strings.HasPrefix(s.Name, "op.") {
			rootIdx = i
			break
		}
	}
	if rootIdx < 0 {
		return nil
	}
	var path []Hop
	var picks []int // scratch, reused via slicing inside expand
	var expand func(idx, depth int, slack time.Duration)
	expand = func(idx, depth int, slack time.Duration) {
		s := p.spans[idx]
		path = append(path, Hop{
			Span: s.ID, Host: s.Host, Name: s.Name, Depth: depth,
			Start: s.Start, End: s.End, Slack: slack,
		})
		mark := len(picks)
		cursor := s.End
		for {
			best := -1
			for _, c := range p.children[s.ID] {
				cs := p.spans[c]
				if cs.End > cursor || cs.End <= s.Start {
					continue
				}
				if best < 0 || cs.End > p.spans[best].End ||
					(cs.End == p.spans[best].End && cs.ID < p.spans[best].ID) {
					best = c
				}
			}
			if best < 0 {
				break
			}
			picks = append(picks, best)
			cursor = p.spans[best].Start
			if cursor <= s.Start {
				break
			}
		}
		// picks[mark:] is backward in time; expand forward, each hop's
		// slack being the gap to the next dependent start (or to the
		// parent's completion for the last hop).
		for i := len(picks) - 1; i >= mark; i-- {
			c := picks[i]
			next := s.End
			if i > mark {
				next = p.spans[picks[i-1]].Start
			}
			expand(c, depth+1, next-p.spans[c].End)
		}
		picks = picks[:mark]
	}
	expand(rootIdx, 0, 0)
	return path
}

// selfTime is the span's own interval minus the union of its
// children's intervals (clipped to the span) — the folded-stacks
// weight. scratch is reused for the child-interval merge.
func (p *Profile) selfTime(idx int, scratch *[]candidate) time.Duration {
	s := p.spans[idx]
	total := s.End - s.Start
	if total <= 0 {
		return 0
	}
	kids := p.children[s.ID]
	if len(kids) == 0 {
		return total
	}
	ivs := (*scratch)[:0]
	for _, c := range kids {
		cs, ce := p.spans[c].Start, p.spans[c].End
		if cs < s.Start {
			cs = s.Start
		}
		if ce > s.End {
			ce = s.End
		}
		if ce > cs {
			ivs = append(ivs, candidate{start: cs, end: ce})
		}
	}
	detord.SortBy(ivs, func(c candidate) time.Duration { return c.start })
	var covered time.Duration
	var curEnd time.Duration
	curStart := time.Duration(-1)
	for _, iv := range ivs {
		if curStart < 0 || iv.start > curEnd {
			if curStart >= 0 {
				covered += curEnd - curStart
			}
			curStart, curEnd = iv.start, iv.end
			continue
		}
		if iv.end > curEnd {
			curEnd = iv.end
		}
	}
	if curStart >= 0 {
		covered += curEnd - curStart
	}
	*scratch = ivs
	return total - covered
}
