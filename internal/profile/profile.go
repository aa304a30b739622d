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

	x *trace.Index // the span table's trees, shared with the tracer's renderer
}

// Build analyzes a run. Both inputs are optional views of the same run:
// the span table's index, read in place, drives the attribution, records
// the retry/timeout cross-links (a nil records slice just zeroes those).
func Build(x *trace.Index, records []journal.Record) *Profile {
	p := &Profile{x: x}
	links := make([]struct{ retries, timeouts int }, len(x.Traces())) // by trace k
	for _, r := range records {
		if k, ok := x.Find(r.Trace); ok && r.Trace != 0 {
			switch r.Kind {
			case journal.LPMRetry:
				links[k].retries++
			case journal.LPMTimeout:
				links[k].timeouts++
			}
		}
	}
	p.Requests = make([]Request, 0, len(x.Traces())) // one op root per trace
	var sw sweeper
	for i, s := range x.Spans {
		if s.Parent != 0 || !strings.HasPrefix(s.Name, "op.") {
			continue
		}
		k, _ := x.Find(s.Trace)
		p.Requests = append(p.Requests, Request{
			Trace: s.Trace, Op: s.Name, Host: s.Host,
			Start: s.Start, End: s.End,
			Phases:   sw.attribute(x, int32(i)),
			Spans:    len(x.SpansOf(k)),
			Retries:  links[k].retries,
			Timeouts: links[k].timeouts,
		})
	}
	return p
}

// sweeper carries the scratch state of the attribution sweep, reused
// across requests so per-request analysis settles into zero steady
// allocations.
type sweeper struct {
	cand   []candidate
	bounds []time.Duration
	stack  []int32
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
func (sw *sweeper) attribute(x *trace.Index, root int32) [numPhases]time.Duration {
	var out [numPhases]time.Duration
	lo, hi := x.Spans[root].Start, x.Spans[root].End
	if hi <= lo {
		return out
	}
	sw.cand = sw.cand[:0]
	sw.bounds = append(sw.bounds[:0], lo, hi)
	// Collect the subtree's classified spans, clipped to the window (an
	// op root is an index root, so index depths are depths under it).
	sw.stack = append(sw.stack[:0], x.Children(root)...)
	for len(sw.stack) > 0 {
		i := sw.stack[len(sw.stack)-1]
		sw.stack = append(sw.stack[:len(sw.stack)-1], x.Children(i)...)
		s := &x.Spans[i]
		if ph, ok := classify(s.Name); ok {
			cs, ce := max(s.Start, lo), min(s.End, hi)
			if ce > cs {
				sw.cand = append(sw.cand,
					candidate{start: cs, end: ce, depth: x.Depth(i), phase: ph, id: s.ID})
				sw.bounds = append(sw.bounds, cs, ce)
			}
		}
	}
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
	rootIdx := int32(-1)
	if k, ok := p.x.Find(traceID); ok {
		for _, i := range p.x.SpansOf(k) {
			if s := p.x.Spans[i]; s.Parent == 0 && strings.HasPrefix(s.Name, "op.") {
				rootIdx = i
				break
			}
		}
	}
	if rootIdx < 0 {
		return nil
	}
	var path []Hop
	var picks []int32 // scratch, reused via slicing inside expand
	var expand func(idx int32, depth int, slack time.Duration)
	expand = func(idx int32, depth int, slack time.Duration) {
		s := p.x.Spans[idx]
		path = append(path, Hop{
			Span: s.ID, Host: s.Host, Name: s.Name, Depth: depth,
			Start: s.Start, End: s.End, Slack: slack,
		})
		mark := len(picks)
		cursor := s.End
		for {
			best := int32(-1)
			for _, c := range p.x.Children(idx) {
				cs := p.x.Spans[c]
				if cs.End > cursor || cs.End <= s.Start {
					continue
				}
				if best < 0 || cs.End > p.x.Spans[best].End ||
					(cs.End == p.x.Spans[best].End && cs.ID < p.x.Spans[best].ID) {
					best = c
				}
			}
			if best < 0 {
				break
			}
			picks = append(picks, best)
			cursor = p.x.Spans[best].Start
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
				next = p.x.Spans[picks[i-1]].Start
			}
			expand(c, depth+1, next-p.x.Spans[c].End)
		}
		picks = picks[:mark]
	}
	expand(rootIdx, 0, 0)
	return path
}

// selfTime is the span's own interval minus the union of its
// children's intervals (clipped to the span) — the folded-stacks
// weight. scratch is reused for the child-interval merge.
func (p *Profile) selfTime(idx int32, scratch *[]candidate) time.Duration {
	s := p.x.Spans[idx]
	total := s.End - s.Start
	if total <= 0 {
		return 0
	}
	kids := p.x.Children(idx)
	if len(kids) == 0 {
		return total
	}
	ivs := (*scratch)[:0]
	for _, c := range kids {
		cs, ce := p.x.Spans[c].Start, p.x.Spans[c].End
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
