// Package tools contains the data reduction and data representation
// tools that interface with the PPM (paper §4 and §7): the snapshot
// display with its process-control verbs lives in the proc and ppm
// packages; here are the textual reports the paper lists as built-in or
// planned — exited-process resource-consumption statistics (pstat), the
// open/closed-files display (fdstat), IPC activity tracing and
// analysis (ipctrace), the per-host-pair flows for assessing message
// routing, and an event timeline for the historical data gathering tool.
package tools

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"ppm/internal/detord"
	"ppm/internal/journal"
	"ppm/internal/proc"
)

// FormatStats renders the resource-consumption report of one process,
// the paper's second built-in tool.
func FormatStats(info proc.Info) string {
	var b strings.Builder
	fmt.Fprintf(&b, "process %s (%s) user=%s state=%s\n",
		info.ID, info.Name, info.User, info.State)
	if info.State == proc.Exited {
		fmt.Fprintf(&b, "  exit code %d after %v\n",
			info.ExitCode, info.ExitedAt-info.StartedAt)
	}
	r := info.Rusage
	fmt.Fprintf(&b, "  cpu time   %v\n", r.CPUTime)
	fmt.Fprintf(&b, "  syscalls   %d\n", r.Syscalls)
	fmt.Fprintf(&b, "  msgs sent  %d\n", r.MsgsSent)
	fmt.Fprintf(&b, "  msgs recv  %d\n", r.MsgsRecv)
	if r.MaxRSSKB > 0 {
		fmt.Fprintf(&b, "  max rss    %d KB\n", r.MaxRSSKB)
	}
	return b.String()
}

// FormatStatsTable renders a multi-process resource summary sorted by
// CPU time, descending.
func FormatStatsTable(infos []proc.Info) string {
	sorted := append([]proc.Info(nil), infos...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Rusage.CPUTime != sorted[j].Rusage.CPUTime {
			return sorted[i].Rusage.CPUTime > sorted[j].Rusage.CPUTime
		}
		return sorted[i].ID.String() < sorted[j].ID.String()
	})
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s %-12s %-8s %12s %9s %6s %6s\n",
		"process", "name", "state", "cpu", "syscalls", "sent", "recv")
	for _, p := range sorted {
		fmt.Fprintf(&b, "%-20s %-12s %-8s %12v %9d %6d %6d\n",
			p.ID, p.Name, p.State, p.Rusage.CPUTime, p.Rusage.Syscalls,
			p.Rusage.MsgsSent, p.Rusage.MsgsRecv)
	}
	return b.String()
}

// FormatFDs renders the open-descriptor display of one process (a §7
// planned tool).
func FormatFDs(id proc.GPID, open []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "open descriptors of %s:\n", id)
	if len(open) == 0 {
		b.WriteString("  (none)\n")
		return b.String()
	}
	for _, fd := range open {
		parts := strings.SplitN(fd, ":", 2)
		if len(parts) == 2 {
			fmt.Fprintf(&b, "  %3s  %s\n", parts[0], parts[1])
		} else {
			fmt.Fprintf(&b, "  %s\n", fd)
		}
	}
	return b.String()
}

// IPCStat summarizes message activity for one process, computed from
// EvIPC history events (the §7 IPC tracing and analysis tool).
type IPCStat struct {
	Proc   proc.GPID
	Events int
	First  time.Duration
	Last   time.Duration
}

// AnalyzeIPC reduces a history trace to per-process IPC activity.
func AnalyzeIPC(events []proc.Event) []IPCStat {
	byProc := make(map[proc.GPID]*IPCStat)
	var order []proc.GPID
	for _, ev := range events {
		if ev.Kind != proc.EvIPC {
			continue
		}
		st, ok := byProc[ev.Proc]
		if !ok {
			st = &IPCStat{Proc: ev.Proc, First: ev.At}
			byProc[ev.Proc] = st
			order = append(order, ev.Proc)
		}
		st.Events++
		st.Last = ev.At
	}
	detord.SortBy(order, proc.GPID.String)
	out := make([]IPCStat, 0, len(order))
	for _, id := range order {
		out = append(out, *byProc[id])
	}
	return out
}

// FormatIPC renders the IPC activity analysis.
func FormatIPC(stats []IPCStat) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s %8s %14s %14s %10s\n", "process", "events", "first", "last", "rate/s")
	for _, s := range stats {
		span := (s.Last - s.First).Seconds()
		rate := 0.0
		if span > 0 {
			rate = float64(s.Events-1) / span
		}
		fmt.Fprintf(&b, "%-20s %8d %14v %14v %10.2f\n", s.Proc, s.Events, s.First, s.Last, rate)
	}
	return b.String()
}

// FormatFlows renders the per-host-pair network flows of a trace
// (journal.Flows), noting the records the journal ring evicted from
// the traced stretch.
func FormatFlows(flows []journal.Flow, evicted uint64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-10s %8s %10s %6s\n", "from", "to", "msgs", "bytes", "drops")
	for _, f := range flows {
		fmt.Fprintf(&b, "%-10s %-10s %8d %10d %6d\n", f.From, f.To, f.Msgs, f.Bytes, f.Drops)
	}
	if evicted > 0 {
		fmt.Fprintf(&b, "(trace truncated: the journal ring evicted %d records of it)\n", evicted)
	}
	return b.String()
}

// FormatTimeline renders a history trace as one line per event, the
// historical data gathering tool's raw display.
func FormatTimeline(events []proc.Event) string {
	var b strings.Builder
	for _, ev := range events {
		fmt.Fprintf(&b, "%12v  %-8s %-18s", ev.At, ev.Kind, ev.Proc)
		switch {
		case ev.Kind == proc.EvFork && !ev.Child.IsZero():
			fmt.Fprintf(&b, " child=%s", ev.Child)
		case ev.Signal != 0:
			fmt.Fprintf(&b, " sig=%s", ev.Signal)
		}
		if ev.Detail != "" {
			fmt.Fprintf(&b, " %s", ev.Detail)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Histogram buckets event counts over fixed-width time windows, a
// simple data reduction for display tools.
type Histogram struct {
	Width   time.Duration
	Start   time.Duration
	Buckets []int
}

// HistogramOf reduces events into count-per-window buckets.
func HistogramOf(events []proc.Event, width time.Duration) Histogram {
	h := Histogram{Width: width}
	if len(events) == 0 || width <= 0 {
		return h
	}
	h.Start = events[0].At
	for _, ev := range events {
		idx := int((ev.At - h.Start) / width)
		if idx < 0 {
			continue
		}
		for len(h.Buckets) <= idx {
			h.Buckets = append(h.Buckets, 0)
		}
		h.Buckets[idx]++
	}
	return h
}

// Format renders the histogram as an ASCII bar chart.
func (h Histogram) Format() string {
	var b strings.Builder
	max := 0
	for _, n := range h.Buckets {
		if n > max {
			max = n
		}
	}
	if max == 0 {
		return "(no events)\n"
	}
	const barWidth = 40
	for i, n := range h.Buckets {
		at := h.Start + time.Duration(i)*h.Width
		bar := strings.Repeat("#", n*barWidth/max)
		fmt.Fprintf(&b, "%12v %4d %s\n", at, n, bar)
	}
	return b.String()
}

// FormatSnapshotTable renders a snapshot as a process table: genealogy
// shown by indentation, with state and resource columns — the tabular
// display tool of §7.
func FormatSnapshotTable(s proc.Snapshot) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-34s %-8s %12s %9s %8s\n",
		"process", "state", "cpu", "syscalls", "rss(KB)")
	var walk func(p proc.Info, depth int)
	walk = func(p proc.Info, depth int) {
		name := strings.Repeat("  ", depth) + p.ID.String() + " " + p.Name
		if len(name) > 34 {
			name = name[:34]
		}
		fmt.Fprintf(&b, "%-34s %-8s %12v %9d %8d\n",
			name, p.State, p.Rusage.CPUTime, p.Rusage.Syscalls, p.Rusage.MaxRSSKB)
		for _, k := range s.Children(p.ID) {
			walk(k, depth+1)
		}
	}
	for _, r := range s.Roots() {
		walk(r, 0)
	}
	if len(s.Partial) > 0 {
		fmt.Fprintf(&b, "[no information from: %s]\n", strings.Join(s.Partial, ", "))
	}
	return b.String()
}
