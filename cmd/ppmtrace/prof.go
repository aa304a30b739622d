// "ppmtrace prof" demonstrates the PPM's virtual-time profiler: it
// runs a deterministic multi-host scenario — process creation across
// the installation, warm control round trips, snapshot and broadcast
// floods, a cluster-wide status sweep — with causal tracing enabled,
// then feeds the recorded spans and journal records to
// internal/profile and prints the analysis: the "where did the time
// go" data-reduction tool.
//
// The default report is the aggregated per-op-type phase attribution
// table (network, reply, dispatch, backoff, kernel, unattributed —
// summing exactly to each op's end-to-end virtual time) followed by
// per-host busy/queue-depth timelines. -critical prints instead the
// critical path of the slowest request of each op type, with per-hop
// slack; -folded prints the flamegraph-compatible folded-stacks
// export. -op and -host narrow the analysis; -top N bounds the table.
// Same flags, byte-identical output on every run.

package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"slices"
	"strings"
	"time"

	"ppm"
	"ppm/internal/detord"
	"ppm/internal/journal"
	"ppm/internal/profile"
	"ppm/internal/scenario"
)

// profOptions is the prof mode's validated command line.
type profOptions struct {
	hosts    int
	op       string
	host     string
	top      int
	folded   bool
	critical bool
}

// parseProf parses and strictly validates the command line: positional
// arguments are rejected, -folded and -critical are mutually exclusive
// output modes, -top must be positive and is meaningless for -folded,
// and -host must name a host the scenario actually builds (-op is held
// to the op types the run recorded, in runProf).
func parseProf(args []string) (profOptions, error) {
	var o profOptions
	fs := flag.NewFlagSet("prof", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.IntVar(&o.hosts, "hosts", 8, "number of hosts in the scenario (2..24)")
	fs.StringVar(&o.op, "op", "",
		"only profile requests of this op type (e.g. snapshot, or op.snapshot)")
	fs.StringVar(&o.host, "host", "",
		"only profile requests originating on this host (e.g. h01)")
	fs.IntVar(&o.top, "top", 0,
		"show only the N most expensive op types (0 = all)")
	fs.BoolVar(&o.folded, "folded", false,
		"print the flamegraph-compatible folded-stacks export instead of the table")
	fs.BoolVar(&o.critical, "critical", false,
		"print the critical path of the slowest request per op type instead of the table")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if o.hosts < 2 || o.hosts > 24 {
		return o, fmt.Errorf("-hosts must be between 2 and 24, got %d", o.hosts)
	}
	if o.top < 0 {
		return o, fmt.Errorf("-top must be >= 0, got %d", o.top)
	}
	if o.folded && o.critical {
		return o, errors.New("-folded and -critical are mutually exclusive")
	}
	if o.folded && o.top != 0 {
		return o, errors.New("-top is meaningless with -folded (stacks are not ranked)")
	}
	if o.host != "" && !slices.Contains(profHosts(o.hosts), o.host) {
		return o, fmt.Errorf("-host %q is not in the scenario (h01..h%02d)", o.host, o.hosts)
	}
	return o, nil
}

// profHosts are the scenario's hosts: h01, h02, ...
func profHosts(n int) []string { return scenario.Numbered("h%02d", 1, n) }

// runProf builds the scenario, records it under tracing, and prints the
// requested analysis.
func runProf(o profOptions, w io.Writer) error {
	prof, cluster, err := record(o)
	if err != nil {
		return err
	}
	// Like -host, -op must name something the run holds: a typo would
	// otherwise read as an empty profile with a clean audit.
	if o.op != "" {
		recorded := make(map[string]bool)
		for _, r := range prof.Requests {
			recorded[r.Op] = true
		}
		if !recorded[o.op] && !recorded["op."+o.op] {
			return fmt.Errorf("-op %q matches no recorded op type (the run recorded %s)",
				o.op, strings.Join(detord.Keys(recorded), ", "))
		}
	}
	opts := profile.Options{Op: o.op, Host: o.host, Top: o.top}
	switch {
	case o.folded:
		fmt.Fprint(w, prof.FoldedStacks(opts))
	case o.critical:
		fmt.Fprint(w, prof.CriticalReport(opts))
	default:
		fmt.Fprint(w, prof.Report(opts))
		// The profiler's inputs are only as good as the run's
		// bookkeeping: hold the journal and span table to the audit
		// invariants (every span closed exactly once, children nested,
		// cross-links resolving) before anyone trusts the numbers.
		if vs := cluster.JournalAudit(); len(vs) > 0 {
			fmt.Fprintf(w, "\njournal/trace audit: %d violations\n", len(vs))
			fmt.Fprint(w, journal.AuditReport(vs))
			return errors.New("audit failed")
		}
		fmt.Fprintf(w, "\njournal/trace audit: clean\n")
	}
	return nil
}

// record runs the scripted scenario under tracing and returns its
// profile. The scenario is fixed — same flags, same virtual history —
// so every analysis of it is byte-identical.
func record(o profOptions) (*profile.Profile, *ppm.Cluster, error) {
	names := profHosts(o.hosts)
	cluster, sess, err := scenario.Attach(ppm.ClusterConfig{Hosts: scenario.Hosts(names...)}, "user", "h01")
	if err != nil {
		return nil, nil, err
	}
	// Record everything: every tool op from here on roots its own
	// trace. The 24-host flood modes record a few thousand spans, so
	// widen the buffer — attribution needs the complete table.
	cluster.Tracer().SetMaxSpans(1 << 17)
	cluster.Tracer().Enable()

	// Phase 1: build the computation — one coordinator, one worker per
	// remote host. Each remote create pays the cold path: pmd query,
	// circuit establishment, fork/exec/adopt on the far kernel.
	workers, err := scenario.Star(sess, names, "coordinator", scenario.Named("worker"))
	if err != nil {
		return nil, nil, err
	}
	if err := cluster.Advance(time.Second); err != nil {
		return nil, nil, err
	}

	// Phase 2: warm control round trips over the established circuits.
	for round := 0; round < 2; round++ {
		for _, wkr := range workers {
			if err := sess.Stop(wkr); err != nil {
				return nil, nil, err
			}
		}
		if _, err := sess.ContinueAll(); err != nil {
			return nil, nil, err
		}
		if err := cluster.Advance(500 * time.Millisecond); err != nil {
			return nil, nil, err
		}
	}

	// Phase 3: the multi-hop fan-outs the critical-path extractor is
	// for — a snapshot flood and a cluster-wide status sweep.
	if _, err := sess.Snapshot(); err != nil {
		return nil, nil, err
	}
	if _, err := sess.Status(); err != nil {
		return nil, nil, err
	}
	if err := cluster.Advance(time.Second); err != nil {
		return nil, nil, err
	}
	cluster.Tracer().Disable()
	return cluster.Profile(), cluster, nil
}
