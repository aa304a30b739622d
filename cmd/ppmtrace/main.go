// Command ppmtrace is the PPM's observation tool: the data gathering,
// reduction and display tools of the paper's Section 7 behind one
// front end. Its first argument picks the mode: "top" is the cluster
// live-status dashboard (top.go), "prof" the virtual-time profiler
// (prof.go), and no mode is the tracing demo. Each runs its own
// deterministic scenario: same flags, byte-identical output.
//
// The tracing demo runs a multi-host computation under full event
// tracing, then prints the recorded timeline, the per-kind reduction,
// the IPC activity analysis and an event-rate histogram.
//
// With --spans the stop of the remote worker runs under causal
// tracing and the assembled cross-host span waterfall is printed.
// With --metrics it additionally prints the installation-wide metrics
// report: what the simulated network, wire protocol, kernels, daemons
// and LPMs counted while the scenario ran. With --status it prints the
// cluster live-status dashboard: one row per host with process table,
// load, circuit table, reliability-layer occupancies and per-op latency
// percentiles (see also the top mode). With --journal it instead
// prints the flight-recorder journal: the ordered stream of structured
// events every layer appended while the scenario ran, filterable by
// kind, host and virtual-time window. -hosts N (2..5) widens the
// scenario to N hosts with one worker per extra host. -drops N loses
// every Nth inter-host message once the computation is up, so the run
// exercises the sibling-RPC retry/redial layer — deterministically:
// same flags, same journal, losses included. -flap N runs N down/up
// cycles of the vax1<->vax2 link with the adaptive failure detector
// monitoring every circuit, so the run exercises the full circuit
// lifecycle (Established -> Suspect -> Closed -> redial) — equally
// deterministic.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"ppm"
	"ppm/internal/journal"
	"ppm/internal/scenario"
	"ppm/internal/tools"
)

// A mode is one of the command's three: the name that selects it as
// the first argument ("" for the trace demo), its flags' synopsis, and
// its command line parsed into a run.
type mode struct {
	name, synopsis string
	parse          func(args []string) (func(w io.Writer) error, error)
}

var modes = []mode{
	{"", "[-hosts N] [-drops N] [-flap N] [-spans] [-metrics] [-status] [-journal" +
		" [-journal-kinds K,...] [-journal-host H] [-journal-since D] [-journal-until D]]", bind(parseTrace, runTrace)},
	{"top", "[-hosts N] [-seed S] [-watch N [-sweeps K]] [-partition]", bind(parseTop, runTop)},
	{"prof", "[-hosts N] [-op NAME] [-host H] [-top N] [-folded | -critical]", bind(parseProf, runProf)},
}

// bind makes a mode's parse out of its parse and run halves.
func bind[O any](parse func([]string) (O, error), run func(O, io.Writer) error) func([]string) (func(io.Writer) error, error) {
	return func(args []string) (func(io.Writer) error, error) {
		o, err := parse(args)
		return func(w io.Writer) error { return run(o, w) }, err
	}
}

// command is the mode's command line up to its flags.
func (m mode) command() string { return strings.TrimSpace("ppmtrace " + m.name) }

// usage prints m's synopsis. The trace demo's is the command's own, so
// it lists every mode, and the journal's record kinds.
func usage(w io.Writer, m mode) {
	if m.name != "" {
		fmt.Fprintf(w, "usage: %s %s\n", m.command(), m.synopsis)
		return
	}
	for i, m := range modes {
		lead := "usage:"
		if i > 0 {
			lead = "      "
		}
		fmt.Fprintf(w, "%s %s %s\n", lead, m.command(), m.synopsis)
	}
	fmt.Fprintf(w, "journal record kinds: %s\n", strings.Trim(fmt.Sprint(journal.Kinds()), "[]"))
}

func main() { os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr)) }

// cli runs one command line and returns its exit status: 0 on success
// or -h, 2 on a command line its mode rejects, 1 when the run fails. A
// first argument that names no mode is the trace demo's, which rejects
// it unless it is a flag.
func cli(args []string, stdout, stderr io.Writer) int {
	m := modes[0]
	for _, sub := range modes[1:] {
		if len(args) > 0 && args[0] == sub.name {
			m, args = sub, args[1:]
			break
		}
	}
	run, err := m.parse(args)
	if errors.Is(err, flag.ErrHelp) {
		usage(stdout, m)
		return 0
	}
	if err != nil {
		fmt.Fprintln(stderr, m.command()+":", err)
		usage(stderr, m)
		return 2
	}
	if err := run(stdout); err != nil {
		fmt.Fprintln(stderr, m.command()+":", err)
		return 1
	}
	return 0
}

// traceOptions is the trace demo's validated command line.
type traceOptions struct {
	hosts       int
	drops       int
	flap        int
	showSpans   bool
	showMetrics bool
	showStatus  bool
	showJournal bool
	filter      ppm.JournalFilter // what -journal shows
}

// parseTrace parses and strictly validates the command line: positional
// arguments are rejected, -journal excludes the other report flags, the
// journal filter flags require -journal, every requested kind must name
// a known record kind (or a dotted prefix of one, e.g. "net"),
// -journal-host a host the scenario builds, and the time window must not
// be inverted.
func parseTrace(args []string) (traceOptions, error) {
	var o traceOptions
	fs := flag.NewFlagSet("ppmtrace", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.IntVar(&o.hosts, "hosts", 2, "number of hosts in the scenario (2..5)")
	fs.IntVar(&o.drops, "drops", 0,
		"lose every Nth inter-host message once the computation is up (0 = lossless)")
	fs.IntVar(&o.flap, "flap", 0,
		"flap the vax1<->vax2 link N down/up cycles with the failure detector on (0 = stable)")
	fs.BoolVar(&o.showSpans, "spans", false,
		"trace the remote stop and print the causal span waterfall")
	fs.BoolVar(&o.showMetrics, "metrics", false,
		"print the cluster metrics report after the trace output")
	fs.BoolVar(&o.showStatus, "status", false,
		"print the cluster live-status dashboard after the trace output")
	fs.BoolVar(&o.showJournal, "journal", false,
		"print the flight-recorder journal after the trace output")
	kinds := fs.String("journal-kinds", "",
		"comma-separated record kinds (or kind prefixes) to show")
	fs.StringVar(&o.filter.Host, "journal-host", "",
		"only journal records attributed to this host")
	fs.DurationVar(&o.filter.Since, "journal-since", 0,
		"only journal records at or after this virtual time")
	fs.DurationVar(&o.filter.Until, "journal-until", 0,
		"only journal records at or before this virtual time")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if o.hosts < 2 || o.hosts > 5 {
		return o, fmt.Errorf("-hosts must be between 2 and 5, got %d", o.hosts)
	}
	if o.drops < 0 {
		return o, fmt.Errorf("-drops must be >= 0, got %d", o.drops)
	}
	if o.flap < 0 {
		return o, fmt.Errorf("-flap must be >= 0, got %d", o.flap)
	}
	if o.showJournal && (o.showSpans || o.showMetrics || o.showStatus) {
		return o, errors.New("-journal is mutually exclusive with -spans, -metrics and -status")
	}
	if !o.showJournal && (*kinds != "" || o.filter.Host != "" ||
		o.filter.Since != 0 || o.filter.Until != 0) {
		return o, errors.New("-journal-kinds, -journal-host, -journal-since and -journal-until require -journal")
	}
	if *kinds != "" {
		var err error
		if o.filter.Kinds, err = journal.ParseKinds(*kinds); err != nil {
			return o, err
		}
	}
	if o.filter.Host != "" && !slices.Contains(hostNames(o.hosts), o.filter.Host) {
		return o, fmt.Errorf("-journal-host %q is not in the scenario (vax1..vax%d)", o.filter.Host, o.hosts)
	}
	if o.filter.Until != 0 && o.filter.Until < o.filter.Since {
		return o, fmt.Errorf("-journal-until %v is before -journal-since %v", o.filter.Until, o.filter.Since)
	}
	return o, nil
}

// hostNames are the scenario's hosts: vax1, vax2, ...
func hostNames(n int) []string { return scenario.Numbered("vax%d", 1, n) }

func runTrace(o traceOptions, w io.Writer) error {
	names := hostNames(o.hosts)
	cc := ppm.ClusterConfig{Hosts: scenario.Hosts(names...)}
	if o.drops > 0 {
		// Losses sever circuits; give the retry engine headroom so the
		// scenario's control traffic still lands exactly once.
		cc.LPM.Retry = ppm.RetryPolicy{MaxAttempts: 6}
	}
	if o.flap > 0 {
		// Down windows sever circuits too, and the detector needs
		// heartbeats to drive the Suspect transitions the flap run is
		// meant to journal.
		cc.LPM.Retry = ppm.RetryPolicy{MaxAttempts: 6}
		cc.LPM.Linktest = 250 * time.Millisecond
	}
	cluster, sess, err := scenario.Attach(cc, "user", "vax1")
	if err != nil {
		return err
	}

	// A small computation traced at the finest granularity.
	root, err := sess.Run("vax1", "coordinator")
	if err != nil {
		return err
	}
	if err := sess.SetTraceMask(root.PID, ppm.TraceAll); err != nil {
		return err
	}
	// One worker per other host: "worker" on vax2 (the one the rest of
	// the scenario controls), "worker3", "worker4", ... beyond it.
	workers, err := scenario.Workers(sess, names, root, func(h string) string {
		if h == "vax2" {
			return "worker"
		}
		return "worker" + h[3:]
	})
	if err != nil {
		return err
	}
	worker := workers[0]
	if err := cluster.Advance(time.Second); err != nil {
		return err
	}
	// With -drops, the computation is built lossless and then the rest
	// of the scenario — control, history floods, the traced stop — runs
	// over a lossy network, riding the reliability layer.
	cluster.InjectLoss(o.drops)
	// With -flap, the link to the worker host starts its down/up cycles
	// here: the control traffic below crosses the flap schedule and the
	// detector journals the circuit lifecycle around each outage.
	if o.flap > 0 {
		cluster.FlapLink("vax1", "vax2", 1200*time.Millisecond, 800*time.Millisecond, o.flap)
	}

	// Generate activity: syscalls, files, IPC, control.
	k1, err := cluster.Kernel("vax1")
	if err != nil {
		return err
	}
	for i := 0; i < 5; i++ {
		if err := k1.Syscall(root.PID, "read"); err != nil {
			return err
		}
		fd, err := k1.OpenFD(root.PID, fmt.Sprintf("/tmp/chunk%d", i))
		if err != nil {
			return err
		}
		k1.AccountIPC(root.PID, 1, 1, "worker channel")
		if err := k1.CloseFD(root.PID, fd); err != nil {
			return err
		}
		if err := cluster.Advance(300 * time.Millisecond); err != nil {
			return err
		}
	}
	var stopTrace uint64
	if o.showSpans {
		stopTrace, err = cluster.Trace(func() error { return sess.Stop(worker) })
	} else {
		err = sess.Stop(worker)
	}
	if err != nil {
		return err
	}
	if err := sess.Foreground(worker); err != nil {
		return err
	}
	if err := sess.Kill(worker); err != nil {
		return err
	}
	if err := cluster.Advance(time.Second); err != nil {
		return err
	}
	// Let every remaining flap cycle run out and the circuits re-knit,
	// so the journal carries the full lifecycle of each outage.
	if o.flap > 0 {
		if err := cluster.Advance(time.Duration(o.flap) * 2 * time.Second); err != nil {
			return err
		}
	}

	evs, err := sess.History(ppm.HistoryQuery{})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "=== event timeline ===")
	fmt.Fprint(w, tools.FormatTimeline(evs))

	fmt.Fprintln(w, "\n=== reduction ===")
	fmt.Fprint(w, sess.Manager().History().Reduce().Format())

	fmt.Fprintln(w, "\n=== IPC activity ===")
	fmt.Fprint(w, tools.FormatIPC(tools.AnalyzeIPC(evs)))

	fmt.Fprintln(w, "\n=== event rate (500ms buckets) ===")
	fmt.Fprint(w, tools.HistogramOf(evs, 500*time.Millisecond).Format())

	// The preserved record of the killed worker.
	info, err := sess.Stats(worker)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "\n=== exited worker record ===")
	fmt.Fprint(w, tools.FormatStats(info))

	if o.showSpans {
		fmt.Fprintln(w)
		fmt.Fprint(w, cluster.TraceReport(stopTrace))
	}
	if o.showMetrics {
		fmt.Fprintln(w)
		fmt.Fprint(w, cluster.MetricsReport())
	}
	if o.showStatus {
		status, err := cluster.StatusReport("user", "vax1")
		if err != nil {
			return err
		}
		fmt.Fprintln(w)
		fmt.Fprint(w, status)
	}
	if o.showJournal {
		fmt.Fprintln(w)
		fmt.Fprint(w, cluster.JournalReport(o.filter))
	}
	return nil
}
