// "ppmtrace top" renders the cluster live-status dashboard: it builds a
// deterministic scripted installation (a coordinator plus one worker
// per host, with enough control traffic to populate the per-op latency
// histograms), then gathers a cluster-wide status sweep and prints one
// sorted row per host — process table, load, pending timers, daemon
// state, circuit table with per-circuit state and age, reply-cache and
// retry-backoff occupancy, journal ring occupancy, and p50/p95/p99
// latency per sibling-RPC op type.
//
// -watch N re-sweeps every N virtual seconds inside the scripted run
// (-sweeps K bounds how many), so the dashboard shows occupancies
// moving. -partition splits the installation in half mid-run: the sweep
// from the origin's half completes with the other half listed as
// unreachable, then the partition heals and a final sweep covers every
// host again. Everything runs on virtual time from a fixed seed, so two
// runs with the same flags are byte-identical.

package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"strings"
	"time"

	"ppm"
	"ppm/internal/journal"
	"ppm/internal/scenario"
)

// topOptions is the top mode's validated command line.
type topOptions struct {
	hosts     int
	seed      int64
	watch     int
	sweeps    int
	partition bool
}

// parseTop parses and strictly validates the command line: positional
// arguments are rejected, -sweeps requires -watch, and -partition is
// mutually exclusive with -watch (each mode scripts its own sweep
// schedule).
func parseTop(args []string) (topOptions, error) {
	var o topOptions
	fs := flag.NewFlagSet("top", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.IntVar(&o.hosts, "hosts", 8, "number of hosts in the installation (2..32)")
	fs.Int64Var(&o.seed, "seed", 1, "deterministic simulation seed (> 0)")
	fs.IntVar(&o.watch, "watch", 0,
		"re-sweep every N virtual seconds inside the run (0 = single sweep)")
	fs.IntVar(&o.sweeps, "sweeps", 3, "number of sweeps under -watch")
	fs.BoolVar(&o.partition, "partition", false,
		"partition the installation in half mid-run, then heal it")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if o.hosts < 2 || o.hosts > 32 {
		return o, fmt.Errorf("-hosts must be between 2 and 32, got %d", o.hosts)
	}
	if o.seed <= 0 {
		return o, fmt.Errorf("-seed must be > 0, got %d", o.seed)
	}
	if o.watch < 0 {
		return o, fmt.Errorf("-watch must be >= 0, got %d", o.watch)
	}
	if o.sweeps < 1 {
		return o, fmt.Errorf("-sweeps must be >= 1, got %d", o.sweeps)
	}
	sweepsSet := false
	fs.Visit(func(f *flag.Flag) { sweepsSet = sweepsSet || f.Name == "sweeps" })
	if sweepsSet && o.watch == 0 {
		return o, errors.New("-sweeps requires -watch")
	}
	if o.partition && o.watch != 0 {
		return o, errors.New("-partition is mutually exclusive with -watch")
	}
	return o, nil
}

func runTop(o topOptions, w io.Writer) error {
	names := scenario.Numbered("h%02d", 1, o.hosts)
	cc := ppm.ClusterConfig{Seed: o.seed, Hosts: scenario.Hosts(names...)}
	if o.partition {
		// Partitioned gathers exhaust their retries before a host is
		// declared unreachable; keep the retry budget small so the sweep
		// settles quickly.
		cc.LPM.Retry = ppm.RetryPolicy{MaxAttempts: 2}
	}
	origin := names[0]
	cluster, sess, err := scenario.Attach(cc, "op", origin)
	if err != nil {
		return err
	}

	// The scripted computation: a coordinator on the origin host with
	// one worker per other host. The remote creations open the circuit
	// graph and seed the CreateProc latency histogram.
	workers, err := scenario.Star(sess, names, "coordinator",
		func(h string) string { return "worker-" + h })
	if err != nil {
		return err
	}
	if err := cluster.Advance(time.Second); err != nil {
		return err
	}
	// Control traffic and a snapshot populate the Control and Broadcast
	// latency histograms.
	for _, wkr := range workers {
		if err := sess.Stop(wkr); err != nil {
			return err
		}
	}
	if _, err := sess.ContinueAll(); err != nil {
		return err
	}
	if _, err := sess.Snapshot(); err != nil {
		return err
	}
	if err := cluster.Advance(time.Second); err != nil {
		return err
	}

	// One sweep; -sweeps of them, -watch seconds apart; or three: before
	// a partition of the installation in half, during it, and after
	// its heal.
	n, gap := 1, time.Duration(o.watch)*time.Second
	switch {
	case o.partition:
		n, gap = 3, 2*time.Second
	case o.watch > 0:
		n = o.sweeps
	}
	near, far := names[:o.hosts/2], names[o.hosts/2:]
	for i := 0; i < n; i++ {
		switch {
		case o.partition && i == 1:
			fmt.Fprintf(w, "--- partition: %s | %s ---\n",
				strings.Join(near, ","), strings.Join(far, ","))
			if err := cluster.Partition(near, far); err != nil {
				return err
			}
		case o.partition && i == 2:
			fmt.Fprintln(w, "--- heal ---")
			cluster.Heal()
		}
		if i > 0 {
			if err := cluster.Advance(gap); err != nil {
				return err
			}
		}
		rep, err := cluster.StatusReport("op", origin)
		if err != nil {
			return err
		}
		fmt.Fprint(w, rep)
	}

	if vs := cluster.JournalAudit(); len(vs) > 0 {
		fmt.Fprintln(w, "journal audit:")
		fmt.Fprint(w, journal.AuditReport(vs))
		return errors.New("journal audit found violations")
	}
	fmt.Fprintln(w, "journal audit: clean")
	return nil
}
