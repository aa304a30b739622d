// Command ppmtop renders the cluster live-status dashboard: it builds a
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
	"os"
	"strings"
	"time"

	"ppm"
	"ppm/internal/journal"
	"ppm/internal/scenario"
)

func usage(w io.Writer) {
	fmt.Fprintf(w, "usage: ppmtop [-hosts N] [-seed S] [-watch N [-sweeps K]] [-partition]\n")
}

// options is the validated command line.
type options struct {
	hosts     int
	seed      int64
	watch     int
	sweeps    int
	partition bool
}

// parseArgs parses and strictly validates the command line: positional
// arguments are rejected, -sweeps requires -watch, and -partition is
// mutually exclusive with -watch (each mode scripts its own sweep
// schedule).
func parseArgs(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("ppmtop", flag.ContinueOnError)
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

func main() {
	o, err := parseArgs(os.Args[1:])
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			usage(os.Stdout)
			return
		}
		fmt.Fprintln(os.Stderr, "ppmtop:", err)
		usage(os.Stderr)
		os.Exit(2)
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "ppmtop:", err)
		os.Exit(1)
	}
}

// sweep gathers one cluster-wide status sweep from origin and prints
// the rendered dashboard.
func sweep(cluster *ppm.Cluster, origin string) error {
	rep, err := cluster.StatusReport("op", origin)
	if err != nil {
		return err
	}
	fmt.Print(rep)
	return nil
}

func run(o options) error {
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
	for _, w := range workers {
		if err := sess.Stop(w); err != nil {
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

	switch {
	case o.partition:
		if err := sweep(cluster, origin); err != nil {
			return err
		}
		half := o.hosts / 2
		near, far := names[:half], names[half:]
		fmt.Printf("--- partition: %s | %s ---\n",
			strings.Join(near, ","), strings.Join(far, ","))
		if err := cluster.Partition(near, far); err != nil {
			return err
		}
		if err := cluster.Advance(2 * time.Second); err != nil {
			return err
		}
		if err := sweep(cluster, origin); err != nil {
			return err
		}
		fmt.Println("--- heal ---")
		cluster.Heal()
		if err := cluster.Advance(2 * time.Second); err != nil {
			return err
		}
		if err := sweep(cluster, origin); err != nil {
			return err
		}
	case o.watch > 0:
		for i := 0; i < o.sweeps; i++ {
			if i > 0 {
				if err := cluster.Advance(time.Duration(o.watch) * time.Second); err != nil {
					return err
				}
			}
			if err := sweep(cluster, origin); err != nil {
				return err
			}
		}
	default:
		if err := sweep(cluster, origin); err != nil {
			return err
		}
	}

	if vs := cluster.JournalAudit(); len(vs) > 0 {
		fmt.Println("journal audit:")
		fmt.Print(journal.AuditReport(vs))
		return errors.New("journal audit found violations")
	}
	fmt.Println("journal audit: clean")
	return nil
}
