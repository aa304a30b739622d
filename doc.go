// Package ppm is a faithful reimplementation of the Personal Process
// Manager from "The Administration of Distributed Computations in a
// Networked Environment: An Interim Report" (Cabrera, Sechrest,
// Cáceres; ICDCS 1986), together with the simulated 1986 computing
// environment — VAX and Sun hosts running an enhanced 4.3BSD, joined by
// Ethernet segments and gateways — that its evaluation was performed
// on.
//
// The public API is the library and nothing else — two layers plus a
// few display helpers (FormatStats, FormatTimeline, ...):
//
//   - Cluster builds the networked installation: hosts (with their
//     1986 CPU models), Ethernet segments, system daemons, user
//     accounts and trust. It also drives the discrete-event clock and
//     injects failures (host crashes, network partitions).
//
//   - Session is a user's view of their PPM: it attaches to (or
//     creates, on demand) the user's Local Process Manager on a home
//     host, and offers the paper's facilities — remote process
//     creation, process control across machine boundaries, genealogy
//     snapshots, broadcast software interrupts, exited-process resource
//     statistics, open-descriptor display, event history and
//     history-dependent watches.
//
// Everything runs deterministically on a virtual clock: operations
// advance simulated time by the calibrated costs of the paper's
// hardware, so the elapsed times the paper reports in its Tables 1-3
// can be regenerated exactly. The harness that does so is not part of
// this package: it is internal/experiments, a consumer of this API, run
// by cmd/experiments and benchmarked by `go test -bench=.
// ./internal/experiments` (see EXPERIMENTS.md).
//
// A minimal use:
//
//	cluster, _ := ppm.NewCluster(ppm.ClusterConfig{
//		Hosts: []ppm.HostSpec{{Name: "vax1"}, {Name: "vax2"}},
//	})
//	sess, _ := cluster.Attach("felipe", "vax1")
//	root, _ := sess.Run("vax1", "pipeline")
//	worker, _ := sess.RunChild("vax2", "worker", root)
//	snap, _ := sess.Snapshot()
//	fmt.Println(snap.Render())
//	_ = sess.Stop(worker)
package ppm
