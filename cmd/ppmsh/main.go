// Command ppmsh is a small shell over a simulated PPM installation: it
// reads commands from stdin, drives the virtual clock, and exercises
// every user-facing facility of the paper — remote creation, control
// across machine boundaries, snapshots, broadcast interrupts, resource
// statistics, history, event-driven actions, and failure injection.
//
// Commands:
//
//	hosts                         list hosts and their load averages
//	run <host> <name>             create an adopted process
//	child <host> <name> <h,p>     create with an explicit logical parent
//	snap                          genealogy snapshot (Figure 1 display)
//	ps                            tabular process listing with resources
//	locate <name>                 execution sites of processes by name
//	stop|cont|kill <h,p>          process control anywhere
//	stopall | contall | killall   broadcast control
//	stats <h,p>                   resource consumption (pstat)
//	fds <h,p>                     open descriptors (fdstat)
//	hist [h,p]                    event history timeline
//	watch <event> <h,p> <op> <h,p> event-driven action on the observer's host
//	trace on|show|off             network-level message tracing
//	crash <host> | restart <host> failure injection
//	part <h1,h2|h3,...>           network partition; "heal" to undo
//	sleep <dur>                   advance virtual time
//	time                          print the virtual clock
//	quit
package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"ppm"
	"ppm/internal/scenario"
	"ppm/internal/tools"
)

func main() {
	if err := run(os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ppmsh:", err)
		os.Exit(1)
	}
}

func parseGPID(s string) (ppm.GPID, error) {
	s = strings.TrimPrefix(strings.TrimSuffix(s, ">"), "<")
	parts := strings.SplitN(s, ",", 2)
	if len(parts) != 2 {
		return ppm.GPID{}, fmt.Errorf("bad process id %q (want host,pid)", s)
	}
	pid, err := strconv.Atoi(parts[1])
	if err != nil {
		return ppm.GPID{}, fmt.Errorf("bad pid in %q", s)
	}
	return ppm.GPID{Host: parts[0], PID: ppm.PID(pid)}, nil
}

func run(in io.Reader, out io.Writer) error {
	hosts := []ppm.HostSpec{
		{Name: "vax1", Type: ppm.VAX780},
		{Name: "vax2", Type: ppm.VAX750},
		{Name: "sun1", Type: ppm.SunII},
	}
	cluster, err := scenario.New(ppm.ClusterConfig{Hosts: hosts}, "user")
	if err != nil {
		return err
	}
	cluster.SetRecoveryList("user", "vax1", "vax2", "sun1")
	sess, err := cluster.Attach("user", "vax1")
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "ppm shell: user@vax1, hosts vax1 (VAX 780), vax2 (VAX 750), sun1 (Sun II)\n")

	st := &shellState{}
	sc := bufio.NewScanner(in)
	for {
		fmt.Fprintf(out, "ppm> ")
		if !sc.Scan() {
			fmt.Fprintln(out)
			return sc.Err()
		}
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		if err := dispatch(cluster, sess, st, out, fields); err != nil {
			if err == errQuit {
				return nil
			}
			fmt.Fprintf(out, "error: %v\n", err)
		}
	}
}

var errQuit = fmt.Errorf("quit")

// shellState carries mutable shell session state across commands.
type shellState struct {
	// traceArmed says "trace on" ran; traceFrom is the journal position
	// it ran at, so "trace show" reduces the records appended since.
	traceArmed bool
	traceFrom  uint64
}

func dispatch(cluster *ppm.Cluster, sess *ppm.Session, st *shellState, out io.Writer, fields []string) error {
	cmd, args := fields[0], fields[1:]
	need := func(n int) error {
		if len(args) < n {
			return fmt.Errorf("%s: need %d argument(s)", cmd, n)
		}
		return nil
	}
	switch cmd {
	case "quit", "exit":
		return errQuit

	case "time":
		fmt.Fprintf(out, "%v\n", cluster.Now())

	case "hosts":
		for _, h := range cluster.Network().Hosts() {
			la, err := cluster.LoadAvg(h)
			status := "up"
			if !cluster.Network().Up(h) {
				status = "down"
				la, err = 0, nil
			}
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "  %-6s %-5s la=%.2f\n", h, status, la)
		}

	case "run":
		if err := need(2); err != nil {
			return err
		}
		id, err := sess.Run(args[0], args[1])
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "created %s\n", id)

	case "child":
		if err := need(3); err != nil {
			return err
		}
		parent, err := parseGPID(args[2])
		if err != nil {
			return err
		}
		id, err := sess.RunChild(args[0], args[1], parent)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "created %s (parent %s)\n", id, parent)

	case "snap":
		snap, err := sess.Snapshot()
		if err != nil {
			return err
		}
		fmt.Fprint(out, snap.Render())

	case "ps":
		snap, err := sess.Snapshot()
		if err != nil {
			return err
		}
		fmt.Fprint(out, tools.FormatSnapshotTable(snap))

	case "locate":
		if err := need(1); err != nil {
			return err
		}
		ids, err := sess.Locate(args[0])
		if err != nil {
			return err
		}
		if len(ids) == 0 {
			fmt.Fprintf(out, "no process named %q\n", args[0])
			break
		}
		for _, id := range ids {
			fmt.Fprintf(out, "  %s\n", id)
		}

	case "stop", "cont", "kill":
		if err := need(1); err != nil {
			return err
		}
		id, err := parseGPID(args[0])
		if err != nil {
			return err
		}
		switch cmd {
		case "stop":
			err = sess.Stop(id)
		case "cont":
			err = sess.Foreground(id)
		case "kill":
			err = sess.Kill(id)
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%s %s ok\n", cmd, id)

	case "stopall", "contall", "killall":
		var n int
		var err error
		switch cmd {
		case "stopall":
			n, err = sess.StopAll()
		case "contall":
			n, err = sess.ContinueAll()
		case "killall":
			n, err = sess.KillAll()
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%s affected %d processes\n", cmd, n)

	case "stats":
		if err := need(1); err != nil {
			return err
		}
		id, err := parseGPID(args[0])
		if err != nil {
			return err
		}
		info, err := sess.Stats(id)
		if err != nil {
			return err
		}
		fmt.Fprint(out, tools.FormatStats(info))

	case "fds":
		if err := need(1); err != nil {
			return err
		}
		id, err := parseGPID(args[0])
		if err != nil {
			return err
		}
		open, err := sess.OpenFiles(id)
		if err != nil {
			return err
		}
		fmt.Fprint(out, tools.FormatFDs(id, open))

	case "hist":
		q := ppm.HistoryQuery{}
		if len(args) > 0 {
			id, err := parseGPID(args[0])
			if err != nil {
				return err
			}
			q.Proc = id
		}
		evs, err := sess.History(q)
		if err != nil {
			return err
		}
		fmt.Fprint(out, tools.FormatTimeline(evs))

	case "watch":
		// watch exit <vax2,6> kill <vax1,7>
		if err := need(4); err != nil {
			return err
		}
		kinds := map[string]ppm.EventKind{
			"exit": ppm.EvExit, "stop": ppm.EvStop, "cont": ppm.EvCont,
			"fork": ppm.EvFork, "exec": ppm.EvExec,
		}
		kind, ok := kinds[args[0]]
		if !ok {
			return fmt.Errorf("watch: unknown event %q", args[0])
		}
		observed, err := parseGPID(args[1])
		if err != nil {
			return err
		}
		ops := map[string]ppm.ControlOp{
			"stop": ppm.OpStop, "cont": ppm.OpForeground, "kill": ppm.OpKill,
		}
		op, ok := ops[args[2]]
		if !ok {
			return fmt.Errorf("watch: unknown action %q", args[2])
		}
		target, err := parseGPID(args[3])
		if err != nil {
			return err
		}
		if _, err := sess.OnEventAt(observed.Host, &ppm.Watch{
			Kind: kind, Proc: observed,
		}, op, 0, target); err != nil {
			return err
		}
		fmt.Fprintf(out, "watch installed on %s: %s of %s -> %s %s\n",
			observed.Host, args[0], observed, args[2], target)

	case "trace":
		if err := need(1); err != nil {
			return err
		}
		switch args[0] {
		case "on":
			st.traceArmed, st.traceFrom = true, cluster.Journal().Seq()
			fmt.Fprintln(out, "network trace armed")
		case "show":
			if !st.traceArmed {
				return fmt.Errorf("trace: not armed (use 'trace on')")
			}
			fmt.Fprint(out, tools.FormatFlows(cluster.Journal().Flows(st.traceFrom)))
		case "off":
			st.traceArmed = false
			fmt.Fprintln(out, "network trace off")
		default:
			return fmt.Errorf("trace: on|show|off")
		}

	case "crash":
		if err := need(1); err != nil {
			return err
		}
		if err := cluster.Crash(args[0]); err != nil {
			return err
		}
		fmt.Fprintf(out, "%s crashed\n", args[0])

	case "restart":
		if err := need(1); err != nil {
			return err
		}
		if err := cluster.Restart(args[0]); err != nil {
			return err
		}
		fmt.Fprintf(out, "%s restarted\n", args[0])

	case "part":
		if err := need(1); err != nil {
			return err
		}
		var groups [][]string
		for _, g := range strings.Split(args[0], "|") {
			groups = append(groups, strings.Split(g, ","))
		}
		if err := cluster.Partition(groups...); err != nil {
			return err
		}
		fmt.Fprintf(out, "partitioned: %s\n", args[0])

	case "heal":
		cluster.Heal()
		fmt.Fprintln(out, "healed")

	case "sleep":
		if err := need(1); err != nil {
			return err
		}
		d, err := time.ParseDuration(args[0])
		if err != nil {
			return err
		}
		if err := cluster.Advance(d); err != nil {
			return err
		}
		fmt.Fprintf(out, "now %v\n", cluster.Now())

	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
	return nil
}
