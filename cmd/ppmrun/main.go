// Command ppmrun executes a computation described in the PPM
// configuration language on a simulated installation, optionally under
// restart supervision, then prints the genealogy snapshot and the
// watch/supervision logs.
//
// Usage:
//
//	ppmrun [-f plan.ppm] [-hosts vax1,vax2,sun1] [-supervise] [-run 30s] [-chaos]
//
// Without -f a built-in demonstration plan is used. With -chaos, a
// random worker host is crashed mid-run to exercise supervision.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"ppm"
	"ppm/internal/scenario"
)

const demoPlan = `
computation demo
proc coord  on vax1 trace all
proc stage1 on vax2 parent coord
proc stage2 on sun1 parent coord
watch exit of coord do note coordinator finished
`

func main() {
	file := flag.String("f", "", "plan file (default: built-in demo)")
	hosts := flag.String("hosts", "vax1,vax2,sun1", "comma-separated host names")
	supervise := flag.Bool("supervise", false, "restart exited processes")
	runFor := flag.Duration("run", 30*time.Second, "virtual time to run after launch")
	chaos := flag.Bool("chaos", false, "crash a worker host mid-run")
	flag.Parse()
	if err := run(*file, *hosts, *supervise, *runFor, *chaos); err != nil {
		fmt.Fprintln(os.Stderr, "ppmrun:", err)
		os.Exit(1)
	}
}

func run(file, hostList string, supervise bool, runFor time.Duration, chaos bool) error {
	text := demoPlan
	if file != "" {
		b, err := os.ReadFile(file)
		if err != nil {
			return err
		}
		text = string(b)
	}
	plan, err := ppm.ParsePlan(text)
	if err != nil {
		return err
	}

	names := strings.Split(hostList, ",")
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
	}
	cluster, err := scenario.New(ppm.ClusterConfig{Hosts: scenario.Hosts(names...)}, "user")
	if err != nil {
		return err
	}
	if len(plan.Recovery) > 0 {
		cluster.SetRecoveryList("user", plan.Recovery...)
	}
	sess, err := cluster.Attach("user", names[0])
	if err != nil {
		return err
	}

	comp, err := sess.LaunchPlan(plan)
	if err != nil {
		return err
	}
	defer comp.Close()
	fmt.Printf("launched %d processes:\n", len(comp.Names()))
	for _, n := range comp.Names() {
		id, _ := comp.Lookup(n)
		fmt.Printf("  %-10s %s\n", n, id)
	}

	var sup *ppm.Supervisor
	if supervise {
		sup = sess.NewSupervisor(5 * time.Second)
		for _, d := range plan.Procs {
			id, _ := comp.Lookup(d.Name)
			var parent ppm.GPID
			if d.Parent != "" {
				parent, _ = comp.Lookup(d.Parent)
			}
			sup.Supervise(ppm.SuperviseSpec{
				Name:   d.Name,
				Hosts:  names,
				Parent: parent,
				Policy: ppm.RestartAlways,
			}, id)
		}
		sup.Start()
		defer sup.Stop()
	}

	if chaos && len(names) > 1 {
		victim := names[1]
		if err := cluster.Advance(runFor / 2); err != nil {
			return err
		}
		fmt.Printf("\n*** chaos: crashing %s ***\n", victim)
		if err := cluster.Crash(victim); err != nil {
			return err
		}
		if err := cluster.Advance(runFor / 2); err != nil {
			return err
		}
	} else if err := cluster.Advance(runFor); err != nil {
		return err
	}

	snap, err := sess.Snapshot()
	if err != nil {
		return err
	}
	fmt.Println("\nfinal genealogy:")
	fmt.Println(snap.Render())
	if notes := comp.Notes(); len(notes) > 0 {
		fmt.Println("watch notes:")
		for _, n := range notes {
			fmt.Println("  " + n)
		}
	}
	if sup != nil {
		fmt.Printf("\nsupervision: %d restart(s)\n", sup.Restarts)
		for _, e := range sup.Events {
			fmt.Println("  " + e)
		}
	}
	return nil
}
