// Snapshot: reproduces the paper's Figure 1 — the genealogy display of
// a PPM spanning three hosts, with an exited process retained while its
// children live — and then walks the four Figure 5 topologies, timing
// the snapshot over each as in Table 3.
package main

import (
	"fmt"
	"log"
	"time"

	"ppm"
	"ppm/internal/experiments"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	if err := figure1(); err != nil {
		return err
	}
	return figure5()
}

// figure1 builds the paper's Figure 1 state: a logical tree spanning
// three hosts.
func figure1() error {
	cluster, err := ppm.NewCluster(ppm.ClusterConfig{
		Hosts: []ppm.HostSpec{{Name: "hostA"}, {Name: "hostB"}, {Name: "hostC"}},
	})
	if err != nil {
		return err
	}
	cluster.AddUser("felipe")
	sess, err := cluster.Attach("felipe", "hostA")
	if err != nil {
		return err
	}

	shell, err := sess.Run("hostA", "csh")
	if err != nil {
		return err
	}
	compute, err := sess.RunChild("hostA", "compute", shell)
	if err != nil {
		return err
	}
	if _, err := sess.RunChild("hostB", "worker1", compute); err != nil {
		return err
	}
	if _, err := sess.RunChild("hostB", "worker2", compute); err != nil {
		return err
	}
	monitor, err := sess.RunChild("hostB", "monitor", shell)
	if err != nil {
		return err
	}
	if _, err := sess.RunChild("hostC", "logger", monitor); err != nil {
		return err
	}
	if err := cluster.Advance(time.Second); err != nil {
		return err
	}

	// The compute process exits; its exit information is retained while
	// its children are alive and the snapshot marks it.
	k, err := cluster.Kernel("hostA")
	if err != nil {
		return err
	}
	if err := k.Exit(compute.PID, 0); err != nil {
		return err
	}
	if err := sess.Stop(monitor); err != nil {
		return err
	}
	if err := cluster.Advance(time.Second); err != nil {
		return err
	}

	snap, err := sess.Snapshot()
	if err != nil {
		return err
	}
	fmt.Println("Figure 1 — possible state of a PPM spanning three hosts:")
	fmt.Println(snap.Render())
	return nil
}

// figure5 builds the four PPM topologies and times a snapshot over
// each (Table 3).
func figure5() error {
	fmt.Println("Figure 5 / Table 3 — snapshot time over four PPM topologies")
	rows, err := experiments.RunTable3()
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatTable3(rows))
	fmt.Println("\n(6 user processes on every remote host, as in the paper;")
	fmt.Println(" absolute values are calibrated to 1986 hardware, the shape")
	fmt.Println(" — star barely above a single link, chains far above — holds.)")
	return nil
}
