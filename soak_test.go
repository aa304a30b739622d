package ppm_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"ppm"
	"ppm/internal/detord"
	"ppm/internal/journal"
	"ppm/internal/lpm"
	"ppm/internal/recovery"
)

// A deterministic chaos soak: hours of virtual time of process
// management interleaved with host crashes, restarts, partitions and
// heals. soakRun asserts liveness (operations keep completing or fail
// cleanly) and final consistency (after healing, a fresh session sees a
// coherent world) and returns the cluster for its journal and metrics.
func soakRun(t *testing.T) *ppm.Cluster {
	t.Helper()
	const nHosts = 6
	var hosts []ppm.HostSpec
	var names []string
	for i := 0; i < nHosts; i++ {
		name := fmt.Sprintf("h%d", i)
		hosts = append(hosts, ppm.HostSpec{Name: name})
		names = append(names, name)
	}
	cfg := ppm.ClusterConfig{
		Hosts:           hosts,
		JournalCapacity: 1 << 19, // retain the whole run for the final audit
		LPM: lpm.Config{
			TTL: time.Hour,
			Recovery: recovery.Config{
				TimeToDie:  30 * time.Minute,
				RetryEvery: 20 * time.Second,
				ProbeEvery: 30 * time.Second,
			},
		},
	}
	c, err := ppm.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.AddUser("felipe")
	c.SetRecoveryList("felipe", "h0", "h1", "h2")
	sess, err := c.Attach("felipe", "h0")
	if err != nil {
		t.Fatal(err)
	}

	// #nosec G404 -- deterministic chaos schedule.
	rng := rand.New(rand.NewSource(7))
	var procs []ppm.GPID
	down := map[string]bool{}
	partitioned := false
	opsOK, opsFailed := 0, 0

	randomHost := func() string { return names[rng.Intn(len(names))] }
	upHost := func() string {
		for i := 0; i < 20; i++ {
			h := randomHost()
			if !down[h] {
				return h
			}
		}
		return "h0"
	}

	for round := 0; round < 120; round++ {
		switch rng.Intn(10) {
		case 0: // crash a host (never the home h0, to keep the driver alive)
			h := randomHost()
			if h != "h0" && !down[h] && len(down) < nHosts/2 {
				if err := c.Crash(h); err != nil {
					t.Fatal(err)
				}
				down[h] = true
			}
		case 1: // restart a crashed host, the first by name
			for _, h := range detord.Keys(down) {
				if err := c.Restart(h); err != nil {
					t.Fatal(err)
				}
				delete(down, h)
				break
			}
		case 2: // partition or heal
			if partitioned {
				c.Heal()
				partitioned = false
			} else if len(down) == 0 {
				if err := c.Partition(names[:nHosts/2], names[nHosts/2:]); err != nil {
					t.Fatal(err)
				}
				partitioned = true
			}
		case 3, 4, 5: // create a process somewhere that is up
			id, err := sess.Run(upHost(), fmt.Sprintf("job%d", round))
			if err == nil {
				procs = append(procs, id)
				opsOK++
			} else {
				opsFailed++
			}
		case 6, 7: // control a random known process
			if len(procs) > 0 {
				id := procs[rng.Intn(len(procs))]
				var err error
				switch rng.Intn(3) {
				case 0:
					err = sess.Stop(id)
				case 1:
					err = sess.Background(id)
				case 2:
					err = sess.Kill(id)
				}
				if err == nil {
					opsOK++
				} else {
					opsFailed++
				}
			}
		case 8: // snapshot
			if _, err := sess.Snapshot(); err == nil {
				opsOK++
			} else {
				opsFailed++
			}
		case 9: // broadcast
			if _, err := sess.StopAll(); err == nil {
				opsOK++
			} else {
				opsFailed++
			}
			if _, err := sess.ContinueAll(); err == nil {
				opsOK++
			}
		}
		if err := c.Advance(time.Duration(rng.Intn(20)+1) * time.Second); err != nil {
			t.Fatal(err)
		}
	}

	// Liveness: plenty of operations completed despite the chaos.
	if opsOK < 40 {
		t.Fatalf("only %d operations succeeded (%d failed) — the PPM wedged", opsOK, opsFailed)
	}

	// Heal the world, restart everything, and verify consistency.
	c.Heal()
	for _, h := range detord.Keys(down) {
		if err := c.Restart(h); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Advance(3 * time.Minute); err != nil {
		t.Fatal(err)
	}
	fresh, err := c.Attach("felipe", "h0")
	if err != nil {
		t.Fatalf("fresh attach after chaos: %v", err)
	}
	id, err := fresh.Run("h1", "post-chaos")
	if err != nil {
		t.Fatalf("create after chaos: %v", err)
	}
	snap, err := fresh.Snapshot()
	if err != nil {
		t.Fatalf("snapshot after chaos: %v", err)
	}
	if _, ok := snap.Find(id); !ok {
		t.Fatal("post-chaos process missing from snapshot")
	}
	// Every reported process state matches its kernel's view.
	for _, p := range snap.Procs {
		k, err := c.Kernel(p.ID.Host)
		if err != nil {
			t.Fatal(err)
		}
		kp, err := k.Lookup(p.ID.PID)
		if err != nil {
			continue // reaped or lost in a crash; the record is historical
		}
		if kp.State != p.State {
			t.Fatalf("%v: snapshot says %v, kernel says %v", p.ID, p.State, kp.State)
		}
	}
	t.Logf("soak: %d ok, %d failed-clean, %d procs created, final snapshot %d procs (partial=%v)",
		opsOK, opsFailed, len(procs), len(snap.Procs), snap.Partial)
	return c
}

func TestSoakChaos(t *testing.T) {
	c := soakRun(t)
	// The flight recorder watched every one of those ~thousands of
	// events; its invariant auditor must find nothing to complain about.
	if vs := c.JournalAudit(); len(vs) != 0 {
		t.Fatalf("journal audit after chaos soak:\n%s", journal.AuditReport(vs))
	}
	t.Logf("soak journal: %d records retained, %d dropped, audit clean",
		c.Journal().Len(), c.Journal().Dropped())
}
