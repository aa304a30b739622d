package ppm_test

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"ppm"
	"ppm/internal/detord"
	"ppm/internal/journal"
	"ppm/internal/sim"
)

// chaosEpisodes is how many of the load generator's chaos episodes
// TestChaosEpisodesEndClean replays: cluster seeds 1,000,001 on, the
// episodes `ppmload -workload chaos -seed 1` runs first.
const chaosEpisodes = 1049

// chaosEpisode replays one episode of the load generator's chaos
// workload (cmd/ppmload, chaosCreate, chaosRoundsOf and chaosSettled),
// round for round from the cluster seed: six hosts, 120 rounds of
// crash, restart, partition, heal, create, control, snapshot and
// broadcast with idle virtual time between them, then a heal, every
// host restarted, three idle minutes and a fresh session's check. It
// returns the cluster and why the episode ended dirty: the settled check
// that failed, or the journal audit's report; "" when it ended clean.
func chaosEpisode(t *testing.T, seed int64) (*ppm.Cluster, string) {
	names := []string{"h00", "h01", "h02", "h03", "h04", "h05"}
	hosts := make([]ppm.HostSpec, len(names))
	for i, n := range names {
		hosts[i] = ppm.HostSpec{Name: n}
	}
	cfg := ppm.ClusterConfig{Seed: seed, Hosts: hosts, JournalCapacity: 1 << 19,
		LPM: ppm.LPMConfig{TTL: time.Hour, Recovery: ppm.RecoveryConfig{
			TimeToDie: 30 * time.Minute, RetryEvery: 20 * time.Second, ProbeEvery: 30 * time.Second}}}
	if seed%2 == 1 {
		cfg.LPM.Linktest = 2 * time.Second
	}
	c, err := ppm.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.AddUser("u")
	c.SetRecoveryList("u", names[0], names[1], names[2])
	sess, err := c.Attach("u", names[0])
	if err != nil {
		t.Fatal(err)
	}
	refusable := func(err error) { // a call refused under injected faults is the schedule's doing
		if errors.Is(err, ppm.ErrStalled) {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	fault := func(err error) {
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	down := map[string]bool{}
	partitioned := false
	var procs []ppm.GPID
	// A snapshot may name a host partial only if it is down, partitioned
	// away from h00, or changed (crashed, restarted, partitioned, healed)
	// within RetryEvery plus simnet's 1 s BreakDetect: a circuit to it may
	// still be broken and not yet redialed.
	changed := map[string]sim.Time{}
	change := func(hs ...string) {
		for _, h := range hs {
			changed[h] = c.Now()
		}
	}
	stale := func(snap ppm.Snapshot, at sim.Time) string {
		for _, h := range snap.Partial {
			far := partitioned && !slices.Contains(names[:3], h)
			if t, ok := changed[h]; !down[h] && !far && (!ok || at.Sub(t) > cfg.LPM.Recovery.RetryEvery+time.Second) {
				return fmt.Sprintf("a snapshot at %v names %s partial: it is up, on h00's side, and unchanged since %v", at, h, t)
			}
		}
		return ""
	}
	upHost := func() string {
		for i := 0; i < 20; i++ {
			if h := names[rng.Intn(len(names))]; !down[h] {
				return h
			}
		}
		return names[0]
	}
	for round := 0; round < 120; round++ {
		switch rng.Intn(10) {
		case 0:
			if h := names[rng.Intn(len(names))]; h != names[0] && !down[h] && len(down) < len(names)/2 {
				fault(c.Crash(h))
				down[h] = true
				change(h)
			}
		case 1:
			if hs := detord.Keys(down); len(hs) > 0 {
				fault(c.Restart(hs[0]))
				delete(down, hs[0])
				change(hs[0])
			}
		case 2:
			if partitioned {
				c.Heal()
				partitioned = false
				change(names...)
			} else if len(down) == 0 {
				fault(c.Partition(names[:3], names[3:]))
				partitioned = true
				change(names...)
			}
		case 3, 4, 5:
			id, err := sess.Run(upHost(), fmt.Sprintf("job%d", round))
			if err == nil {
				procs = append(procs, id)
			}
			refusable(err)
		case 6, 7:
			if len(procs) > 0 {
				id := procs[rng.Intn(len(procs))]
				switch rng.Intn(3) {
				case 0:
					refusable(sess.Stop(id))
				case 1:
					refusable(sess.Background(id))
				case 2:
					refusable(sess.Kill(id))
				}
			}
		case 8:
			at := c.Now()
			snap, err := sess.Snapshot()
			refusable(err)
			if why := stale(snap, at); err == nil && why != "" {
				return c, why
			}
		case 9:
			_, err := sess.StopAll()
			refusable(err)
			_, err = sess.ContinueAll()
			refusable(err)
		}
		fault(c.Advance(time.Duration(rng.Intn(20)+1) * time.Second))
	}
	c.Heal()
	for _, h := range detord.Keys(down) {
		fault(c.Restart(h))
	}
	fault(c.Advance(3 * time.Minute))
	fresh, err := c.Attach("u", names[0])
	if err != nil {
		return c, "fresh attach: " + err.Error()
	}
	id, err := fresh.Run(names[1], "post-chaos")
	if err != nil {
		return c, "create after chaos: " + err.Error()
	}
	at := c.Now()
	snap, err := fresh.Snapshot()
	if err != nil {
		return c, "snapshot after chaos: " + err.Error()
	}
	if why := stale(snap, at); why != "" {
		return c, why
	}
	if _, ok := snap.Find(id); !ok {
		return c, "post-chaos process missing from the snapshot"
	}
	for _, p := range snap.Procs {
		k, err := c.Kernel(p.ID.Host)
		if err != nil {
			t.Fatal(err)
		}
		if kp, err := k.Lookup(p.ID.PID); err == nil && kp.State != p.State {
			return c, fmt.Sprintf("%v: snapshot says %v, kernel says %v", p.ID, p.State, kp.State)
		}
	}
	if vs := c.JournalAudit(); len(vs) != 0 {
		return c, journal.AuditReport(vs)
	}
	return c, ""
}

// TestChaosEpisodesEndClean replays the load generator's chaos episodes
// and requires every one to end clean: each settled check passes and
// each journal audits without a violation. A crashed host's LPM that
// kept redialling, a pmd that created a user's LPM twice, or a settled
// dial that still sent its Hello each left episodes dirty here.
func TestChaosEpisodesEndClean(t *testing.T) {
	n := chaosEpisodes
	if testing.Short() {
		n = 100
	}
	dirty := 0
	for i := 0; i < n; i++ {
		seed := int64(1_000_000 + i + 1)
		if _, why := chaosEpisode(t, seed); why != "" {
			if dirty++; dirty <= 3 {
				t.Errorf("chaos cluster seed %d ends dirty: %s", seed, why)
			}
		}
	}
	if dirty > 0 {
		t.Fatalf("%d of %d chaos episodes end dirty", dirty, n)
	}
}

// stepCounts counts a cluster's circuit.transition records by what each
// step is, under the name of the count it makes: an open, a close, a
// step to Suspect, a detector's close, or ("cleared") a suspicion that
// traffic resolved.
func stepCounts(c *ppm.Cluster) map[string]uint64 {
	n := map[string]uint64{}
	for _, r := range c.Journal().Records() {
		if r.Kind != journal.CircuitTransition {
			continue
		}
		step := map[string]string{}
		for _, f := range strings.Fields(r.Detail) {
			k, v, _ := strings.Cut(f, "=")
			step[k] = v
		}
		switch from, to := step["from"], step["to"]; {
		case to == "suspect":
			n["lpm.detector.suspects"]++
		case to == "established" && from == "suspect":
			n["cleared"]++
		case to == "established":
			n["lpm.siblings.opened"]++
		case to == "closed" && (from == "established" || from == "suspect"):
			n["lpm.siblings.closed"]++
			if step["reason"] == "detector" {
				n["lpm.detector.closes"]++
			}
		}
	}
	return n
}

// silenceRun holds a request across each of two silences of a worker
// host, with the detector on: the worker's CPU is busy, so the request
// and the heartbeats that follow it queue there unanswered, and none is
// lost (a lost circuit message would break the circuit first). The first
// silence ends while a stop waits: the detector suspects the circuit,
// and the queued heartbeats' echoes clear the suspicion. The second
// outlasts the detector's patience while a kill waits: it closes the
// circuit, and the retry engine carries the kill over a new one.
func silenceRun(t *testing.T) *ppm.Cluster {
	cfg := ppm.ClusterConfig{Seed: 1, Hosts: []ppm.HostSpec{{Name: "a"}, {Name: "b"}, {Name: "c"}}}
	cfg.LPM.Linktest = 250 * time.Millisecond
	cfg.LPM.Retry = ppm.RetryPolicy{MaxAttempts: 6, BaseBackoff: 500 * time.Millisecond}
	c, err := ppm.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.AddUser("u")
	sess, err := c.Attach("u", "a")
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []struct {
		host string
		busy time.Duration
		op   func(ppm.GPID) error
	}{{"b", 1200 * time.Millisecond, sess.Stop}, {"c", 3 * time.Second, sess.Kill}} {
		id, err := sess.Run(step.host, "w"+step.host)
		if err != nil {
			t.Fatal(err)
		}
		k, err := c.Kernel(step.host)
		if err != nil {
			t.Fatal(err)
		}
		k.ExecCPU(step.busy, func() {})
		if err := step.op(id); err != nil {
			t.Fatalf("%v across %v of silence: %v", id, step.busy, err)
		}
	}
	if vs := c.JournalAudit(); len(vs) != 0 {
		t.Fatalf("journal audit:\n%s", journal.AuditReport(vs))
	}
	return c
}

// TestCircuitCountsDeriveFromTransitions: the circuit.transition record
// is the one record of a sibling circuit opening or closing, and the
// LPM derives every circuit count at that step. Over a chaos episode
// with the detector on (an odd seed), and a run that holds requests
// across silences — one where the detector suspects, closes, and sees
// traffic clear a suspicion — each count equals the steps that make
// it, and the open-circuit gauge is the opens less the closes.
func TestCircuitCountsDeriveFromTransitions(t *testing.T) {
	chaos, why := chaosEpisode(t, 1_000_025)
	if why != "" {
		t.Fatalf("the episode ended dirty: %s", why)
	}
	silent := silenceRun(t)
	for _, c := range []*ppm.Cluster{chaos, silent} {
		want, snap := stepCounts(c), c.MetricsSnapshot()
		for _, name := range []string{"lpm.siblings.opened", "lpm.siblings.closed", "lpm.detector.suspects", "lpm.detector.closes"} {
			if got := snap.Counter(name); got != want[name] {
				t.Errorf("%s = %d, the journal's steps say %d", name, got, want[name])
			}
		}
		if got, open := snap.Gauge("lpm.siblings.open"), int64(want["lpm.siblings.opened"]-want["lpm.siblings.closed"]); got != open {
			t.Errorf("lpm.siblings.open = %d, the journal's steps say %d", got, open)
		}
	}
	n := stepCounts(silent)
	if n["lpm.detector.suspects"] == 0 || n["lpm.siblings.closed"] == 0 {
		t.Fatalf("the run suspects no circuit or closes none: it no longer exercises the detector")
	}
	if n["cleared"] == 0 || n["lpm.detector.closes"] == 0 {
		t.Fatalf("the run clears %d suspicions and makes %d detector closes, want some of each", n["cleared"], n["lpm.detector.closes"])
	}
}
