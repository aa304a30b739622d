package ppm_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"ppm"
)

var update = flag.Bool("update", false, "rewrite testdata/recovery_journals.golden from this tree")

// recoveryRun is one crash-recovery scenario: drive injects its faults
// into the running cluster, and check says which recovery path it must
// have taken.
type recoveryRun struct {
	name  string
	hosts []string
	list  []string // the user's .recovery file
	ns    bool     // CCSNameServer
	drive func(t *testing.T, c *ppm.Cluster)
	check func(t *testing.T, c *ppm.Cluster, n recoveryCounts)
}

// recoveryCounts are the lpm.recovery.* counters after a run.
type recoveryCounts struct{ probes, announcements, terminations uint64 }

func readRecoveryCounts(c *ppm.Cluster) recoveryCounts {
	m := c.Metrics()
	return recoveryCounts{
		m.Counter("lpm.recovery.probes").Value(),
		m.Counter("lpm.recovery.ccs_announcements").Value(),
		m.Counter("lpm.recovery.terminations").Value(),
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func ccsOn(c *ppm.Cluster, host string) string {
	if l, ok := c.ManagerOn(host, "u"); ok {
		return l.Recovery().CCS()
	}
	return "(no LPM)"
}

var recoveryRuns = []recoveryRun{
	{
		// The CCS host crashes: b takes over from its place on the
		// list, and c walks the list down to b.
		name: "list-seek", hosts: []string{"a", "b", "c"}, list: []string{"a", "b", "c"},
		drive: func(t *testing.T, c *ppm.Cluster) {
			must(t, c.Crash("a"))
			must(t, c.Advance(time.Minute))
		},
		check: func(t *testing.T, c *ppm.Cluster, n recoveryCounts) {
			if ccsOn(c, "b") != "b" || ccsOn(c, "c") != "b" || n.probes == 0 || n.announcements == 0 {
				t.Errorf("ccs b=%s c=%s, counts %+v: want b everywhere after a list seek", ccsOn(c, "b"), ccsOn(c, "c"), n)
			}
		},
	},
	{
		// No .recovery file: only the name server can name a CCS, so any
		// announcement is a locator seek that took its answer. b is cut
		// off from a, isolates, and after the heal the name server's a
		// is probed, connected and taken.
		name: "locator-seek", hosts: []string{"a", "b", "c"}, ns: true,
		drive: func(t *testing.T, c *ppm.Cluster) {
			must(t, c.Partition([]string{"a", "c"}, []string{"b"}))
			must(t, c.Advance(12*time.Second))
			c.Heal()
			must(t, c.Advance(time.Minute))
		},
		check: func(t *testing.T, c *ppm.Cluster, n recoveryCounts) {
			if ccsOn(c, "b") != "a" || n.probes == 0 || n.announcements == 0 {
				t.Errorf("ccs b=%s, counts %+v: want a, found through the name server", ccsOn(c, "b"), n)
			}
		},
	},
	{
		// c is partitioned from the hosts above it and becomes an acting
		// CCS; after the heal its climb probes a and rejoins it.
		name: "climb-after-heal", hosts: []string{"a", "b", "c"}, list: []string{"a", "b", "c"},
		drive: func(t *testing.T, c *ppm.Cluster) {
			must(t, c.Partition([]string{"a", "b"}, []string{"c"}))
			must(t, c.Advance(10*time.Second))
			if got := ccsOn(c, "c"); got != "c" {
				t.Fatalf("during the partition c's CCS is %s, want c", got)
			}
			before := readRecoveryCounts(c).announcements
			c.Heal()
			must(t, c.Advance(time.Minute))
			if readRecoveryCounts(c).announcements == before {
				t.Error("no CCS was taken after the heal: the climb never rejoined a")
			}
		},
		check: func(t *testing.T, c *ppm.Cluster, n recoveryCounts) {
			if ccsOn(c, "c") != "a" {
				t.Errorf("ccs c=%s after the heal, want a", ccsOn(c, "c"))
			}
		},
	},
	{
		// c is not on the list and is cut off from every host that is:
		// it isolates, and time-to-die closes it down.
		name: "isolation-time-to-die", hosts: []string{"a", "b", "c"}, list: []string{"a", "b"},
		drive: func(t *testing.T, c *ppm.Cluster) {
			must(t, c.Partition([]string{"a", "b"}, []string{"c"}))
			must(t, c.Advance(2*time.Minute))
		},
		check: func(t *testing.T, c *ppm.Cluster, n recoveryCounts) {
			if _, ok := c.ManagerOn("c", "u"); ok || n.terminations == 0 {
				t.Errorf("c's LPM still up, counts %+v: want time-to-die to have fired", n)
			}
		},
	},
}

// recoveryJournal runs one scenario at seed: a root process on a with
// children on every other host, then the run's own faults. It returns
// the hex SHA-256 of the rendered journal.
func recoveryJournal(t *testing.T, r recoveryRun, seed int64) string {
	t.Helper()
	cfg := ppm.ClusterConfig{Seed: seed, CCSNameServer: r.ns, JournalCapacity: 1 << 18}
	cfg.LPM.Recovery = ppm.RecoveryConfig{TimeToDie: time.Minute, ProbeEvery: 20 * time.Second, RetryEvery: 15 * time.Second}
	for _, h := range r.hosts {
		cfg.Hosts = append(cfg.Hosts, ppm.HostSpec{Name: h})
	}
	c, err := ppm.NewCluster(cfg)
	must(t, err)
	c.AddUser("u")
	c.SetRecoveryList("u", r.list...)
	// Background load on every host: its seeded phases are what the
	// seed changes, shifting when each LPM gets the CPU.
	c.AddUser("load")
	for _, h := range r.hosts {
		must(t, c.SpawnBackgroundLoad(h, "load", 1, 1, 2))
	}
	sess, err := c.Attach("u", r.hosts[0])
	must(t, err)
	root, err := sess.Run(r.hosts[0], "root")
	must(t, err)
	for _, h := range r.hosts[1:] {
		_, err := sess.RunChild(h, "w"+h, root)
		must(t, err)
	}
	must(t, c.Advance(2*time.Second))
	r.drive(t, c)
	r.check(t, c, readRecoveryCounts(c))
	return fmt.Sprintf("%x", sha256.Sum256([]byte(c.Journal().Render())))
}

// TestRecoveryJournalsGolden pins the whole journal of each recovery
// scenario byte for byte, as a SHA-256 of its rendering per seed, to
// testdata/recovery_journals.golden. Between them the runs take every
// path of the recovery machine: a list seek, a locator seek, a climb
// after a heal, and isolation ending in time-to-die. Run with -update
// to rewrite the file.
func TestRecoveryJournalsGolden(t *testing.T) {
	const path = "testdata/recovery_journals.golden"
	var got strings.Builder
	for _, r := range recoveryRuns {
		for _, seed := range []int64{1, 2} {
			fmt.Fprintf(&got, "%s seed=%d %s\n", r.name, seed, recoveryJournal(t, r, seed))
		}
	}
	if *update {
		must(t, os.WriteFile(path, []byte(got.String()), 0o644))
		return
	}
	want, err := os.ReadFile(path)
	must(t, err)
	if got.String() != string(want) {
		t.Errorf("recovery journals differ from %s (rerun with -update only if the change is intended):\ngot:\n%swant:\n%s", path, got.String(), want)
	}
}
