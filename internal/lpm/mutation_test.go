package lpm_test

import (
	"strings"
	"testing"

	"ppm"
	"ppm/internal/journal"
	"ppm/internal/lpm"
	"ppm/internal/scenario"
)

// TestSweepAuditCatchesDedupMutation is the sweep-coverage audit's
// product mutation: with every hop serving a status flood it has already
// seen as if it were new (lpm.SkipStatusDedup), a sweep over an 8-host
// tree with a cross edge reaches a host over both paths, that host's
// report comes back twice, and the audit names the sweep resolving it
// twice. Unmutated, the same run audits clean.
func TestSweepAuditCatchesDedupMutation(t *testing.T) {
	run := func(mutated bool) []journal.Violation {
		lpm.SkipStatusDedup(mutated)
		defer lpm.SkipStatusDedup(false)
		hosts := scenario.Numbered("h%d", 0, 8)
		c, err := scenario.New(ppm.ClusterConfig{Seed: 4, Hosts: scenario.Hosts(hosts...)}, "u")
		if err != nil {
			t.Fatal(err)
		}
		sess, _, err := scenario.Tree(c, "u", hosts, [][2]int{{3, 5}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Status(); err != nil {
			t.Fatal(err)
		}
		return c.JournalAudit()
	}
	if vs := run(false); len(vs) != 0 {
		t.Fatalf("the unmutated sweep audits dirty:\n%s", journal.AuditReport(vs))
	}
	vs := run(true)
	for _, v := range vs {
		if v.Check == "status" && strings.Contains(v.Msg, " times (want exactly once)") {
			return
		}
	}
	t.Fatalf("with dedup off, no sweep resolved a host twice:\n%s", journal.AuditReport(vs))
}
