package ppm_test

import (
	"strings"
	"testing"
	"time"

	"ppm"
	"ppm/internal/journal"
)

// journalScenario drives the same three-host computation the metrics
// integration test uses — remote creation, sibling traffic, a snapshot
// flood, a partition, and a crash — with a journal ring large enough to
// retain every record, and returns the cluster for inspection.
func journalScenario(t *testing.T, seed int64) *ppm.Cluster {
	t.Helper()
	c, err := ppm.NewCluster(ppm.ClusterConfig{
		Seed: seed,
		Hosts: []ppm.HostSpec{
			{Name: "a"}, {Name: "b"}, {Name: "c", Type: ppm.SunII},
		},
		JournalCapacity: 1 << 18,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.AddUser("u")
	c.SetRecoveryList("u", "a", "b", "c")
	sess, err := c.Attach("u", "a")
	if err != nil {
		t.Fatal(err)
	}
	root, err := sess.Run("a", "root")
	if err != nil {
		t.Fatal(err)
	}
	wb, err := sess.RunChild("b", "wb", root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.RunChild("c", "wc", root); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := sess.Stop(wb); err != nil {
		t.Fatal(err)
	}
	if err := c.Partition([]string{"a", "b"}, []string{"c"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Advance(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	c.Heal()
	if err := c.Advance(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.Crash("a"); err != nil {
		t.Fatal(err)
	}
	if err := c.Advance(time.Minute); err != nil {
		t.Fatal(err)
	}
	return c
}

// firstToken returns the first space-separated token of a record's
// detail — the transport for net.send/deliver/drop, the message type
// name for wire.encode/decode, the event kind for kernel.event.
func firstToken(detail string) string {
	if i := strings.IndexByte(detail, ' '); i >= 0 {
		return detail[:i]
	}
	return detail
}

// TestJournalMetricsCrossCheck: the journal and the metrics registry
// observe the same instrumentation points, so per-kind record counts
// must equal the corresponding counters exactly. A mismatch means one
// subsystem saw traffic the other missed.
func TestJournalMetricsCrossCheck(t *testing.T) {
	c := journalScenario(t, 7)
	j := c.Journal()
	if j.Dropped() != 0 {
		t.Fatalf("journal dropped %d records; raise JournalCapacity", j.Dropped())
	}
	kindCount := make(map[journal.Kind]uint64)
	tokCount := make(map[string]uint64) // "<kind>/<first detail token>"
	for _, r := range j.Records() {
		kindCount[r.Kind]++
		tokCount[r.Kind.String()+"/"+firstToken(r.Detail)]++
	}
	snap := c.MetricsSnapshot()

	// The pairing lives in one product table beside the journal's kind
	// list; every row of it is held to equality here, so a newly paired
	// kind is covered without touching this test.
	paired := 0
	for _, k := range journal.Kinds() {
		pattern := journal.CounterName(k, "*")
		if pattern == "" {
			continue
		}
		paired++
		prefix, suffix, perToken := strings.Cut(pattern, "*")
		if !perToken {
			if got := snap.Counter(pattern); got != kindCount[k] {
				t.Errorf("%s = %d but journal recorded %d %s", pattern, got, kindCount[k], k)
			}
			continue
		}
		// Counted per first detail token (transport, event kind): each
		// counter matching the pattern equals the records leading with
		// its token, and together they account for every record of the
		// kind — neither side saw traffic the other missed.
		var total uint64
		for _, f := range snap.Families {
			for _, cp := range f.Counters {
				if len(cp.Name) < len(pattern)-1 || !strings.HasPrefix(cp.Name, prefix) || !strings.HasSuffix(cp.Name, suffix) {
					continue
				}
				total += cp.Value
				tok := cp.Name[len(prefix) : len(cp.Name)-len(suffix)]
				if got := tokCount[k.String()+"/"+tok]; got != cp.Value {
					t.Errorf("%s = %d but journal recorded %d %s/%s", cp.Name, cp.Value, got, k, tok)
				}
			}
		}
		if total != kindCount[k] {
			t.Errorf("%s counters total %d but journal recorded %d %s", pattern, total, kindCount[k], k)
		}
	}
	if paired == 0 {
		t.Fatal("journal.CounterName pairs no kind with a counter")
	}

	// The flood body runs once at the origin and once per forwarding
	// host, so applies must equal originations plus forwards.
	applies := kindCount[journal.LPMFloodApply]
	want := snap.Counter("lpm.flood.originated") + snap.Counter("lpm.flood.forwarded")
	if applies != want {
		t.Errorf("lpm.flood.apply records = %d, want originated+forwarded = %d", applies, want)
	}

	// Every encoded wire message is both counted and journaled, broken
	// down by message type: wire.msgs.<Name> must equal the number of
	// wire.encode records whose detail leads with <Name>, for every
	// message type either side saw.
	wireFam, ok := snap.Family("wire")
	if !ok {
		t.Fatal("no wire metrics family")
	}
	seen := make(map[string]bool)
	for _, cp := range wireFam.Counters {
		name, found := strings.CutPrefix(cp.Name, "wire.msgs.")
		if !found {
			continue
		}
		seen[name] = true
		if got := tokCount["wire.encode/"+name]; got != cp.Value {
			t.Errorf("wire.msgs.%s = %d but journal recorded %d encodes", name, cp.Value, got)
		}
	}
	for key, n := range tokCount {
		name, found := strings.CutPrefix(key, "wire.encode/")
		if !found {
			continue
		}
		if !seen[name] {
			t.Errorf("journal recorded %d encodes of %s but no wire.msgs.%s counter exists", n, name, name)
		}
	}
	if len(seen) == 0 {
		t.Fatal("no wire.msgs counters recorded")
	}

	// Sanity: the scenario exercised every instrumented layer.
	for _, k := range []journal.Kind{
		journal.NetSend, journal.WireEncode, journal.WireDecode,
		journal.KernelSpawn, journal.DaemonQuery, journal.LPMAdopt,
		journal.LPMSiblingAuth, journal.LPMFloodOrigin, journal.SnapshotTaken,
	} {
		if kindCount[k] == 0 {
			t.Errorf("scenario produced no %s records", k)
		}
	}
}

// TestJournalAuditOnScenario: the flight recorder's invariant auditor
// must pass over the full chaos scenario — partition, heal, crash and
// all.
func TestJournalAuditOnScenario(t *testing.T) {
	c := journalScenario(t, 7)
	if vs := c.JournalAudit(); len(vs) != 0 {
		t.Fatalf("audit violations:\n%s", journal.AuditReport(vs))
	}
}

// TestJournalDisabled: NoJournal must leave every journal surface inert
// but safe.
func TestJournalDisabled(t *testing.T) {
	c, err := ppm.NewCluster(ppm.ClusterConfig{
		Hosts:     []ppm.HostSpec{{Name: "a"}, {Name: "b"}},
		NoJournal: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.AddUser("u")
	sess, err := c.Attach("u", "a")
	if err != nil {
		t.Fatal(err)
	}
	root, err := sess.Run("a", "root")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.RunChild("b", "w", root); err != nil {
		t.Fatal(err)
	}
	if c.Journal() != nil {
		t.Fatal("NoJournal cluster still has a journal")
	}
	if got := c.JournalReport(ppm.JournalFilter{}); !strings.Contains(got, "disabled") {
		t.Fatalf("JournalReport = %q", got)
	}
	if vs := c.JournalAudit(); vs != nil {
		t.Fatalf("JournalAudit on disabled journal = %v", vs)
	}
}

// TestJournalTraceCrossLink: records appended inside traced operations
// must carry the operation's trace ID, tying each journal line to its
// span in the causal trace tree.
func TestJournalTraceCrossLink(t *testing.T) {
	c, err := ppm.NewCluster(ppm.ClusterConfig{
		Hosts: []ppm.HostSpec{{Name: "a"}, {Name: "b"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.AddUser("u")
	sess, err := c.Attach("u", "a")
	if err != nil {
		t.Fatal(err)
	}
	root, err := sess.Run("a", "root")
	if err != nil {
		t.Fatal(err)
	}
	w, err := sess.RunChild("b", "w", root)
	if err != nil {
		t.Fatal(err)
	}
	id, err := c.Trace(func() error { return sess.Stop(w) })
	if err != nil {
		t.Fatal(err)
	}
	var linked int
	for _, r := range c.Journal().Records() {
		if r.Trace == id {
			linked++
		}
	}
	if linked == 0 {
		t.Fatal("no journal records carry the traced operation's trace ID")
	}
}
