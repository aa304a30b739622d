package journal

import (
	"slices"
	"strconv"
	"strings"
	"testing"
)

// ctRec builds one circuit.transition record as the LPM journals it
// (see lpm.circuitTransition): states by name, a suspicion's level
// suffixed to its reason.
func ctRec(seq uint64, host, peer, chanKey, from, to, reason string) testRecord {
	state := func(name string) CircuitState { return CircuitState(slices.Index(circuitStateNames[:], name)) }
	level := 0
	if i := strings.LastIndexByte(reason, '-'); i >= 0 {
		if n, err := strconv.Atoi(reason[i+1:]); err == nil {
			reason, level = reason[:i], n
		}
	}
	return testRecord{Seq: seq, Kind: CircuitTransition, Host: host,
		Detail: CircuitStep("u", peer, chanKey, state(from), state(to), reason, level)}
}

func lifecycleViolations(t *testing.T, recs []testRecord) []Violation {
	t.Helper()
	var out []Violation
	for _, v := range AuditRecords(recs, true) {
		if v.Check == "lifecycle" {
			out = append(out, v)
		}
	}
	return out
}

// A full legal round trip — dial, authenticate, establish, suspect,
// recover, close — audits clean from both endpoints' perspectives.
func TestAuditCircuitLegalLifecycleClean(t *testing.T) {
	ch := "vax1:701->vax2:700"
	recs := []testRecord{
		ctRec(1, "vax1", "vax2", "-", "idle", "dialing", "dial"),
		ctRec(2, "vax1", "vax2", ch, "dialing", "authenticating", "hello"),
		ctRec(3, "vax2", "vax1", ch, "idle", "authenticating", "hello-in"),
		ctRec(4, "vax1", "vax2", ch, "authenticating", "established", "auth-client"),
		ctRec(5, "vax2", "vax1", ch, "authenticating", "established", "auth-server"),
		ctRec(6, "vax1", "vax2", ch, "established", "suspect", "suspicion-2"),
		ctRec(7, "vax1", "vax2", ch, "suspect", "established", "traffic"),
		ctRec(8, "vax1", "vax2", ch, "established", "closed", "close"),
		ctRec(9, "vax2", "vax1", ch, "established", "closed", "peer-lost"),
	}
	if vs := lifecycleViolations(t, recs); len(vs) != 0 {
		t.Fatalf("clean lifecycle flagged: %v", vs)
	}
}

// An edge outside the legal table — Idle jumping straight to
// Established without dialing or authenticating — must be flagged.
func TestAuditCircuitIllegalEdge(t *testing.T) {
	recs := []testRecord{
		ctRec(1, "vax1", "vax2", "vax1:701->vax2:700", "idle", "established", "auth-client"),
	}
	vs := lifecycleViolations(t, recs)
	if len(vs) == 0 {
		t.Fatal("illegal idle->established transition not flagged")
	}
	if !strings.Contains(vs[0].Msg, "illegal transition") {
		t.Fatalf("wrong violation: %v", vs[0])
	}
}

// A record whose declared from-state disagrees with the machine's
// replayed state means a transition was skipped or fabricated.
func TestAuditCircuitContinuityBreak(t *testing.T) {
	recs := []testRecord{
		ctRec(1, "vax1", "vax2", "-", "idle", "dialing", "dial"),
		// Machine is in dialing, but the record claims established.
		ctRec(2, "vax1", "vax2", "x", "established", "closed", "close"),
	}
	vs := lifecycleViolations(t, recs)
	if len(vs) == 0 {
		t.Fatal("from-state mismatch not flagged")
	}
	if !strings.Contains(vs[0].Msg, "declares from=established") {
		t.Fatalf("wrong violation: %v", vs[0])
	}
}

// Two distinct channels Established between the same host pair at the
// same time is the cross-dial double-circuit bug.
func TestAuditCircuitDoubleEstablished(t *testing.T) {
	chA, chB := "vax1:701->vax2:700", "vax2:702->vax1:700"
	recs := []testRecord{
		ctRec(1, "vax1", "vax2", chA, "idle", "authenticating", "hello"),
		ctRec(2, "vax1", "vax2", chA, "authenticating", "established", "auth-client"),
		ctRec(3, "vax2", "vax1", chB, "idle", "authenticating", "hello"),
		ctRec(4, "vax2", "vax1", chB, "authenticating", "established", "auth-client"),
	}
	vs := lifecycleViolations(t, recs)
	if len(vs) == 0 {
		t.Fatal("double-established pair not flagged")
	}
	if !strings.Contains(vs[0].Msg, "established circuits at once") {
		t.Fatalf("wrong violation: %v", vs[0])
	}

	// Same two channels, but the first closes before the second
	// establishes (a supersede) — legal, must stay clean.
	recs = []testRecord{
		ctRec(1, "vax1", "vax2", chA, "idle", "authenticating", "hello"),
		ctRec(2, "vax1", "vax2", chA, "authenticating", "established", "auth-client"),
		ctRec(3, "vax1", "vax2", chA, "established", "closed", "superseded"),
		ctRec(4, "vax1", "vax2", chB, "closed", "authenticating", "hello-in"),
		ctRec(5, "vax1", "vax2", chB, "authenticating", "established", "auth-server"),
		ctRec(6, "vax1", "vax2", chB, "established", "closed", "close"),
	}
	if vs := lifecycleViolations(t, recs); len(vs) != 0 {
		t.Fatalf("supersede sequence flagged: %v", vs)
	}
}

// A machine parked in Suspect at end of stream means the detector
// raised suspicion and then never resolved it either way.
func TestAuditCircuitUnresolvedSuspect(t *testing.T) {
	ch := "vax1:701->vax2:700"
	recs := []testRecord{
		ctRec(1, "vax1", "vax2", ch, "idle", "authenticating", "hello"),
		ctRec(2, "vax1", "vax2", ch, "authenticating", "established", "auth-client"),
		ctRec(3, "vax1", "vax2", ch, "established", "suspect", "suspicion-2"),
	}
	vs := lifecycleViolations(t, recs)
	if len(vs) == 0 {
		t.Fatal("unresolved Suspect not flagged")
	}
	if !strings.Contains(vs[0].Msg, "Suspect") {
		t.Fatalf("wrong violation: %v", vs[0])
	}
	// An incomplete stream (ring evicted records) must not flag it: the
	// resolution may simply have been evicted... no — the resolution
	// would come *after*, so the check is about quiescence: audits run
	// mid-flight see transient Suspects. Incomplete implies not
	// end-of-run, so the check is skipped.
	for _, v := range AuditRecords(recs, false) {
		if v.Check == "lifecycle" {
			t.Fatalf("incomplete stream flagged transient Suspect: %v", v)
		}
	}
}

// A crash wipes the crashed host's machines: its circuits die without
// close records, and the post-restart lifecycle starts over from Idle.
func TestAuditCircuitCrashResets(t *testing.T) {
	ch := "vax1:701->vax2:700"
	recs := []testRecord{
		ctRec(1, "vax1", "vax2", ch, "idle", "authenticating", "hello"),
		ctRec(2, "vax1", "vax2", ch, "authenticating", "established", "auth-client"),
		ctRec(3, "vax2", "vax1", ch, "idle", "authenticating", "hello-in"),
		ctRec(4, "vax2", "vax1", ch, "authenticating", "established", "auth-server"),
		{Seq: 5, Kind: NetHostCrash, Host: "vax1"},
		// vax2 sees the break and closes; vax1 restarts from idle
		// without ever journaling a close for the dead circuit.
		ctRec(6, "vax2", "vax1", ch, "established", "closed", "peer-lost"),
		ctRec(7, "vax1", "vax2", "-", "idle", "dialing", "dial"),
		ctRec(8, "vax1", "vax2", ch, "dialing", "authenticating", "hello"),
		ctRec(9, "vax1", "vax2", ch, "authenticating", "established", "auth-client"),
		ctRec(10, "vax1", "vax2", ch, "established", "closed", "exit"),
	}
	if vs := lifecycleViolations(t, recs); len(vs) != 0 {
		t.Fatalf("crash-reset lifecycle flagged: %v", vs)
	}
}
