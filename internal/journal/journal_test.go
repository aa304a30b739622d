package journal

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"
)

func testJournal(capacity int) (*Journal, *time.Duration) {
	now := new(time.Duration)
	j := New(func() time.Duration { return *now })
	j.SetCapacity(capacity)
	return j, now
}

func TestRingEviction(t *testing.T) {
	j, now := testJournal(4)
	for i := 1; i <= 10; i++ {
		*now = time.Duration(i) * time.Second
		j.Append(NetSend, "a", "n=x")
	}
	if j.Len() != 4 {
		t.Fatalf("Len = %d, want 4", j.Len())
	}
	if j.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", j.Dropped())
	}
	recs := j.Records()
	for i, r := range recs {
		if want := uint64(7 + i); r.Seq != want {
			t.Fatalf("record %d Seq = %d, want %d", i, r.Seq, want)
		}
	}
	if recs[0].At != 7*time.Second {
		t.Fatalf("oldest At = %v, want 7s", recs[0].At)
	}
	j.Reset()
	if j.Len() != 0 || j.Dropped() != 10 {
		t.Fatalf("after Reset: Len=%d Dropped=%d", j.Len(), j.Dropped())
	}
	j.Append(NetSend, "a", "")
	if got := j.Records()[0].Seq; got != 11 {
		t.Fatalf("Seq after reset = %d, want 11 (never reused)", got)
	}
}

func TestNilJournalNoOps(t *testing.T) {
	var j *Journal
	j.Append(NetSend, "a", "x")
	j.AppendDetail(NetSend, "a", text("x"), 1, 2)
	j.SetCapacity(10)
	j.Reset()
	if j.Len() != 0 || j.Dropped() != 0 || j.Records() != nil || j.Select(Filter{}) != nil {
		t.Fatal("nil journal must be empty")
	}
	if got := j.Report(Filter{}); !strings.Contains(got, "disabled") {
		t.Fatalf("nil Report = %q", got)
	}
	if d := Diff(j, j); d != nil {
		t.Fatalf("Diff(nil, nil) = %v", d)
	}
	if vs := Audit(j); vs != nil {
		t.Fatalf("Audit(nil) = %v", vs)
	}
}

// TestAppendStampsItsContext: a record carries the trace context it was
// appended under and no other — Append's is zero, there is no ambient
// span source.
func TestAppendStampsItsContext(t *testing.T) {
	j, _ := testJournal(8)
	j.Append(NetDeliver, "a", "x")
	j.AppendDetail(WireEncode, "a", WireFrame("Hello", 10), 3, 4)
	recs := j.Records()
	if recs[0].Trace != 0 || recs[0].Span != 0 {
		t.Fatalf("Append stamped %d/%d, want 0/0", recs[0].Trace, recs[0].Span)
	}
	if recs[1].Trace != 3 || recs[1].Span != 4 {
		t.Fatalf("AppendDetail stamped %d/%d, want 3/4", recs[1].Trace, recs[1].Span)
	}
	if s := recs[1].String(); !strings.Contains(s, "[t=3 s=4]") {
		t.Fatalf("String() = %q, want trace suffix", s)
	}
}

func TestFilter(t *testing.T) {
	j, now := testJournal(32)
	*now = 1 * time.Second
	j.Append(NetSend, "a", "")
	j.AppendDetail(LPMSiblingAuth, "a", SiblingAuth("u", "c1", "b"), 0, 0)
	*now = 2 * time.Second
	j.AppendDetail(LPMSiblingReject, "b", SiblingReject("a", "cross-dial"), 0, 0)
	j.AppendDetail(SnapshotTaken, "b", Snapshot("u", "", ""), 0, 0)
	family, err := ParseKinds("lpm.sibling")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(j.Select(Filter{Kinds: family})); got != 2 {
		t.Fatalf("prefix kind matched %d, want 2", got)
	}
	if got := len(j.Select(Filter{Kinds: []Kind{LPMSiblingAuth}})); got != 1 {
		t.Fatalf("exact kind matched %d, want 1", got)
	}
	if got := len(j.Select(Filter{Host: "b"})); got != 2 {
		t.Fatalf("host matched %d, want 2", got)
	}
	if got := len(j.Select(Filter{Since: 2 * time.Second})); got != 2 {
		t.Fatalf("since matched %d, want 2", got)
	}
	if got := len(j.Select(Filter{Until: 1 * time.Second})); got != 2 {
		t.Fatalf("until matched %d, want 2", got)
	}
	// "snapshot" must not prefix-match "snapshot.something" absent kinds,
	// but must match itself exactly.
	if got := len(j.Select(Filter{Kinds: []Kind{SnapshotTaken}})); got != 1 {
		t.Fatalf("snapshot matched %d, want 1", got)
	}
}

// TestAuditRendersNothingUnaudited: a record no check reads costs the
// audit nothing — over 10,000 net.send and wire.encode records it
// allocates exactly what it allocates over an empty journal.
func TestAuditRendersNothingUnaudited(t *testing.T) {
	empty, _ := testJournal(1 << 14)
	full, _ := testJournal(1 << 14)
	for i := 0; i < 5000; i++ { // details past 32 bytes: a rendered one cannot live on the stack
		full.AppendDetail(NetSend, "a", NetMessage(true, "vax1.cs.purdue", 7, "sun2.cs.purdue", 512, i, "injected"), 1, 2)
		full.AppendDetail(WireEncode, "a", WireFrame("SnapshotResp.ControlResp.StatusResp", i), 1, 2)
	}
	base := testing.AllocsPerRun(20, func() { Audit(empty) })
	if got := testing.AllocsPerRun(20, func() { Audit(full) }); got != base {
		t.Fatalf("auditing 10,000 unaudited records allocated %v times, an empty journal %v", got, base)
	}
}

// slotLayout is the layout the constructors of kind k write.
func slotLayout(k Kind) layout {
	switch {
	case k == CircuitTransition:
		return layoutCircuit
	case kindTable[k].format != "":
		return layoutFormat
	}
	return layoutText
}

// FuzzFormats renders arbitrary slots under every kind with a format and
// holds the text to fmt.Sprintf of that format over the same values: a
// flood's mint time rejoined from its two slots, a circuit step's states
// and reason by name.
func FuzzFormats(f *testing.F) {
	f.Add("alice", "vax2", "vax1:701->vax2:700", int32(6), int32(-1), int32(1<<31-1), true)
	f.Add("", "", "", int32(0), int32(0), int32(0), false)
	f.Add("%d|", "a,b partial=c", "<h\xff,1>", int32(-1<<31), int32(1<<8|3), int32(12), false)
	// A retry's backoffs of 200 ms, 1.6 s and 5 s; a timeout's op id past int32.
	f.Add("felipe", "vax1#2147483648#4294967301", "Control", int32(2), int32(0), int32(200*time.Millisecond), false)
	f.Add("felipe", "vax1#1#7", "Broadcast", int32(5), int32(0), int32(1600*time.Millisecond), false)
	f.Add("felipe", "vax1#1#7", "Broadcast", int32(9), int32(5*time.Second>>32), int32(5*time.Second&(1<<32-1)), false)
	f.Add("felipe", "vax2", "Control op=4294967301", int32(0), int32(0), int32(0), true)
	f.Fuzz(func(t *testing.T, s0, s1, s2 string, n0, n1, n2 int32, flag bool) {
		for _, k := range Kinds() {
			format := kindTable[k].format
			if format == "" {
				continue
			}
			d := Detail{layout: slotLayout(k), s: [3]string{s0, s1, s2}, n: [3]int32{n0, n1, n2}, flag: flag, kind: k}
			var args []any
			switch d.layout {
			case layoutCircuit:
				d.n[1] = int32(uint32(n1) % uint32(len(circuitReasons)))
				reason := circuitReasons[d.n[1]]
				if n2 != 0 {
					reason += fmt.Sprintf("-%d", n2)
				}
				args = []any{s0, s1, s2, CircuitState(n0 >> 8), CircuitState(n0), reason}
			default:
				if alt := kindTable[k].alt; alt != "" && flag {
					format = alt
				}
				strs, ints := d.s[:], d.n[:]
				for _, verb := range verbs(format) {
					switch verb {
					case 's':
						args, strs = append(args, strs[0]), strs[1:]
					case 'd':
						args, ints = append(args, ints[0]), ints[1:]
					case 'v':
						args, ints = append(args, time.Duration(int64(ints[0])<<32|int64(uint32(ints[1])))), ints[2:]
					case 't':
						args = append(args, flag)
					}
				}
			}
			if got, want := d.text(), fmt.Sprintf(format, args...); got != want {
				t.Fatalf("%v rendered %q, fmt.Sprintf of %q gives %q", k, got, format, want)
			}
		}
	})
}

// verbs lists a format's verbs, in order.
func verbs(format string) []byte {
	var out []byte
	for i := 0; i+1 < len(format); i++ {
		if format[i] == '%' {
			i++
			out = append(out, format[i])
		}
	}
	return out
}

// Each format appendFormat renders fits the slots: only %s, %d, %v and
// %t, at most three strings and three int32s (%v takes two) in each
// alternative, and a "*" row's format leads with the string its counter
// is named by.
func TestFormatsFitTheSlots(t *testing.T) {
	for _, k := range Kinds() {
		row := kindTable[k]
		if k == CircuitTransition {
			continue // rendered from its indices by layoutCircuit
		}
		for _, format := range []string{row.format, row.alt} {
			vs := string(verbs(format))
			if n := strings.Count(vs, "s"); n > 3 {
				t.Errorf("%v: %q takes %d strings", k, format, n)
			}
			if n := strings.Count(vs, "d") + 2*strings.Count(vs, "v"); n > 3 {
				t.Errorf("%v: %q takes %d int32s", k, format, n)
			}
			if strings.Trim(vs, "sdvt") != "" {
				t.Errorf("%v: %q has a verb outside %%s, %%d, %%v and %%t", k, format)
			}
		}
		if strings.Contains(row.counter, "*") && row.format != "" && !strings.HasPrefix(row.format, "%s ") {
			t.Errorf("%v is counted per first token, but its format %q does not lead with a string", k, row.format)
		}
	}
}

// TestAuditedKindsAreWrittenInSlots: every kind whose detail the audit
// reads declares a format, so the audit reads slots only — no site can
// write one as text: AppendDetail refuses a text detail under it.
func TestAuditedKindsAreWrittenInSlots(t *testing.T) {
	for _, k := range []Kind{KernelSpawn, KernelFork, KernelSetParent, KernelExit, SnapshotTaken,
		CircuitTransition, LPMSiblingAuth, LPMFloodOrigin,
		LPMFloodApply, LPMFloodDup, LPMFloodDone, LPMOpExec, LPMOpReplay, StatusRequest, StatusReport,
		DaemonLPMCreated} {
		if kindTable[k].format == "" {
			t.Errorf("the audit reads %v, which declares no format", k)
		}
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "text detail under a formatted kind") {
					t.Errorf("appending %v as text recovered %q, want the formatted-kind panic", k, msg)
				}
			}()
			j, _ := testJournal(8)
			j.AppendDetail(k, "a", text("pid=1"), 0, 0)
		}()
	}
}

// TestEveryKindHasAFormat: a fact is written in slots, so every kind
// declares a format but the six a NetMessage details and the three that
// carry no detail; Journal.Append's text is for those alone.
func TestEveryKindHasAFormat(t *testing.T) {
	unformatted := []Kind{NetSend, NetDeliver, NetDrop, NetCircuitOpen, NetCircuitClose, NetCircuitBreak,
		NetHostCrash, NetHostRestart, NetHeal}
	for _, k := range Kinds() {
		if has, want := kindTable[k].format != "", !slices.Contains(unformatted, k); has != want {
			t.Errorf("%v declares format %q, want one: %t", k, kindTable[k].format, want)
		}
	}
}

// The vocabulary is closed by the type; this holds the table to it.
// Every kind up to the sentinel has a row with a unique dotted name that
// parses back to exactly that kind (so no name is a dotted prefix of
// another), a prefix selects its family in table order, and nothing
// else parses.
func TestKindTableTotal(t *testing.T) {
	seen := make(map[string]Kind)
	for k := Kind(1); k < numKinds; k++ {
		name := kindTable[k].name
		if name == "" {
			t.Fatalf("kind %d (after %v) has no row in kindTable", k, k-1)
		}
		if name != k.String() || strings.ContainsAny(name, ", \t") || strings.HasPrefix(name, ".") || strings.HasSuffix(name, ".") {
			t.Errorf("kind %d is named %q, String() = %q", k, name, k.String())
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("kinds %d and %d are both named %q", prev, k, name)
		}
		seen[name] = k
		if got, err := ParseKinds(name); err != nil || len(got) != 1 || got[0] != k {
			t.Errorf("ParseKinds(%q) = %v, %v; want exactly [%v]", name, got, err, k)
		}
	}
	if got := Kinds(); len(got) != NumKinds-1 || got[0] != NetSend || got[len(got)-1] != numKinds-1 {
		t.Errorf("Kinds() = %v, want kinds 1..%d", got, numKinds-1)
	}
	for _, k := range []Kind{0, numKinds, 200} {
		if s := k.String(); seen[s] != 0 || s == "" {
			t.Errorf("Kind(%d).String() = %q, a registered name", k, s)
		}
	}

	got, err := ParseKinds(" lpm.sibling ,snapshot,net.flap")
	want := []Kind{LPMSiblingAuth, LPMSiblingReject, LPMRedial, SnapshotTaken, NetFlapDown, NetFlapUp}
	if err != nil || !slices.Equal(got, want) {
		t.Errorf("ParseKinds(families) = %v, %v; want %v", got, err, want)
	}
	for _, bad := range []string{"", "bogus", "net.", "net.sen", "ne", "net,", ",net", "net.send.", "Kind(0)"} {
		if got, err := ParseKinds(bad); err == nil {
			t.Errorf("ParseKinds(%q) = %v, want an error", bad, got)
		}
	}
	if _, err := ParseKinds("net,bogus"); err == nil || err.Error() != `unknown journal kind "bogus"` {
		t.Errorf("ParseKinds names the unknown kind as %v", err)
	}
}

// A kind outside the vocabulary cannot be spelt as a constant; one
// forged by conversion (or a forgotten zero) panics at the append.
func TestAppendUnregisteredKindPanics(t *testing.T) {
	for _, k := range []Kind{0, numKinds, 200} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "unregistered record kind") {
					t.Errorf("appending Kind(%d) recovered %q, want the unregistered-kind panic", k, msg)
				}
			}()
			j, _ := testJournal(8)
			j.Append(k, "a", "")
		}()
	}
}

func TestDiffIdenticalAndDivergent(t *testing.T) {
	a, anow := testJournal(16)
	b, bnow := testJournal(16)
	for i := 0; i < 5; i++ {
		*anow = time.Duration(i) * time.Millisecond
		*bnow = *anow
		a.Append(NetSend, "h", "n=1")
		b.Append(NetSend, "h", "n=1")
	}
	if d := Diff(a, b); d != nil {
		t.Fatalf("identical journals diverged: %s", d.Format())
	}
	*anow, *bnow = time.Second, time.Second
	a.AppendDetail(KernelExit, "h", Exit(3, 0, ""), 0, 0)
	b.AppendDetail(KernelExit, "h", Exit(4, 0, ""), 0, 0)
	d := Diff(a, b)
	if d == nil {
		t.Fatal("divergent journals reported identical")
	}
	if d.Index != 5 {
		t.Fatalf("Index = %d, want 5", d.Index)
	}
	if d.A == nil || d.B == nil || d.A.Detail == d.B.Detail {
		t.Fatalf("divergence records %v / %v", d.A, d.B)
	}
	if len(d.ContextA) != diffContext {
		t.Fatalf("context length %d, want %d", len(d.ContextA), diffContext)
	}
	out := d.Format()
	if !strings.Contains(out, "first divergence at record index 5") ||
		!strings.Contains(out, "pid=3") || !strings.Contains(out, "pid=4") {
		t.Fatalf("Format:\n%s", out)
	}
}

func TestDiffLengthMismatch(t *testing.T) {
	a, _ := testJournal(16)
	b, _ := testJournal(16)
	a.Append(NetSend, "h", "")
	a.Append(NetDeliver, "h", "")
	b.Append(NetSend, "h", "")
	d := Diff(a, b)
	if d == nil || d.Index != 1 || d.A == nil || d.B != nil {
		t.Fatalf("divergence = %+v", d)
	}
	if !strings.Contains(d.Format(), "(journal ends)") {
		t.Fatalf("Format:\n%s", d.Format())
	}
}

// --- audit ---

func rec(kind Kind, host string, d Detail) testRecord {
	return testRecord{Kind: kind, Host: host, Detail: d}
}

// st is a flood whose stamp is whole in its slot, as one past the
// sequence slot is (FloodStamp), so that messages name it shortly.
func st(stamp string) Detail {
	return Detail{layout: layoutFormat, s: [3]string{"u", stamp}, flag: true}
}

// sibStep is one step of user u's circuit from host to peer on channel
// ch, as the LPM journals it: a "hello" from Idle into Authenticating,
// the "client" or "server" end's open into Established (by auth-client
// or auth-server), and a "close" from Established. The open and the
// close are the channel's only records of either.
func sibStep(host, peer, ch, event string) testRecord {
	walk := map[string][3]string{
		"hello":  {"idle", "authenticating", "hello"},
		"client": {"authenticating", "established", "auth-client"},
		"server": {"authenticating", "established", "auth-server"},
		"close":  {"established", "closed", "close"},
	}[event]
	return ctRec(0, host, peer, ch, walk[0], walk[1], walk[2])
}

// channel is channel ch between a and b opened at both ends: b, the
// server, authenticates it before its open.
func channel(ch string) []testRecord {
	return []testRecord{
		sibStep("b", "a", ch, "hello"),
		rec(LPMSiblingAuth, "b", SiblingAuth("u", ch, "a")),
		sibStep("b", "a", ch, "server"),
		sibStep("a", "b", ch, "hello"),
		sibStep("a", "b", ch, "client"),
	}
}

func seqed(rs []testRecord) []testRecord {
	for i := range rs {
		rs[i].Seq = uint64(i + 1)
	}
	return rs
}

func TestAuditCleanRun(t *testing.T) {
	stream := seqed(slices.Concat([]testRecord{
		rec(KernelSpawn, "a", Spawn(1, "lpm", "u")),
		rec(KernelFork, "a", Fork(1, 2, "worker")),
		rec(KernelSetParent, "a", SetParent(2, "a", 1)),
	}, channel("a:10->b:111"), []testRecord{
		rec(LPMFloodOrigin, "a", FloodOrigin(FloodStamp("u", "a", time.Second, 1), "SnapshotReq")),
		rec(LPMFloodApply, "a", FloodStamp("u", "a", time.Second, 1)),
		rec(LPMFloodApply, "b", FloodStamp("u", "a", time.Second, 1)),
		rec(LPMFloodDone, "a", FloodDone(FloodStamp("u", "a", time.Second, 1), "a,b", "")),
		rec(KernelExit, "a", Exit(2, 0, "")),
		rec(SnapshotTaken, "a", Snapshot("u", "<a,2>|<a,1>|exited", "")),
		sibStep("a", "b", "a:10->b:111", "close"),
		sibStep("b", "a", "a:10->b:111", "close"),
	}))
	if vs := AuditRecords(stream, true); len(vs) != 0 {
		t.Fatalf("clean run flagged:\n%s", AuditReport(vs))
	}
}

func TestAuditDoubleAuth(t *testing.T) {
	stream := seqed([]testRecord{
		rec(LPMSiblingAuth, "b", SiblingAuth("u", "c1", "a")),
		rec(LPMSiblingAuth, "b", SiblingAuth("u", "c1", "a")),
	})
	vs := AuditRecords(stream, true)
	if len(vs) != 1 || vs[0].Check != "circuit" ||
		!strings.Contains(vs[0].Msg, "authenticated 2 times") {
		t.Fatalf("violations: %s", AuditReport(vs))
	}
}

func TestAuditOpenBeforeAuth(t *testing.T) {
	stream := seqed([]testRecord{sibStep("b", "a", "c1", "hello"), sibStep("b", "a", "c1", "server")})
	vs := AuditRecords(stream, true)
	if len(vs) != 1 || !strings.Contains(vs[0].Msg, "before authentication") {
		t.Fatalf("violations: %s", AuditReport(vs))
	}
	// A client-side open carries no auth (the server authenticates).
	stream = seqed([]testRecord{sibStep("a", "b", "c1", "hello"), sibStep("a", "b", "c1", "client")})
	if vs := AuditRecords(stream, true); len(vs) != 0 {
		t.Fatalf("client open flagged: %s", AuditReport(vs))
	}
	// Incomplete streams skip the check: the auth may be evicted.
	stream = seqed([]testRecord{sibStep("b", "a", "c1", "server")})
	if vs := AuditRecords(stream, false); len(vs) != 0 {
		t.Fatalf("incomplete stream flagged: %s", AuditReport(vs))
	}
}

func TestAuditDoubleApply(t *testing.T) {
	stream := seqed([]testRecord{
		rec(LPMFloodOrigin, "a", FloodOrigin(st("s1"), "")),
		rec(LPMFloodApply, "b", st("s1")),
		rec(LPMFloodApply, "b", st("s1")),
	})
	vs := AuditRecords(stream, true)
	if len(vs) != 1 || !strings.Contains(vs[0].Msg, "dedup failed") {
		t.Fatalf("violations: %s", AuditReport(vs))
	}
	// Double apply is always-sound: it fires even on incomplete streams.
	if vs := AuditRecords(stream, false); len(vs) != 1 {
		t.Fatalf("incomplete stream: %s", AuditReport(vs))
	}
}

func TestAuditFloodCoverage(t *testing.T) {
	// a—b circuit fully open, but the flood from a never reaches b.
	stream := seqed(append(channel("c1"),
		rec(LPMFloodOrigin, "a", FloodOrigin(st("s1"), "")),
		rec(LPMFloodApply, "a", st("s1")),
		rec(LPMFloodDone, "a", FloodDone(st("s1"), "a", "")),
	))
	vs := AuditRecords(stream, true)
	if len(vs) != 1 || !strings.Contains(vs[0].Msg, "never reached live sibling b") {
		t.Fatalf("violations: %s", AuditReport(vs))
	}
	// A dedup hit on b counts as reached.
	stream = seqed(append(channel("c1"),
		rec(LPMFloodOrigin, "a", FloodOrigin(st("s1"), "")),
		rec(LPMFloodApply, "a", st("s1")),
		rec(LPMFloodDup, "b", st("s1")),
		rec(LPMFloodDone, "a", FloodDone(st("s1"), "a", "")),
	))
	if vs := AuditRecords(stream, true); len(vs) != 0 {
		t.Fatalf("dup-covered flood flagged: %s", AuditReport(vs))
	}
	// A crash between origin and done changes the epoch: coverage is
	// then unprovable from the journal and the check stands down.
	stream = seqed(append(channel("c1"),
		rec(LPMFloodOrigin, "a", FloodOrigin(st("s1"), "")),
		rec(LPMFloodApply, "a", st("s1")),
		rec(NetHostCrash, "b", Detail{}),
		rec(LPMFloodDone, "a", FloodDone(st("s1"), "a", "")),
	))
	if vs := AuditRecords(stream, true); len(vs) != 0 {
		t.Fatalf("quiescence-violated flood flagged: %s", AuditReport(vs))
	}
}

func TestAuditSnapshotGenealogy(t *testing.T) {
	base := []testRecord{
		rec(KernelSpawn, "a", Spawn(1, "lpm", "u")),
		rec(KernelFork, "a", Fork(1, 2, "w")),
	}
	// Unknown process.
	stream := seqed(append(append([]testRecord(nil), base...),
		rec(SnapshotTaken, "a", Snapshot("u", "<a,9>|<a,1>|running", ""))))
	vs := AuditRecords(stream, true)
	if len(vs) != 1 || !strings.Contains(vs[0].Msg, "never created") {
		t.Fatalf("violations: %s", AuditReport(vs))
	}
	// Wrong parent.
	stream = seqed(append(append([]testRecord(nil), base...),
		rec(SnapshotTaken, "a", Snapshot("u", "<a,2>|<a,7>|running", ""))))
	vs = AuditRecords(stream, true)
	if len(vs) != 1 || !strings.Contains(vs[0].Msg, "journal says <a,1>") {
		t.Fatalf("violations: %s", AuditReport(vs))
	}
	// Exited without an exit record.
	stream = seqed(append(append([]testRecord(nil), base...),
		rec(SnapshotTaken, "a", Snapshot("u", "<a,2>|<a,1>|exited", ""))))
	vs = AuditRecords(stream, true)
	if len(vs) != 1 || !strings.Contains(vs[0].Msg, "no exit record") {
		t.Fatalf("violations: %s", AuditReport(vs))
	}
	// SetParent overrides the fork parent.
	stream = seqed(append(append([]testRecord(nil), base...),
		rec(KernelSetParent, "a", SetParent(2, "b", 5)),
		rec(SnapshotTaken, "a", Snapshot("u", "<a,2>|<b,5>|running", ""))))
	if vs := AuditRecords(stream, true); len(vs) != 0 {
		t.Fatalf("setparent snapshot flagged: %s", AuditReport(vs))
	}
}

func TestAuditTruncation(t *testing.T) {
	var stream []testRecord
	for i := 0; i < maxViolations+10; i++ {
		stream = append(stream, rec(LPMFloodApply, "b", st("s1")),
			rec(LPMFloodApply, "b", st("s1")))
	}
	vs := AuditRecords(seqed(stream), false)
	if len(vs) != maxViolations+1 {
		t.Fatalf("got %d violations, want %d + truncation marker", len(vs), maxViolations)
	}
	if last := vs[len(vs)-1]; last.Check != "audit" ||
		!strings.Contains(last.Msg, "truncated") {
		t.Fatalf("last violation = %v", last)
	}
}

func TestRenderByteIdentity(t *testing.T) {
	build := func() *Journal {
		j, now := testJournal(8)
		*now = 5 * time.Millisecond
		j.AppendDetail(NetSend, "a", text("datagram a:1->b:2 10B"), 1, 2)
		*now = 6 * time.Millisecond
		j.AppendDetail(WireDecode, "b", WireFrame("Hello", 10), 0, 0)
		return j
	}
	a, b := build().Render(), build().Render()
	if a != b {
		t.Fatalf("renders differ:\n%s\n---\n%s", a, b)
	}
	if !strings.Contains(a, "net.send") || !strings.Contains(a, "T+5ms") {
		t.Fatalf("render:\n%s", a)
	}
}

func TestAuditStatusSweepClean(t *testing.T) {
	stream := seqed([]testRecord{
		rec(StatusRequest, "a", SweepRequest("u", "a", 1, "a,b,c")),
		rec(StatusReport, "a", SweepReport("u", "a", 1, "a", true)),
		rec(StatusReport, "a", SweepReport("u", "a", 1, "b", true)),
		rec(StatusReport, "a", SweepReport("u", "a", 1, "c", false)),
	})
	if vs := AuditRecords(stream, true); len(vs) != 0 {
		t.Fatalf("clean sweep flagged:\n%s", AuditReport(vs))
	}
}

func TestAuditStatusSweepDuplicateReport(t *testing.T) {
	stream := seqed([]testRecord{
		rec(StatusRequest, "a", SweepRequest("u", "a", 1, "a,b")),
		rec(StatusReport, "a", SweepReport("u", "a", 1, "a", true)),
		rec(StatusReport, "a", SweepReport("u", "a", 1, "b", true)),
		rec(StatusReport, "a", SweepReport("u", "a", 1, "b", true)),
	})
	vs := AuditRecords(stream, true)
	if len(vs) != 1 || vs[0].Check != "status" ||
		!strings.Contains(vs[0].Msg, "resolved b 2 times") {
		t.Fatalf("violations: %s", AuditReport(vs))
	}
}

func TestAuditStatusSweepUntargetedHost(t *testing.T) {
	stream := seqed([]testRecord{
		rec(StatusRequest, "a", SweepRequest("u", "a", 1, "a,b")),
		rec(StatusReport, "a", SweepReport("u", "a", 1, "a", true)),
		rec(StatusReport, "a", SweepReport("u", "a", 1, "b", true)),
		rec(StatusReport, "a", SweepReport("u", "a", 1, "d", true)),
	})
	vs := AuditRecords(stream, true)
	if len(vs) != 1 || !strings.Contains(vs[0].Msg, "never targeted") {
		t.Fatalf("violations: %s", AuditReport(vs))
	}
}

func TestAuditStatusSweepMissingReport(t *testing.T) {
	stream := seqed([]testRecord{
		rec(StatusRequest, "a", SweepRequest("u", "a", 1, "a,b,c")),
		rec(StatusReport, "a", SweepReport("u", "a", 1, "a", true)),
		rec(StatusReport, "a", SweepReport("u", "a", 1, "b", true)),
	})
	vs := AuditRecords(stream, true)
	if len(vs) != 1 || vs[0].Check != "status" ||
		!strings.Contains(vs[0].Msg, "never resolved target c") {
		t.Fatalf("violations: %s", AuditReport(vs))
	}
	// The coverage check needs the full stream: an evicted report record
	// must not read as a missing one.
	if vs := AuditRecords(stream, false); len(vs) != 0 {
		t.Fatalf("incomplete stream flagged: %s", AuditReport(vs))
	}
}

func TestAuditStatusSweepNoRequest(t *testing.T) {
	stream := seqed([]testRecord{
		rec(StatusReport, "a", SweepReport("u", "a", 1, "a", true)),
	})
	vs := AuditRecords(stream, true)
	if len(vs) != 1 || !strings.Contains(vs[0].Msg, "no request record") {
		t.Fatalf("violations: %s", AuditReport(vs))
	}
	// The request may have been evicted from an incomplete stream.
	if vs := AuditRecords(stream, false); len(vs) != 0 {
		t.Fatalf("incomplete stream flagged: %s", AuditReport(vs))
	}
}

func TestAuditStatusSweepCrashedHostReachable(t *testing.T) {
	// c crashed before the sweep started and never restarted: an ok=true
	// report for it cannot exist.
	stream := seqed([]testRecord{
		rec(NetHostCrash, "c", Detail{}),
		rec(StatusRequest, "a", SweepRequest("u", "a", 1, "a,c")),
		rec(StatusReport, "a", SweepReport("u", "a", 1, "a", true)),
		rec(StatusReport, "a", SweepReport("u", "a", 1, "c", true)),
	})
	vs := AuditRecords(stream, true)
	if len(vs) != 1 || !strings.Contains(vs[0].Msg, "reports crashed host c reachable") {
		t.Fatalf("violations: %s", AuditReport(vs))
	}
	// A restart mid-sweep legitimizes the report: a fresh LPM answered.
	stream = seqed([]testRecord{
		rec(NetHostCrash, "c", Detail{}),
		rec(StatusRequest, "a", SweepRequest("u", "a", 1, "a,c")),
		rec(StatusReport, "a", SweepReport("u", "a", 1, "a", true)),
		rec(NetHostRestart, "c", Detail{}),
		rec(StatusReport, "a", SweepReport("u", "a", 1, "c", true)),
	})
	if vs := AuditRecords(stream, true); len(vs) != 0 {
		t.Fatalf("restart-covered sweep flagged: %s", AuditReport(vs))
	}
}

// TestAuditRedCases: one minimal stream per violation message no other
// test provokes. Each must yield exactly its check and message, blamed
// on the offending record — and the same stream without that record
// must audit clean, so nothing else in the row is what fails.
func TestAuditRedCases(t *testing.T) {
	flood := []testRecord{ // a clean flood to stand beside the broken one
		rec(LPMFloodOrigin, "a", FloodOrigin(st("s0"), "")),
		rec(LPMFloodApply, "a", st("s0")),
		rec(LPMFloodDone, "a", FloodDone(st("s0"), "a", "")),
	}
	c1 := channel("c1")
	reopen := func(ch string) []testRecord { // a closes c1 and opens ch
		return append(slices.Clone(c1), sibStep("a", "b", "c1", "close"),
			sibStep("a", "b", ch, "hello"), sibStep("a", "b", ch, "client"))
	}
	exec := rec(LPMOpExec, "a", Op("u", "a", 1, 1, "Control"))
	bigExec := rec(LPMOpExec, "a", Op("u", "a", 1, 1<<31, "Control")) // past the sequence slot: whole in the origin's
	big := FloodStamp("u", "a", time.Second, 1<<31)                   // past the sequence slot: whole in the origin's
	bigFlood := []testRecord{
		rec(LPMFloodOrigin, "a", FloodOrigin(big, "SnapshotReq")),
		rec(LPMFloodApply, "a", big),
		rec(LPMFloodDone, "a", FloodDone(big, "a", "")),
	}
	cases := []struct {
		name, check, msg string
		stream           []testRecord
		bad              int // index of the offending record
	}{
		{"exit without creation", "genealogy", "exit of <a,2> which was never created",
			[]testRecord{rec(KernelSpawn, "a", Spawn(1, "lpm", "u")), rec(KernelExit, "a", Exit(2, 0, ""))}, 1},
		{"apply without origin", "flood", "apply of flood s1 with no origin record",
			append(slices.Clone(flood), rec(LPMFloodApply, "b", st("s1"))), 3},
		{"double execution", "dedup", "op u/a#1#1 executed twice (first on a, again on b)",
			[]testRecord{exec, rec(LPMOpExec, "b", Op("u", "a", 1, 1, "Control"))}, 1},
		{"whole op executed twice", "dedup", "op u/a#1#2147483648 executed twice (first on a, again on b)",
			[]testRecord{bigExec, rec(LPMOpExec, "b", Op("u", "a", 1, 1<<31, "Control"))}, 1},
		{"replay without execution", "dedup", "replay of op u/a#1#2 which was never executed",
			[]testRecord{exec, rec(LPMOpReplay, "a", Op("u", "a", 1, 2, "Control"))}, 1},
		{"sweep requested twice", "status", "sweep u/a#1 requested twice",
			[]testRecord{
				rec(StatusRequest, "a", SweepRequest("u", "a", 1, "a")),
				rec(StatusReport, "a", SweepReport("u", "a", 1, "a", true)),
				rec(StatusRequest, "a", SweepRequest("u", "a", 1, "a")),
			}, 2},
		{"channel opened twice", "circuit", "channel c1 opened twice by a", reopen("c1"), 7},
		{"close without open", "circuit", "channel c1 closed by a without an open record",
			[]testRecord{sibStep("a", "b", "c0", "hello"), sibStep("a", "b", "c0", "client"), sibStep("a", "b", "c1", "close")}, 2},
		{"closed twice", "circuit", "channel c1 closed twice by a",
			append(reopen("c2"), sibStep("a", "b", "c1", "close")), 8},
		{"flood originated twice", "flood", "flood s0 originated twice",
			slices.Insert(slices.Clone(flood), 1, rec(LPMFloodOrigin, "a", FloodOrigin(st("s0"), ""))), 1},
		{"done without origin", "flood", "flood s1 completed with no origin record",
			append(slices.Clone(flood), rec(LPMFloodDone, "a", FloodDone(st("s1"), "", ""))), 3},
		{"whole stamp applied twice", "flood", "flood a@1s#2147483648 applied 2 times on a (dedup failed)",
			slices.Insert(slices.Clone(bigFlood), 2, rec(LPMFloodApply, "a", big)), 2},
		{"covered host without apply", "flood", "flood s0 reports host b but no apply record",
			append(slices.Clone(flood[:2]), rec(LPMFloodDone, "a", FloodDone(st("s0"), "a,b", ""))), 2},
		{"second LPM in one boot", "daemon", "pmd on a created a second LPM for u",
			[]testRecord{
				rec(KernelSpawn, "a", Spawn(1, "lpm", "u")), rec(DaemonLPMCreated, "a", UserLPM("u")),
				rec(KernelSpawn, "a", Spawn(2, "lpm", "u")), rec(DaemonLPMCreated, "a", UserLPM("u")),
			}, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			vs := AuditRecords(seqed(slices.Clone(tc.stream)), true)
			if len(vs) != 1 || vs[0].Check != tc.check || vs[0].Msg != tc.msg || vs[0].Seq != uint64(tc.bad+1) {
				t.Fatalf("want [%s] record #%d: %s; got:\n%s", tc.check, tc.bad+1, tc.msg, AuditReport(vs))
			}
			rest := seqed(slices.Delete(slices.Clone(tc.stream), tc.bad, tc.bad+1))
			if vs := AuditRecords(rest, true); len(vs) != 0 {
				t.Fatalf("the stream without its offending record is flagged:\n%s", AuditReport(vs))
			}
		})
	}
}

// TestAuditLPMCreatedAgainAfterExitOrCrash: a pmd may create a user's
// LPM again once the first has exited, or once its host has crashed.
func TestAuditLPMCreatedAgainAfterExitOrCrash(t *testing.T) {
	created := rec(DaemonLPMCreated, "a", UserLPM("u"))
	stream := []testRecord{
		rec(KernelSpawn, "a", Spawn(1, "lpm", "u")), created, rec(KernelExit, "a", Exit(1, 0, "")),
		rec(KernelSpawn, "a", Spawn(2, "lpm", "u")), created,
		rec(NetHostCrash, "a", Detail{}), rec(NetHostRestart, "a", Detail{}),
		rec(KernelSpawn, "a", Spawn(3, "lpm", "u")), created,
		rec(DaemonLPMCreated, "a", UserLPM("v")), rec(DaemonLPMCreated, "b", UserLPM("u")),
	}
	if vs := AuditRecords(seqed(stream), true); len(vs) != 0 {
		t.Fatalf("re-creations after an exit or a crash are flagged:\n%s", AuditReport(vs))
	}
}

// A retained record costs its ring slot and, rarely, a text or a wide
// trace context queued beside it, so the slot's size is the journal's
// share of heap_live_mb: 65,536 of them at 48 bytes are 3 MiB. Growing
// it is a memory regression on every workload (PERFORMANCE.md).
func TestEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(slot{}); got > 48 {
		t.Fatalf("ring slot is %d bytes, budget 48", got)
	}
}

// TestJournalAppendZeroAllocs: once the ring is full, appending evicts
// in place — the flight recorder's steady state (the //ppmlint:hotpath
// pin for Append/AppendDetail) must stay off the allocator,
// whichever form the detail arrives in: names, text and a trace
// context past 32 bits kept out of line, an op split into its parts.
func TestJournalAppendZeroAllocs(t *testing.T) {
	j, now := testJournal(64)
	for i := 0; i < 64; i++ {
		j.Append(NetSend, "a", "warm")
	}
	if j.Dropped() != 0 {
		t.Fatalf("warm phase evicted %d records before filling capacity", j.Dropped())
	}
	*now = time.Second
	if allocs := testing.AllocsPerRun(200, func() {
		j.Append(NetDeliver, "a", "steady")
		j.AppendDetail(NetHeal, "a", text("steady"), 7, 9)
		j.AppendDetail(WireEncode, "a", WireFrame("Control", 37), 7, 9)
		j.AppendDetail(NetSend, "a", NetMessage(true, "a", 7, "b", 512, 14, ""), 7, 9)
		j.AppendDetail(CircuitTransition, "a", CircuitStep("u", "b", "a:7->b:512", CircuitAuthenticating, CircuitEstablished, "auth-client", 0), 1<<40, 9)
		j.AppendDetail(LPMOpExec, "b", Op("u", "a", 30, 7, "Control"), 7, 9)
	}); allocs != 0 {
		t.Fatalf("steady-state Append allocates %v times per run, want 0", allocs)
	}
}

// The canonical line is built append-style; this is the fmt form it
// replaced, kept as the reference every reader's output is held to.
func referenceLine(r Record) string {
	host := r.Host
	if host == "" {
		host = "-"
	}
	s := fmt.Sprintf("#%06d %-12s %-8s %-18s %s", r.Seq, "T+"+r.At.String(), host, r.Kind.String(), r.Detail)
	s = strings.TrimRight(s, " ")
	if r.Trace != 0 {
		s += fmt.Sprintf(" [t=%d s=%d]", r.Trace, r.Span)
	}
	return s
}

func TestLineMatchesTheFmtReference(t *testing.T) {
	ats := []time.Duration{0, 12500 * time.Nanosecond, 371286400 * time.Nanosecond, 3*time.Hour + 25*time.Minute + 45678*time.Microsecond}
	seqs := []uint64{0, 7, 99999, 100000, 123456789}
	hosts := []string{"", "a", "vax1", "exactly8", "a-host-name-longer-than-its-column", "hôte"}
	details := []string{"", "x", "user=u peer=vax2  ", "trailing spaces in the middle  kept"}
	j, now := testJournal(1 << 12)
	var want []string
	for _, kind := range []Kind{NetHeal, NetSend, LPMSiblingReject} {
		for i, at := range ats {
			for _, host := range hosts {
				for k, detail := range details {
					d := text(detail)
					if kind == LPMSiblingReject { // a name that fills its column, and a format
						d, detail = SiblingReject("vax2", detail), "from=vax2 reason="+detail
					}
					r := Record{Seq: seqs[(i+k)%len(seqs)], At: at, Kind: kind, Host: host, Detail: detail}
					if k%2 == 1 {
						r.Trace, r.Span = uint64(i)+1, seqs[k]
					}
					if got, want := r.String(), referenceLine(r); got != want {
						t.Fatalf("String() = %q, the fmt form gives %q", got, want)
					}
					*now = at
					j.AppendDetail(kind, host, d, r.Trace, r.Span)
					r.Seq = uint64(len(want) + 1)
					want = append(want, referenceLine(r)+"\n")
				}
			}
		}
	}
	if got := j.Render(); got != strings.Join(want, "") {
		t.Fatalf("Render() departs from the fmt form:\n%s", got)
	}
	head := fmt.Sprintf("=== journal === (%d shown / %d retained, 0 dropped)\n", len(want), len(want))
	if got := j.Report(Filter{}); got != head+strings.Join(want, "") {
		t.Fatalf("Report() departs from the fmt form:\n%s", got)
	}
}

// allocBytes returns the fewest bytes f allocated over five calls, by
// runtime.MemStats.TotalAlloc; the minimum drops what another goroutine
// allocated meanwhile.
func allocBytes(f func()) uint64 {
	least := ^uint64(0)
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// pageSlack is what rounding can add to an allocation of the sizes
// these pins read: an object past 32 KiB takes whole 8 KiB pages.
const pageSlack = 8 << 10

// TestReportAllocatesItsTextOnce: Report and Render allocate their text
// once, at its length — no buffer grown by doubling, no copy through
// fmt — whatever the filter keeps.
func TestReportAllocatesItsTextOnce(t *testing.T) {
	j, now := testJournal(4096)
	hosts := []string{"a", "vax2", "gateway"}
	for i := 0; i < 4000; i++ {
		*now = time.Duration(i) * time.Millisecond
		host := hosts[i%len(hosts)]
		j.AppendDetail(NetSend, host, text("datagram a:1->b:2 10B"), 0, 0)
		j.AppendDetail(WireDecode, host, WireFrame("Control", 37+i), uint64(i), uint64(i+1))
	}
	var out string
	for _, c := range []struct {
		name string
		read func() string
	}{
		{"Render()", j.Render},
		{"Report(all)", func() string { return j.Report(Filter{}) }},
		{"Report(host vax2)", func() string { return j.Report(Filter{Host: "vax2"}) }},
		{"Report(wire)", func() string { return j.Report(Filter{Kinds: []Kind{WireDecode}}) }},
	} {
		got := allocBytes(func() { out = c.read() })
		t.Logf("%s allocates %d bytes for %d of text", c.name, got, len(out))
		if limit := uint64(len(out)) + pageSlack; got > limit || len(out) < 8*pageSlack {
			t.Errorf("%s allocates %d bytes for %d of text, want at most %d (and a text of 64 KiB or more)", c.name, got, len(out), limit)
		}
	}
}
