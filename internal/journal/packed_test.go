package journal

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"ppm/internal/ring"
	"ppm/internal/trace"
)

// refJournal is the journal as it was before records were packed: a
// ring of whole entries, read straight from the ring.
type refJournal struct {
	now  func() time.Duration
	ring *ring.Buffer[entry]
	seq  uint64
}

func (r *refJournal) append(kind Kind, host string, d Detail, trace, span uint64) {
	d.kind = kind
	r.seq++
	p, _ := r.ring.Next()
	*p = entry{at: r.now(), trace: trace, span: span, host: host, d: d}
}

func (r *refJournal) dropped() uint64 { return r.seq - uint64(r.ring.Len()) }

func (r *refJournal) records(f Filter) []Record {
	out := []Record{}
	for i := 0; i < r.ring.Len(); i++ {
		if e := r.ring.At(i); f.match(&e) {
			out = append(out, record(r.dropped()+uint64(i)+1, &e))
		}
	}
	return out
}

// report is Report in the fmt form it replaced (referenceLine).
func (r *refJournal) report(f Filter) string {
	recs := r.records(f)
	var b strings.Builder
	fmt.Fprintf(&b, "=== journal === (%d shown / %d retained, %d dropped)\n", len(recs), r.ring.Len(), r.dropped())
	for _, rec := range recs {
		b.WriteString(referenceLine(rec) + "\n")
	}
	return b.String()
}

func (r *refJournal) flows(after uint64) ([]Flow, uint64) {
	var flows []Flow
	evicted := uint64(0)
	if after < r.dropped() {
		evicted = r.dropped() - after
	}
	for i := 0; i < r.ring.Len(); i++ {
		e := r.ring.At(i)
		if r.dropped()+uint64(i)+1 <= after || e.d.layout != layoutNetMessage || (e.d.kind != NetSend && e.d.kind != NetDrop) {
			continue
		}
		k := slices.IndexFunc(flows, func(f Flow) bool { return f.From == e.d.s[1] && f.To == e.d.s[2] })
		if k < 0 {
			k = len(flows)
			flows = append(flows, Flow{From: e.d.s[1], To: e.d.s[2]})
		}
		if e.d.kind == NetDrop {
			flows[k].Drops++
		} else {
			flows[k].Msgs++
			flows[k].Bytes += int(e.d.n[2])
		}
	}
	slices.SortFunc(flows, func(a, b Flow) int {
		return cmp.Or(cmp.Compare(b.Bytes, a.Bytes), cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To))
	})
	return flows, evicted
}

// audit is AuditWithSpans (Audit when spans is nil) over the entries.
func (r *refJournal) audit(spans []trace.SpanData) []Violation {
	a := newAuditor(r.dropped() == 0, nil)
	if spans != nil {
		a.auditSpans(trace.NewIndex(spans), a.complete)
	}
	for i := 0; i < r.ring.Len(); i++ {
		e, seq := r.ring.At(i), r.dropped()+uint64(i)+1
		if len(a.out) >= maxViolations {
			a.out = append(a.out, Violation{Seq: seq, Check: "audit", Msg: "too many violations; audit truncated"})
			break
		}
		a.crossLink(seq, e.trace, e.span)
		a.step(seq, &e)
	}
	if a.complete && len(a.out) < maxViolations {
		a.finishSweeps()
		a.finishCircuits()
	}
	if spans == nil {
		return a.out
	}
	room := max(maxViolations-len(a.out), 0)
	return append(a.out, a.links[:min(room, len(a.links))]...)
}

// The names a packed stream draws its name slots from: more than the
// cache of names holds apart, so some collide in it.
var (
	streamHosts = []string{"a", "gw", "c", "vax1", "sun-2", "hôte", "a-host-name-longer-than-its-column"}
	streamUsers = []string{"u", "alice", "felipe"}
	streamTypes = []string{"Control", "ControlResp", "StatsResp", "SnapshotReq", "Hello", "MsgType(47)"}
	streamWords = []string{"stop", "cont", "exit", "fork", "SIGKILL", "SIGSTOP", "injected", "lost", "unreachable"}
)

func init() {
	for i := 0; i < 48; i++ {
		streamHosts = append(streamHosts, fmt.Sprintf("h%02d", i))
	}
}

// packedStream is a seeded stream of records: every kind under every
// layout its constructors write, with empty slots, trace contexts at
// and past 32 bits, floods and ops numbered past int32, and a fresh
// channel key or free text in about three records of four.
func packedStream(seed int64, total int) (stream []testRecord, fresh int) {
	rng := rand.New(rand.NewSource(seed))
	pick := func(pool []string) string {
		if rng.Intn(9) == 0 {
			return ""
		}
		return pool[rng.Intn(len(pool))]
	}
	text := func() string {
		fresh++
		return fmt.Sprintf("text %d of the stream", fresh)
	}
	chanKey := func() string {
		fresh++
		return fmt.Sprintf("%s:%d->%s:%d", pick(streamHosts), fresh, pick(streamHosts), rng.Intn(1000))
	}
	ids := []uint64{0, 1, 7, 1 << 20, math.MaxUint32 - 1, math.MaxUint32, math.MaxUint32 + 1, math.MaxUint64}
	seqs := []uint64{0, 1, 7, math.MaxInt32, math.MaxInt32 + 1, math.MaxUint32 + 5, math.MaxUint64}
	n32 := func() int32 { return []int32{0, 1, -1, 12345, math.MaxInt32, math.MinInt32}[rng.Intn(6)] }
	stamp := func() Detail {
		return FloodStamp(pick(streamUsers), pick(streamHosts), time.Duration(rng.Int63n(1<<40)), seqs[rng.Intn(len(seqs))])
	}
	out := make([]testRecord, total)
	for i := range out {
		k := Kind(1 + rng.Intn(NumKinds-1))
		var d Detail
		switch k {
		case WireEncode, WireDecode:
			d = WireFrame(pick(streamTypes), rng.Intn(1<<20))
		case KernelSpawn:
			d = Spawn(n32(), text(), pick(streamUsers))
		case KernelFork:
			d = Fork(n32(), n32(), text())
		case KernelExit:
			d = Exit(n32(), n32(), pick(streamWords))
		case KernelSetParent:
			d = SetParent(n32(), pick(streamHosts), n32())
		case KernelEvent:
			d = EventMessage(pick(streamWords), pick(streamHosts), n32())
		case LPMControl:
			d = Control(pick(streamWords), n32(), rng.Intn(2) == 0)
		case LPMSiblingAuth:
			d = SiblingAuth(pick(streamUsers), chanKey(), pick(streamHosts))
		case LPMFloodOrigin:
			d = FloodOrigin(stamp(), pick(streamTypes))
		case LPMFloodApply, LPMFloodDup:
			d = stamp()
		case LPMFloodDone:
			d = FloodDone(stamp(), text(), []string{"", "c"}[rng.Intn(2)])
		case LPMOpExec, LPMOpReplay:
			d = Op(pick(streamUsers), pick(streamHosts), seqs[rng.Intn(len(seqs))], seqs[rng.Intn(len(seqs))], pick(streamTypes))
		case CircuitTransition:
			d = CircuitStep(pick(streamUsers), pick(streamHosts), chanKey(), CircuitState(rng.Intn(int(numCircuitStates))),
				CircuitState(rng.Intn(int(numCircuitStates))), circuitReasons[rng.Intn(len(circuitReasons))], rng.Intn(3))
		case SnapshotTaken:
			d = Snapshot(pick(streamUsers), text(), []string{"", text()}[rng.Intn(2)])
		case StatusRequest:
			d = SweepRequest(pick(streamUsers), pick(streamHosts), n32(), text())
		case StatusReport:
			d = SweepReport(pick(streamUsers), pick(streamHosts), n32(), pick(streamHosts), rng.Intn(2) == 0)
		case NetPartition:
			d = Partition(text())
		case NetFlapDown, NetFlapUp:
			d = Link(pick(streamHosts), pick(streamHosts))
		case DaemonQuery, DaemonAuthFail:
			d = Query(pick(streamUsers), pick(streamHosts))
		case DaemonLPMFound, DaemonLPMCreated:
			d = UserLPM(pick(streamUsers))
		case LPMAdopt:
			d = Adopt(pick(streamUsers), n32())
		case LPMSiblingReject:
			d = SiblingReject(pick(streamHosts), text())
		case LPMRelayOrigin, LPMRelayForward:
			d = Relay(pick(streamUsers), pick(streamHosts), pick(streamHosts))
		case LPMRetry:
			d = Retry(pick(streamUsers), text(), seqs[rng.Intn(len(seqs))], seqs[rng.Intn(len(seqs))], pick(streamTypes),
				int(n32()), time.Duration(rng.Int63())-time.Duration(rng.Int63()))
		case LPMTimeout:
			d = Timeout(pick(streamUsers), pick(streamHosts), pick(streamTypes), seqs[rng.Intn(len(seqs))])
		case LPMRedial:
			d = Redial(pick(streamUsers), pick(streamHosts), pick(streamWords))
		case LPMExitForward:
			d = ExitForward(pick(streamUsers), pick(streamHosts), n32(), pick(streamHosts))
		default: // a kind without a format: a message between hosts, or text
			switch rng.Intn(6) {
			case 0:
				d = NetMessage(rng.Intn(2) == 0, pick(streamHosts), uint16(rng.Intn(1<<16)), pick(streamHosts),
					uint16(rng.Intn(1<<16)), rng.Intn(1<<20), pick(streamWords))
			case 1:
				d = Detail{}
			default:
				d = Detail{s: [3]string{text()}} // as the package's text does
			}
		}
		out[i] = testRecord{Kind: k, Host: pick(streamHosts), Detail: d,
			Trace: ids[rng.Intn(len(ids))], Span: ids[rng.Intn(len(ids))]}
	}
	return out, fresh
}

// TestPackedJournalMatchesEntryRing: a seeded stream goes into a
// journal and into a ring of whole entries, and is reset halfway.
// Across the capacity boundary, while the window slides and after the
// reset, every reader of the journal — Records, Select, Render, Report,
// Flows, Diff, Audit and the trace audit — gives what the same reader
// gives over the ring, and so do Len, Dropped and Seq.
func TestPackedJournalMatchesEntryRing(t *testing.T) {
	stream, _ := packedStream(1, 100000)
	spans := []trace.SpanData{
		{Trace: 1, ID: 1, Name: "op", Host: "a", Ends: 1, End: time.Second},
		{Trace: 7, ID: 7, Name: "op", Host: "c", Ends: 1, End: time.Second},
		{Trace: math.MaxUint32, ID: math.MaxUint32 + 1, Name: "op", Host: "gw", Ends: 1, End: time.Second},
	}
	filters := []Filter{{}, {Kinds: []Kind{NetSend, LPMOpExec, LPMFloodDone}}, {Host: "gw"}, {Host: ""},
		{Since: time.Hour, Until: 3 * time.Hour}}
	for _, capacity := range []int{1, 7, 64, 1 << 16} {
		now := time.Duration(0)
		clock := func() time.Duration { return now }
		j, twin := New(clock), New(clock)
		j.SetCapacity(capacity)
		twin.SetCapacity(capacity)
		ref := &refJournal{now: clock, ring: ring.NewBuffer[entry](capacity)}
		check := func(at int) {
			t.Helper()
			where := fmt.Sprintf("capacity %d, after %d records", capacity, at)
			if j.Len() != ref.ring.Len() || j.Dropped() != ref.dropped() || j.Seq() != ref.seq {
				t.Fatalf("%s: Len, Dropped, Seq = %d, %d, %d; the ring's %d, %d, %d", where,
					j.Len(), j.Dropped(), j.Seq(), ref.ring.Len(), ref.dropped(), ref.seq)
			}
			if got, want := j.Records(), ref.records(Filter{}); !reflect.DeepEqual(append([]Record{}, got...), want) {
				t.Fatalf("%s: Records departs from the ring's", where)
			}
			for _, f := range filters {
				if got, want := j.Select(f), ref.records(f); !reflect.DeepEqual(append([]Record{}, got...), want) {
					t.Fatalf("%s: Select(%+v) departs from the ring's", where, f)
				}
				if got, want := j.Report(f), ref.report(f); got != want {
					t.Fatalf("%s: Report(%+v) departs from the ring's", where, f)
				}
			}
			if got, want := j.Render(), strings.SplitN(ref.report(Filter{}), "\n", 2)[1]; got != want {
				t.Fatalf("%s: Render departs from the ring's", where)
			}
			for _, after := range []uint64{0, ref.seq / 2, ref.seq - min(ref.seq, 3), ref.seq} {
				gotF, gotE := j.Flows(after)
				wantF, wantE := ref.flows(after)
				if !reflect.DeepEqual(gotF, wantF) || gotE != wantE {
					t.Fatalf("%s: Flows(%d) = %v, %d; the ring's %v, %d", where, after, gotF, gotE, wantF, wantE)
				}
			}
			if d := Diff(j, twin); d != nil {
				t.Fatalf("%s: a journal fed the same stream diverges:\n%s", where, d.Format())
			}
			if got, want := Audit(j), ref.audit(nil); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Audit departs from the ring's:\n%s---\n%s", where, AuditReport(got), AuditReport(want))
			}
			if got, want := AuditWithSpans(j, trace.NewIndex(spans), true), ref.audit(spans); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: AuditWithSpans departs from the ring's:\n%s---\n%s", where, AuditReport(got), AuditReport(want))
			}
		}
		checks := map[int]bool{1: true, capacity - 1: true, capacity: true, capacity + 1: true, 2*capacity + 3: true,
			len(stream)/2 - 1: true, len(stream)/2 + 1: true, len(stream)/2 + capacity: true, len(stream): true}
		for i, r := range stream {
			now += time.Duration(i%5) * time.Minute
			if i == len(stream)/2 {
				j.Reset()
				twin.Reset()
				ref.ring.Reset()
			}
			j.AppendDetail(r.Kind, r.Host, r.Detail, r.Trace, r.Span)
			twin.AppendDetail(r.Kind, r.Host, r.Detail, r.Trace, r.Span)
			ref.append(r.Kind, r.Host, r.Detail, r.Trace, r.Span)
			if checks[i+1] || capacity < 100 && (i+1)%997 == 0 {
				check(i + 1)
			}
		}
		// One record apart: Diff names it as it names the ring's first
		// differing record.
		twin.AppendDetail(NetSend, "a", NetMessage(true, "a", 1, "c", 2, 3, ""), 0, 0)
		j.AppendDetail(NetSend, "a", NetMessage(true, "a", 1, "c", 2, 4, ""), 0, 0)
		ref.append(NetSend, "a", NetMessage(true, "a", 1, "c", 2, 4, ""), 0, 0)
		want := ref.records(Filter{})
		got := Diff(j, twin)
		if got == nil || got.Index != len(want)-1 || !reflect.DeepEqual(*got.A, want[len(want)-1]) {
			t.Fatalf("capacity %d: Diff = %+v, want the last of %d records", capacity, got, len(want))
		}
	}
}

// TestJournalNamesStayBounded: the table of names holds the hosts,
// users, message types and vocabulary words the stream named and
// nothing of its 70,000 channel keys and free texts, which go out of
// line and leave with their records.
func TestJournalNamesStayBounded(t *testing.T) {
	stream, fresh := packedStream(2, 180000)
	if fresh < 70000 {
		t.Fatalf("the stream holds %d channel keys and free texts, want 70,000", fresh)
	}
	names := map[string]bool{"": true}
	for _, pool := range [][]string{streamHosts, streamUsers, streamTypes, streamWords} {
		for _, s := range pool {
			names[s] = true
		}
	}
	j, _ := testJournal(64)
	for _, r := range stream {
		j.AppendDetail(r.Kind, r.Host, r.Detail, r.Trace, r.Span)
	}
	if fresh := strings.Count(j.Render(), "text "); fresh == 0 {
		t.Fatal("the retained records hold no free text")
	}
	for i := range j.names.Len() {
		if s := j.names.Name(uint32(i)); !names[s] {
			t.Errorf("the table of names holds %q, which the stream never named", s)
		}
	}
	if j.names.Len() > len(names) {
		t.Errorf("the table holds %d names of the %d given", j.names.Len(), len(names))
	}
}
