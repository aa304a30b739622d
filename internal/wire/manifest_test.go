package wire

import "testing"

// TestOpSpecsManifestTotal: every protocol op has a manifest row with a
// unique trace name (names derive the per-op counter pair, so a
// duplicate would merge two ops' accounting) and a valid dispatch role.
// The ordinal space is contiguous from 1 and the numOps sentinel sizes
// the table, so a constant added without a row shows up as an empty row
// here; a row keyed past the sentinel does not compile.
func TestOpSpecsManifestTotal(t *testing.T) {
	seen := make(map[string]MsgType)
	for i := 1; i < NumOps; i++ {
		op := MsgType(i)
		s := opSpecs[op]
		if s.name == "" {
			t.Errorf("op ordinal %d (after %v) has no opSpecs row", i, op-1)
			continue
		}
		if prev, dup := seen[s.name]; dup {
			t.Errorf("op %d shares wire name %q (and its counter pair) with op %d", i, s.name, prev)
		}
		seen[s.name] = op
		if s.role != roleRequest && s.role != roleResponse && s.role != roleEvent {
			t.Errorf("%s: invalid role %d", s.name, s.role)
		}
		if op.String() != s.name {
			t.Errorf("MsgType(%d).String() = %q, want manifest name %q", i, op.String(), s.name)
		}
	}
}

// TestMsgCounterNamesDerived: the precomputed counter pair for every
// manifest row matches the name-derived convention the fallback path
// in count uses.
func TestMsgCounterNamesDerived(t *testing.T) {
	for i := 1; i < NumOps; i++ {
		if opSpecs[i].name == "" {
			continue
		}
		want := "wire.msgs." + opSpecs[i].name
		if msgCounterNames[i].msgs != want {
			t.Errorf("op %d: counter %q, want %q", i, msgCounterNames[i].msgs, want)
		}
	}
}
