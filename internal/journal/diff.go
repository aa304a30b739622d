package journal

import (
	"fmt"
	"strings"
)

// diffContext is how many records of surrounding context a Divergence
// carries on each side of the first differing record.
const diffContext = 3

// Divergence describes the earliest point at which two journals differ.
type Divergence struct {
	// Index is the position (into the retained sequences, oldest first)
	// of the first differing record.
	Index int
	// A and B are the differing records; one side is nil when that
	// journal ended before the other.
	A, B *Record
	// ContextA and ContextB are the up-to-diffContext records preceding
	// the divergence on each side (they agree unless the journals
	// retained different windows).
	ContextA, ContextB []Record
}

// Diff compares two journals record by record and returns the first
// divergence, or nil if the retained streams are identical. Two
// same-seed runs must produce a nil diff; on a determinism failure the
// divergence names the causal event rather than leaving a byte-level
// output diff to stare at.
func Diff(ja, jb *Journal) *Divergence {
	a, b := ja.Records(), jb.Records()
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return divergenceAt(a, b, i)
		}
	}
	if len(a) != len(b) {
		return divergenceAt(a, b, n)
	}
	return nil
}

func divergenceAt(a, b []Record, i int) *Divergence {
	d := &Divergence{Index: i}
	if i < len(a) {
		d.A = &a[i]
	}
	if i < len(b) {
		d.B = &b[i]
	}
	lo := max(i-diffContext, 0)
	d.ContextA = append([]Record(nil), a[lo:min(i, len(a))]...)
	d.ContextB = append([]Record(nil), b[lo:min(i, len(b))]...)
	return d
}

// Format renders the divergence for a test failure or report: the first
// differing record on each side with its preceding context.
func (d *Divergence) Format() string {
	if d == nil {
		return "journals identical\n"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "first divergence at record index %d:\n", d.Index)
	side := func(name string, ctx []Record, r *Record) {
		fmt.Fprintf(&sb, "  run %s:\n", name)
		for _, c := range ctx {
			fmt.Fprintf(&sb, "      %s\n", c.String())
		}
		if r != nil {
			fmt.Fprintf(&sb, "    > %s\n", r.String())
		} else {
			fmt.Fprintf(&sb, "    > (journal ends)\n")
		}
	}
	side("A", d.ContextA, d.A)
	side("B", d.ContextB, d.B)
	return sb.String()
}
