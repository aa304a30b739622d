// Package detord provides the repo's one blessed idiom for
// deterministic iteration and ordering.
//
// Go map iteration order is deliberately randomized, so any loop over a
// map whose body has order-sensitive effects (appends, sends, metric or
// trace emission, output formatting) is a determinism bug: two runs of
// the same seeded simulation would diverge. The golden-output CI job and
// every snapshot test depend on byte-identical runs, so ordered
// iteration must go through a single recognizable helper rather than
// ad-hoc collect-and-sort snippets scattered per package.
//
// The maporder check (internal/lint) knows this package:
// ranging over detord.Keys(m) is ordered by construction, and a
// collect-append loop whose slice is later passed to detord.Sort or
// detord.SortBy is treated as the sorted-before-use idiom.
package detord

import (
	"cmp"
	"slices"
)

// Keys returns the keys of m in ascending order. It is the canonical
// way to iterate a map deterministically:
//
//	for _, k := range detord.Keys(m) {
//		use(k, m[k])
//	}
func Keys[M ~map[K]V, K cmp.Ordered, V any](m M) []K {
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// Sort sorts a slice of ordered elements ascending, in place.
func Sort[S ~[]E, E cmp.Ordered](s S) {
	slices.Sort(s)
}

// SortBy sorts s in place, ascending by key(e). The sort is stable, so
// elements with equal keys keep their input order; callers that need a
// total order should use SortBy2 or include a tie-breaking component in
// the key.
func SortBy[S ~[]E, E any, K cmp.Ordered](s S, key func(E) K) {
	slices.SortStableFunc(s, func(a, b E) int {
		return cmp.Compare(key(a), key(b))
	})
}

// SortBy2 sorts s in place, ascending by key1(e) and then, for equal
// primary keys, by key2(e). The sort is stable.
func SortBy2[S ~[]E, E any, K1 cmp.Ordered, K2 cmp.Ordered](s S, key1 func(E) K1, key2 func(E) K2) {
	slices.SortStableFunc(s, func(a, b E) int {
		if c := cmp.Compare(key1(a), key1(b)); c != 0 {
			return c
		}
		return cmp.Compare(key2(a), key2(b))
	})
}
