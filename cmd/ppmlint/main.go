// Command ppmlint is the invariant checker for this repo: a
// go/analysis multichecker speaking the `go vet -vettool` protocol.
//
// Usage:
//
//	go build -o /tmp/ppmlint ./cmd/ppmlint
//	go vet -vettool=/tmp/ppmlint ./...
//
// It enforces the four determinism invariants the golden-output CI job
// depends on:
//
//	walltime      no time.Now/Since/Sleep/... outside internal/sim,
//	              cmd/, and tests
//	rawgoroutine  no go statements outside tests
//	unseededrand  no global math/rand or crypto/rand outside internal/sim
//	maporder      no map iteration with order-sensitive effects unless
//	              keys are sorted first
//
// and the two hot-path and error-handling invariants:
//
//	hotalloc      //ppmlint:hotpath functions contain no known-
//	              allocating constructs, and each names its
//	              AllocsPerRun pin test (pin=<TestName>)
//	errdrop       no discarded error returns (`_ =` or bare call)
//	              outside tests and cmd/ flag parsing
//
// The protocol and journal vocabularies need no analyzer: wire.MsgType
// and journal.Kind are dense enums closed by a sentinel, so the type
// checker rejects an ad-hoc kind or op, and table-driven tests hold
// every row to being named, dispatched and actually recorded.
//
// A finding can be silenced for one line by the comment
// //ppmlint:allow <analyzer> <reason> on the line above; an allowance
// that silences nothing is itself reported with the file:line it
// covered. See DESIGN.md "Determinism invariants".
//
// Exit codes: 0 clean, 1 at least one finding (or unused allowance), 2
// harness error (bad invocation, unreadable config, typecheck or
// analyzer failure) — so a red CI job is immediately diagnosable as lint
// debt versus a broken lint run.
package main

import (
	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/unitchecker"

	"ppm/internal/analysis/errdrop"
	"ppm/internal/analysis/hotalloc"
	"ppm/internal/analysis/maporder"
	"ppm/internal/analysis/rawgoroutine"
	"ppm/internal/analysis/unseededrand"
	"ppm/internal/analysis/walltime"
)

// suite lists the six enforced invariants: the determinism four,
// hotalloc and errdrop.
func suite() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		walltime.Analyzer,
		rawgoroutine.Analyzer,
		unseededrand.Analyzer,
		maporder.Analyzer,
		hotalloc.Analyzer,
		errdrop.Analyzer,
	}
}

func main() {
	unitchecker.Main(suite()...)
}
