package main

import (
	"testing"

	"golang.org/x/tools/go/analysis"
)

// TestSuiteIsValid runs the go/analysis validator over the suite: it
// catches duplicate names, bad documentation, dependency cycles and
// undeclared fact types before go vet ever loads the tool.
func TestSuiteIsValid(t *testing.T) {
	if err := analysis.Validate(suite()); err != nil {
		t.Fatal(err)
	}
}

// TestSuiteCoversAllInvariants: the suite is exactly the six analyzers.
func TestSuiteCoversAllInvariants(t *testing.T) {
	want := map[string]bool{
		"walltime": true, "rawgoroutine": true,
		"unseededrand": true, "maporder": true,
		"hotalloc": true, "errdrop": true,
	}
	for _, a := range suite() {
		if !want[a.Name] {
			t.Errorf("unexpected analyzer %q", a.Name)
		}
		delete(want, a.Name)
	}
	for name := range want { // want is drained, order is irrelevant
		t.Errorf("missing analyzer %q", name)
	}
}
