// Package e is the errdrop fixture: dropped errors in every shape,
// exempt callees, and a suppressed fire-and-forget call.
package e

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"strings"
)

func fail() error         { return errors.New("x") }
func pair() (int, error)  { return 0, nil }
func value() int          { return 1 }
func lookup() (int, bool) { return 0, false }

// Drops collects the finding shapes.
func Drops() {
	fail()         // want `error from fail discarded \(handle it, or //ppmlint:allow errdrop <why>\)`
	_ = fail()     // want `error assigned to _ \(handle it, or //ppmlint:allow errdrop <why>\)`
	_, _ = pair()  // want `error assigned to _`
	n, _ := pair() // want `error assigned to _`
	_ = n
	defer fail()    // want `error from fail discarded`
	value()         // no error result: fine
	_, _ = lookup() // bool, not error: fine
	//ppmlint:allow errdrop fire-and-forget by design
	fail()
	// An allowance naming no check excuses nothing and is reported:
	// a misspelling, and a leftover from a retired check.
	//ppmlint:allow errdorp misspelt // want `//ppmlint:allow errdorp names no check \(the checks are walltime, rawgoroutine, unseededrand, maporder, errdrop\)`
	fail() // want `error from fail discarded`
	//ppmlint:allow hotalloc retired // want `//ppmlint:allow hotalloc names no check`
	value()
}

// Exempt callees: fmt's print family, strings.Builder and bytes.Buffer
// writers, and hash.Hash.Write (documented to never return an error).
func Exempt(w *strings.Builder, b *bytes.Buffer) {
	fmt.Println("ok")
	fmt.Fprintf(w, "x")
	w.WriteString("x")
	b.WriteByte('x')
	_, _ = fmt.Fprintln(b, "y")
	h := sha256.New()
	h.Write([]byte("x"))
	_, _ = h.Write([]byte("y"))
}
