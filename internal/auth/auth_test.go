package auth

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"errors"
	"testing"
	"testing/quick"
)

func TestAddUserIdempotent(t *testing.T) {
	d := NewDirectory()
	a := d.AddUser("felipe")
	b := d.AddUser("felipe")
	if a != b {
		t.Fatal("AddUser should return the existing account")
	}
	if !bytes.Equal(a.key, b.key) {
		t.Fatal("keys differ for same account")
	}
}

func TestLookup(t *testing.T) {
	d := NewDirectory()
	d.AddUser("stuart")
	if _, err := d.Lookup("stuart"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Lookup("nobody"); !errors.Is(err, ErrUnknownUser) {
		t.Fatalf("err = %v", err)
	}
}

func TestUsersSorted(t *testing.T) {
	d := NewDirectory()
	d.AddUser("zoe")
	d.AddUser("ana")
	got := d.Users()
	if len(got) != 2 || got[0] != "ana" || got[1] != "zoe" {
		t.Fatalf("Users = %v", got)
	}
}

func TestKeysDifferAcrossUsers(t *testing.T) {
	d := NewDirectory()
	a := d.AddUser("a")
	b := d.AddUser("b")
	if bytes.Equal(a.key, b.key) {
		t.Fatal("different users share a key")
	}
}

func TestTokenMintVerify(t *testing.T) {
	d := NewDirectory()
	u := d.AddUser("ramon")
	tok := MintToken(u, "pmd")
	if err := d.VerifyToken("ramon", "pmd", tok); err != nil {
		t.Fatal(err)
	}
	if err := d.VerifyToken("ramon", "sibling", tok); !errors.Is(err, ErrBadToken) {
		t.Fatalf("cross-purpose token accepted: %v", err)
	}
	if err := d.VerifyToken("other", "pmd", tok); !errors.Is(err, ErrUnknownUser) {
		t.Fatalf("err = %v", err)
	}
	d.AddUser("other")
	if err := d.VerifyToken("other", "pmd", tok); !errors.Is(err, ErrBadToken) {
		t.Fatal("user-level masquerade: token for ramon accepted for other")
	}
}

func TestTokenTamperRejected(t *testing.T) {
	d := NewDirectory()
	u := d.AddUser("ramon")
	tok := MintToken(u, "pmd")
	tok[0] ^= 0xff
	if err := d.VerifyToken("ramon", "pmd", tok); !errors.Is(err, ErrBadToken) {
		t.Fatal("tampered token accepted")
	}
}

// TestTokenComputedOnce: a token is computed once per user and purpose,
// and every MintToken hands out its own copy of the same HMAC bytes, so
// what one caller does to its copy reaches neither the next caller nor
// VerifyToken.
func TestTokenComputedOnce(t *testing.T) {
	d := NewDirectory()
	u := d.AddUser("ramon")
	mac := hmac.New(sha256.New, u.key)
	mac.Write([]byte("ramon\x00pmd"))
	want := mac.Sum(nil)
	a := MintToken(u, "pmd")
	a[0] ^= 0xff
	b := MintToken(u, "pmd")
	if !bytes.Equal(b, want) {
		t.Fatalf("token = %x, want HMAC %x", b, want)
	}
	if err := d.VerifyToken("ramon", "pmd", b); err != nil {
		t.Fatal(err)
	}
	if len(u.tokens) != 1 {
		t.Fatalf("%d tokens computed for one purpose", len(u.tokens))
	}
}

func TestRHosts(t *testing.T) {
	d := NewDirectory()
	d.AddUser("felipe")
	if d.RHostAllowed("felipe", "vax2") {
		t.Fatal("default should deny")
	}
	if err := d.AllowRHost("felipe", "vax2"); err != nil {
		t.Fatal(err)
	}
	if !d.RHostAllowed("felipe", "vax2") {
		t.Fatal("allowed host denied")
	}
	if d.RHostAllowed("felipe", "vax3") {
		t.Fatal("other host allowed")
	}
	if err := d.AllowRHost("ghost", "vax2"); !errors.Is(err, ErrUnknownUser) {
		t.Fatalf("err = %v", err)
	}
}

func TestTrustRelation(t *testing.T) {
	tr := NewTrust()
	tr.Allow("a", "b")
	if err := tr.Check("a", "b"); err != nil {
		t.Fatal(err)
	}
	if err := tr.Check("b", "a"); !errors.Is(err, ErrNotTrusted) {
		t.Fatal("trust should be directional")
	}
	if err := tr.Check("a", "a"); err != nil {
		t.Fatal("a host always trusts itself")
	}
}

func TestTrustAllowAll(t *testing.T) {
	tr := NewTrust()
	tr.AllowAll("a", "b", "c")
	for _, x := range []string{"a", "b", "c"} {
		for _, y := range []string{"a", "b", "c"} {
			if err := tr.Check(x, y); err != nil {
				t.Fatalf("Check(%s,%s): %v", x, y, err)
			}
		}
	}
	if err := tr.Check("a", "outsider"); err == nil {
		t.Fatal("outsider trusted")
	}
}

// Property: a token only verifies for the exact (user, purpose) pair it
// was minted for.
func TestPropertyTokenBinding(t *testing.T) {
	d := NewDirectory()
	f := func(user, purpose, otherUser, otherPurpose string) bool {
		if user == "" || purpose == "" {
			return true
		}
		u := d.AddUser(user)
		tok := MintToken(u, purpose)
		if d.VerifyToken(user, purpose, tok) != nil {
			return false
		}
		if otherUser != user {
			d.AddUser(orNonEmpty(otherUser))
			if d.VerifyToken(orNonEmpty(otherUser), purpose, tok) == nil {
				return false
			}
		}
		if otherPurpose != purpose {
			if d.VerifyToken(user, otherPurpose, tok) == nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func orNonEmpty(s string) string {
	if s == "" {
		return "_"
	}
	return s
}
