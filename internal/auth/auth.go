// Package auth models the authentication fabric the paper relies on:
// consistent password files across mutually trusting machines, per-user
// secrets, .rhosts-style remote-access flexibility, and the tokens the
// process manager daemons and LPMs use to prevent user-level
// masquerade. Host-level masquerade is (deliberately, as in the paper)
// out of scope.
package auth

import (
	"crypto/hmac"
	"crypto/sha256"
	"errors"
	"fmt"
	"slices"

	"ppm/internal/detord"
	"ppm/internal/wire"
)

// Authentication errors.
var (
	ErrUnknownUser = errors.New("auth: unknown user")
	ErrBadToken    = errors.New("auth: bad token")
	ErrNotTrusted  = errors.New("auth: host not trusted")
)

// User is one account, assumed consistent across all trusting hosts
// ("it is the responsibility of network system administrators to have
// consistent password files across machines that trust each other").
type User struct {
	Name string
	// key is the user's secret, shared across hosts via the consistent
	// account database; it signs tokens and broadcast stamps.
	key []byte
	// Stamps signs and checks the user's stamps under key: one keyed MAC
	// per user, which every LPM and tool of theirs shares as they do the key.
	Stamps *wire.Signer
	// Names interns the host names the user's LPMs read off the wire
	// (wire.DecodeHop): one table per user, shared as Stamps is.
	Names wire.Names
	// rhosts lists hosts from which remote access is permitted without
	// further proof, mirroring ~/.rhosts.
	rhosts map[string]bool
	// tokens holds the user's token for each purpose, computed on first
	// use: it depends on nothing else.
	tokens map[string][]byte
}

// Directory is the network-wide account database. It is shared by all
// hosts in the administrative domain, as the paper assumes.
type Directory struct {
	users map[string]*User
}

// NewDirectory returns an empty account database.
func NewDirectory() *Directory {
	return &Directory{users: make(map[string]*User)}
}

// AddUser registers an account and derives its secret deterministically
// from the name and the domain salt (good enough for a simulation; a
// real deployment would store random secrets).
func (d *Directory) AddUser(name string) *User {
	if u, ok := d.users[name]; ok {
		return u
	}
	mac := hmac.New(sha256.New, []byte("ppm-domain-salt"))
	mac.Write([]byte(name))
	key := mac.Sum(nil)
	u := &User{Name: name, key: key, Stamps: wire.NewSigner(key), Names: make(wire.Names),
		rhosts: make(map[string]bool), tokens: make(map[string][]byte)}
	d.users[name] = u
	return u
}

// Lookup finds an account.
func (d *Directory) Lookup(name string) (*User, error) {
	u, ok := d.users[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownUser, name)
	}
	return u, nil
}

// Users returns the sorted account names.
func (d *Directory) Users() []string {
	return detord.Keys(d.users)
}

// AllowRHost adds host to the user's .rhosts, permitting remote access
// from it.
func (d *Directory) AllowRHost(user, host string) error {
	u, ok := d.users[user]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownUser, user)
	}
	u.rhosts[host] = true
	return nil
}

// RHostAllowed reports whether the user permits access from host.
func (d *Directory) RHostAllowed(user, host string) bool {
	u, ok := d.users[user]
	return ok && u.rhosts[host]
}

// MintToken produces the credential a user presents to a pmd or a
// sibling LPM: an HMAC over (user, purpose) with the user's secret.
// Because the secret is shared across the trusting hosts, any host can
// verify it — this is what lets the pmd act as a trusted name server
// without system-wide unforgeable tickets. The caller owns the copy it
// gets.
func MintToken(u *User, purpose string) []byte {
	return slices.Clone(u.token(purpose))
}

// token returns the user's private copy of the token for purpose.
func (u *User) token(purpose string) []byte {
	if tok, ok := u.tokens[purpose]; ok {
		return tok
	}
	mac := hmac.New(sha256.New, u.key)
	mac.Write([]byte(u.Name))
	mac.Write([]byte{0})
	mac.Write([]byte(purpose))
	tok := mac.Sum(nil)
	u.tokens[purpose] = tok
	return tok
}

// VerifyToken checks a presented token against the account database.
func (d *Directory) VerifyToken(user, purpose string, token []byte) error {
	u, ok := d.users[user]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownUser, user)
	}
	if !hmac.Equal(token, u.token(purpose)) {
		return fmt.Errorf("%w: user %s purpose %s", ErrBadToken, user, purpose)
	}
	return nil
}

// Trust is the inter-host trust relation of the administrative domain:
// which hosts share administrative authority. The PPM only spans hosts
// that trust each other.
type Trust struct {
	trusted map[string]map[string]bool
}

// NewTrust returns an empty trust relation.
func NewTrust() *Trust {
	return &Trust{trusted: make(map[string]map[string]bool)}
}

// AllowAll establishes mutual trust among all the named hosts (the
// common case: one administrative domain).
func (t *Trust) AllowAll(hosts ...string) {
	for _, a := range hosts {
		for _, b := range hosts {
			t.Allow(a, b)
		}
	}
}

// Allow records that host a trusts host b.
func (t *Trust) Allow(a, b string) {
	m, ok := t.trusted[a]
	if !ok {
		m = make(map[string]bool)
		t.trusted[a] = m
	}
	m[b] = true
}

// Check returns an error unless host a trusts host b.
func (t *Trust) Check(a, b string) error {
	if a == b {
		return nil
	}
	if m, ok := t.trusted[a]; ok && m[b] {
		return nil
	}
	return fmt.Errorf("%w: %s does not trust %s", ErrNotTrusted, a, b)
}
