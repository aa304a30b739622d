package wire

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"math"
	"time"
)

// Stamp is the paper's "signed timestamp in which the name of the
// originating host appears": it identifies a broadcast (or an
// authentication exchange) uniquely and unforgeably, so old broadcast
// requests can be recognized and not retransmitted within the retention
// window.
type Stamp struct {
	Origin string        // originating host name
	At     time.Duration // virtual time at the origin
	Seq    uint64        // per-origin sequence number
	Sig    []byte        // HMAC-SHA256 over (origin, at, seq) with the user key
}

// appendIdentity appends the signature input: the stamp less Sig, as on the
// wire. Plain appends: through an Encoder a stack buffer escapes.
func (s *Stamp) appendIdentity(b []byte) []byte {
	origin := s.Origin[:min(len(s.Origin), math.MaxUint16)] // as Encoder.String clamps it
	b = append(binary.BigEndian.AppendUint16(b, uint16(len(origin))), origin...)
	b = binary.BigEndian.AppendUint64(b, uint64(s.At))
	return binary.BigEndian.AppendUint64(b, s.Seq)
}

// Signer mints and verifies stamps under one user's key with one keyed
// HMAC, reset per stamp, in buffers it owns: a user has one, not one per
// stamp. A minted signature is its buffer, valid until its next Mint.
type Signer struct {
	mac             hash.Hash
	msg             []byte
	minted, checked [sha256.Size]byte
}

// NewSigner returns a signer for the user key.
func NewSigner(key []byte) *Signer {
	return &Signer{mac: hmac.New(sha256.New, key)}
}

// sum appends s's signature under the key to into.
//
//ppmlint:hotpath pin=TestSignerVerifyZeroAllocs
func (sg *Signer) sum(s *Stamp, into []byte) []byte {
	sg.msg = s.appendIdentity(sg.msg[:0])
	sg.mac.Reset()
	sg.mac.Write(sg.msg)
	return sg.mac.Sum(into)
}

// Mint returns a signed stamp: encode it, or copy Sig, before the next.
func (sg *Signer) Mint(origin string, at time.Duration, seq uint64) Stamp {
	s := Stamp{Origin: origin, At: at, Seq: seq}
	s.Sig = sg.sum(&s, sg.minted[:0])
	return s
}

// Verify checks the stamp's signature against the key.
func (sg *Signer) Verify(s *Stamp) bool {
	return hmac.Equal(sg.sum(s, sg.checked[:0]), s.Sig)
}

// Fields walks the stamp in wire order, on its own or nested in the
// message that carries it.
func (s *Stamp) Fields(c *Coder) {
	c.Str(&s.Origin)
	c.Duration(&s.At)
	c.U64(&s.Seq)
	c.Bytes(&s.Sig)
}
