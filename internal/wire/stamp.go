package wire

import (
	"crypto/hmac"
	"crypto/sha256"
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

// stampDigest computes the signature input.
func stampDigest(origin string, at time.Duration, seq uint64) []byte {
	e := NewEncoder(32)
	e.String(origin)
	e.U64(uint64(at))
	e.U64(seq)
	return e.Bytes()
}

// NewStamp mints a signed stamp with the user's key.
func NewStamp(key []byte, origin string, at time.Duration, seq uint64) Stamp {
	mac := hmac.New(sha256.New, key)
	mac.Write(stampDigest(origin, at, seq))
	return Stamp{Origin: origin, At: at, Seq: seq, Sig: mac.Sum(nil)}
}

// Verify checks the stamp's signature with the user's key.
func (s Stamp) Verify(key []byte) bool {
	mac := hmac.New(sha256.New, key)
	mac.Write(stampDigest(s.Origin, s.At, s.Seq))
	return hmac.Equal(mac.Sum(nil), s.Sig)
}

// Key returns the dedup identity of the stamp (everything except the
// signature).
func (s Stamp) Key() string {
	return string(stampDigest(s.Origin, s.At, s.Seq))
}

// Fields walks the stamp in wire order, on its own or nested in the
// message that carries it.
func (s *Stamp) Fields(c *Coder) {
	c.Str(&s.Origin)
	c.Duration(&s.At)
	c.U64(&s.Seq)
	c.Bytes(&s.Sig)
}
