package wire

import (
	"strconv"
	"time"

	"ppm/internal/ring"
)

// defaultReplyCacheWindow bounds retention when the caller passes no
// explicit window. A retransmission of an operation can only arrive
// while its sender's retry loop is alive — at most MaxAttempts request
// timeouts plus the capped backoffs between them — so a couple of
// minutes of virtual time covers every plausible retry policy.
const defaultReplyCacheWindow = 2 * time.Minute

// CachedReply is one retained reply: the message type and encoded body
// the first execution of an at-most-once operation produced.
type CachedReply struct {
	Type MsgType
	Body []byte
}

// ReplyCache retains executed operations' replies keyed by their
// operation identity, so a retransmitted request (same origin, same
// OpID, a fresh ReqID) is answered from the cache instead of being
// re-executed. Eviction is by virtual-time age, not entry count: an
// entry is dropped once it has outlived the window, beyond which no
// retransmission of its operation can still arrive. A count bound
// would let a burst of concurrent operations evict an entry while its
// sender could still retransmit, silently re-executing a
// non-idempotent request.
type ReplyCache struct {
	entries *ring.Window[string, CachedReply]
}

// NewReplyCache creates a cache retaining entries for the given window
// of virtual time (<= 0 means defaultReplyCacheWindow).
func NewReplyCache(window time.Duration) *ReplyCache {
	if window <= 0 {
		window = defaultReplyCacheWindow
	}
	return &ReplyCache{entries: ring.NewWindow[string, CachedReply](window)}
}

// OpKey names one operation for caching and journaling: the origin
// host, the origin LPM's incarnation, and the origin-assigned
// operation id. The incarnation keeps a restarted or recreated LPM —
// whose op counter restarts from zero — from colliding with its
// predecessor's operations, so a stale cache entry can never answer a
// fresh request.
func OpKey(origin string, inc, op uint64) string {
	var buf [48]byte
	return string(strconv.AppendUint(appendOpPrefix(buf[:0], origin, inc), op, 10))
}

// OpPrefix is the common prefix of every OpKey minted by one LPM
// incarnation, for purging a dead incarnation's entries wholesale.
func OpPrefix(origin string, inc uint64) string {
	var buf [32]byte
	return string(appendOpPrefix(buf[:0], origin, inc))
}

func appendOpPrefix(b []byte, origin string, inc uint64) []byte {
	return append(strconv.AppendUint(append(append(b, origin...), '#'), inc, 10), '#')
}

// Get returns the cached reply for an operation key, if present.
func (c *ReplyCache) Get(key string) (CachedReply, bool) { return c.entries.Get(key) }

// Put stores a reply under an operation key at virtual time now,
// evicting entries that have outlived the window. Re-putting an
// existing key overwrites in place without extending its retention.
func (c *ReplyCache) Put(key string, t MsgType, body []byte, now time.Duration) {
	c.entries.Put(key, CachedReply{Type: t, Body: body}, now)
}

// PurgePrefix drops every entry whose key begins with prefix (all
// operations of one dead LPM incarnation, per OpPrefix) and reports
// how many were dropped.
func (c *ReplyCache) PurgePrefix(prefix string) int { return ring.PurgePrefix(c.entries, prefix) }

// Len returns the number of cached replies.
func (c *ReplyCache) Len() int { return c.entries.Len() }
