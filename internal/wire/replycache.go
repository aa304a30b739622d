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

// ReplyCache is a receiver's at-most-once table. It retains executed
// operations' replies keyed by their operation identity, so a
// retransmitted request (same origin, same OpID, a fresh ReqID) is
// answered from the cache instead of being re-executed, and it marks the
// operations still executing, so a retransmit arriving before the first
// execution replies is dropped (the sender's next retry finds the
// reply). Eviction is by virtual-time age, not entry count: an entry is
// dropped once it has outlived the window, beyond which no
// retransmission of its operation can still arrive. A count bound would
// let a burst of concurrent operations evict an entry while its sender
// could still retransmit, silently re-executing a non-idempotent
// request; a marker whose execution never replies, kept forever, would
// swallow every retransmission of its operation.
type ReplyCache struct {
	replies *ring.Window[opRef, CachedReply]
	running *ring.Window[opRef, struct{}]
	// incs lists the incarnations entries belong to, searched in order:
	// a receiver hears from few peers. An entry names its own by
	// position, not by host name, and a position is held until its
	// incarnation is purged.
	incs []incarnation
	// free holds the newest bodies (at most 16) evicted replies and sent
	// uncached echoes gave back, for echoes to be encoded into (EncodeEcho).
	free [][]byte
}

// ScribbleEvicted, set only by tests, overwrites each body the cache evicts.
var ScribbleEvicted bool

// incarnation is an OpKey less its sequence.
type incarnation struct {
	origin string
	inc    uint64
	used   bool
}

// opRef is an OpKey with its incarnation's position in incs, plus one.
type opRef struct {
	seq uint64
	id  uint32
}

// NewReplyCache creates a table retaining entries for the given window
// of virtual time (<= 0 means defaultReplyCacheWindow).
func NewReplyCache(window time.Duration) *ReplyCache {
	if window <= 0 {
		window = defaultReplyCacheWindow
	}
	c := &ReplyCache{replies: ring.NewWindow[opRef, CachedReply](window), running: ring.NewWindow[opRef, struct{}](window)}
	c.replies.Evicted = c.recycle
	return c
}

// recycle keeps an evicted reply's body for an echo (DESIGN.md §10).
func (c *ReplyCache) recycle(r CachedReply) {
	for i := 0; ScribbleEvicted && i < len(r.Body); i++ {
		r.Body[i] = 0xa5
	}
	if len(c.free) == 16 {
		c.free = append(c.free[:0], c.free[1:]...)
	}
	c.free = append(c.free, r.Body[:0])
}

// Reuse takes back an echo no entry keeps once it has been sent, for the
// next echo, as if the cache had evicted it.
func (c *ReplyCache) Reuse(body []byte) { c.recycle(CachedReply{Body: body}) }

// buffer returns an empty buffer for n bytes: the newest free one of
// capacity n to 1.5n (not more: the reply keeps it), else a fresh one.
func (c *ReplyCache) buffer(n int) []byte {
	for i := len(c.free) - 1; i >= 0; i-- {
		if b := c.free[i]; cap(b) >= n && 2*cap(b) <= 3*n {
			c.free = append(c.free[:i], c.free[i+1:]...)
			return b
		}
	}
	return make([]byte, 0, n)
}

// OpKey names one operation for caching and journaling: the origin
// host, the origin LPM's incarnation, and the origin-assigned
// operation id. The incarnation keeps a restarted or recreated LPM —
// whose op counter restarts from zero — from colliding with its
// predecessor's operations, so a stale cache entry can never answer a
// fresh request. A key is a comparable value: looking one up formats
// nothing.
type OpKey struct {
	Origin   string
	Inc, Seq uint64
}

// String renders the key as "origin#inc#seq", the form journal text
// names an operation by.
func (k OpKey) String() string {
	var buf [48]byte
	b := append(strconv.AppendUint(append(append(buf[:0], k.Origin...), '#'), k.Inc, 10), '#')
	return string(strconv.AppendUint(b, k.Seq, 10))
}

// ref names key by its incarnation's position, taking a free position
// for one not listed when add is set; ok is false when it is not and is
// not listed.
func (c *ReplyCache) ref(key OpKey, add bool) (r opRef, ok bool) {
	free := -1
	for i, in := range c.incs {
		switch {
		case in.used && in.origin == key.Origin && in.inc == key.Inc:
			return opRef{key.Seq, uint32(i + 1)}, true
		case !in.used && free < 0:
			free = i
		}
	}
	if !add {
		return r, false
	}
	if free < 0 {
		free = len(c.incs)
		c.incs = append(c.incs, incarnation{})
	}
	c.incs[free] = incarnation{key.Origin, key.Inc, true}
	return opRef{key.Seq, uint32(free + 1)}, true
}

// Lookup reports, at virtual time now, an operation's cached reply if it
// has executed, else whether it is executing. Markers that have outlived
// the window are dropped first.
func (c *ReplyCache) Lookup(key OpKey, now time.Duration) (r CachedReply, replied, running bool) {
	c.running.Expire(now)
	ref, ok := c.ref(key, false)
	if !ok {
		return r, false, false
	}
	if r, replied = c.replies.Get(ref); !replied {
		_, running = c.running.Get(ref)
	}
	return r, replied, running
}

// Start marks an operation as executing from virtual time now.
func (c *ReplyCache) Start(key OpKey, now time.Duration) {
	ref, _ := c.ref(key, true)
	c.running.Put(ref, struct{}{}, now)
}

// Put ends an operation's execution: its marker goes, and its reply is
// stored at virtual time now, evicting replies that have outlived the
// window. Re-putting an existing key overwrites in place without
// extending its retention.
func (c *ReplyCache) Put(key OpKey, t MsgType, body []byte, now time.Duration) {
	ref, _ := c.ref(key, true)
	c.running.Delete(ref)
	c.replies.Put(ref, CachedReply{Type: t, Body: body}, now)
}

// Purge drops every reply and marker of one LPM incarnation, origin's
// inc, and reports how many replies were dropped.
func (c *ReplyCache) Purge(origin string, inc uint64) int {
	ref, ok := c.ref(OpKey{Origin: origin, Inc: inc}, false)
	if !ok {
		return 0
	}
	c.incs[ref.id-1] = incarnation{}
	mine := func(r opRef) bool { return r.id == ref.id }
	c.running.Purge(mine)
	return c.replies.Purge(mine)
}

// Len returns the number of cached replies.
func (c *ReplyCache) Len() int { return c.replies.Len() }

// Running returns the number of operations marked as executing.
func (c *ReplyCache) Running() int { return c.running.Len() }
