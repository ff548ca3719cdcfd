package serve

import (
	"sync"

	"tflux/internal/core"
	"tflux/internal/tsu"
)

// specKey is the admission cache's identity: every field the resolver
// and builder read. The map keys on the struct itself — not on a hash —
// so two distinct specs can never collide. Workers pool replicas by the
// same rule; the FNV hash stored in the entry only tells the fleet that
// it may ask them to (dist.OpenReq.Hash).
type specKey struct {
	name    string
	param   int
	kernels int
	unroll  int
}

// cacheEntry memoizes everything admission computed for one spec: the
// built program, its source buffers, the lint verdict (caching only
// happens after the gate passed), the buffer-fit verdict (need = aligned
// arena bytes), the frozen TSU tables and the pooling mark. Entries are
// immutable once published; the LRU links are guarded by the cache
// mutex.
type cacheEntry struct {
	key    specKey
	hash   uint64
	prog   *core.Program
	src    *core.SharedVariableBuffer
	tables *tsu.Tables
	need   int64

	prev, next *cacheEntry
}

// programCache is a bounded LRU over admission results. The hot path
// (get on a hit) performs one map lookup and a pointer splice — no
// allocation, which TestSubmitWarmPathAllocs pins.
type programCache struct {
	mu      sync.Mutex
	cap     int
	entries map[specKey]*cacheEntry
	head    *cacheEntry // most recently used
	tail    *cacheEntry // least recently used
}

func newProgramCache(capacity int) *programCache {
	return &programCache{cap: capacity, entries: make(map[specKey]*cacheEntry, capacity)}
}

// get returns the cached entry for key (refreshing its LRU position) or
// nil.
func (c *programCache) get(key specKey) *cacheEntry {
	c.mu.Lock()
	ent := c.entries[key]
	if ent != nil && ent != c.head {
		c.unlink(ent)
		c.pushFront(ent)
	}
	c.mu.Unlock()
	return ent
}

// put publishes an entry, evicting from the cold end past capacity. A
// concurrent resolve of the same key may already have published; the
// newer entry wins (both are equivalent by construction).
func (c *programCache) put(ent *cacheEntry) {
	c.mu.Lock()
	if old := c.entries[ent.key]; old != nil {
		c.unlink(old)
	}
	c.entries[ent.key] = ent
	c.pushFront(ent)
	for len(c.entries) > c.cap && c.tail != nil {
		cold := c.tail
		c.unlink(cold)
		delete(c.entries, cold.key)
	}
	c.mu.Unlock()
}

func (c *programCache) len() int {
	c.mu.Lock()
	n := len(c.entries)
	c.mu.Unlock()
	return n
}

func (c *programCache) unlink(ent *cacheEntry) {
	if ent.prev != nil {
		ent.prev.next = ent.next
	} else if c.head == ent {
		c.head = ent.next
	}
	if ent.next != nil {
		ent.next.prev = ent.prev
	} else if c.tail == ent {
		c.tail = ent.prev
	}
	ent.prev, ent.next = nil, nil
}

func (c *programCache) pushFront(ent *cacheEntry) {
	ent.next = c.head
	if c.head != nil {
		c.head.prev = ent
	}
	c.head = ent
	if c.tail == nil {
		c.tail = ent
	}
}
