package runner

import (
	"container/list"
	"sync"
)

// Cache is a content-addressed result store: canonical-spec SHA-256 key →
// Outcome, held in a bounded in-memory LRU so repeated sweeps hit instead
// of resimulating. All methods are safe for concurrent use.
//
// Because job execution is deterministic and timestamp-free, a cached
// Outcome is byte-identical to what a fresh simulation would produce;
// callers can treat hits and misses interchangeably.
type Cache struct {
	mu  sync.Mutex
	cap int
	ll  *list.List               // guarded by mu; front = most recently used
	mem map[string]*list.Element // guarded by mu; key -> element holding *cacheEntry

	evictions uint64 // guarded by mu
}

type cacheEntry struct {
	key string
	out *Outcome
}

// NewCache returns a cache holding up to capacity results (capacity <= 0
// selects 1024).
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = 1024
	}
	return &Cache{
		cap: capacity,
		ll:  list.New(),
		mem: make(map[string]*list.Element, capacity),
	}
}

// Get returns the cached outcome for key and marks it most recently used.
func (c *Cache) Get(key string) (*Outcome, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.mem[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).out, true
}

// Put stores the outcome for key, evicting the least recently used results
// beyond capacity.
func (c *Cache) Put(key string, out *Outcome) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.mem[key]; ok {
		el.Value.(*cacheEntry).out = out
		c.ll.MoveToFront(el)
		return
	}
	c.mem[key] = c.ll.PushFront(&cacheEntry{key: key, out: out})
	for c.ll.Len() > c.cap {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.mem, back.Value.(*cacheEntry).key)
		c.evictions++
	}
}

// Stats returns the number of results held and the evictions so far.
func (c *Cache) Stats() (size int, evictions uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len(), c.evictions
}
