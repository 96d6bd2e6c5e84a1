package runner

import (
	"container/list"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
)

// Cache is a content-addressed result store: canonical-spec SHA-256 key →
// Outcome. It layers a bounded in-memory LRU over an optional on-disk
// store, so repeated sweeps — across calls or across process restarts —
// hit instead of resimulating. All methods are safe for concurrent use.
//
// Because job execution is deterministic and timestamp-free, a cached
// Outcome is byte-identical to what a fresh simulation would produce;
// callers can treat hits and misses interchangeably.
type Cache struct {
	mu  sync.Mutex
	cap int
	ll  *list.List               // guarded by mu; front = most recently used
	mem map[string]*list.Element // guarded by mu; key -> element holding *cacheEntry
	dir string                   // "" = memory only

	hits, misses, diskHits, evictions, diskErrors uint64 // guarded by mu
}

type cacheEntry struct {
	key string
	out *Outcome
}

// NewCache returns a cache holding up to capacity results in memory
// (capacity <= 0 selects 1024). dir, when non-empty, adds a persistent
// store of one JSON file per key; it is created if missing.
func NewCache(capacity int, dir string) (*Cache, error) {
	if capacity <= 0 {
		capacity = 1024
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	return &Cache{
		cap: capacity,
		ll:  list.New(),
		mem: make(map[string]*list.Element, capacity),
		dir: dir,
	}, nil
}

// Get returns the cached outcome for key, consulting memory first and then
// the disk store. A disk hit is promoted into the memory LRU, so each key
// costs at most one disk read while it stays resident — subsequent Gets are
// pure memory hits (pinned by TestCacheDiskPromotion).
func (c *Cache) Get(key string) (*Outcome, bool) {
	c.mu.Lock()
	if el, ok := c.mem[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		out := el.Value.(*cacheEntry).out
		c.mu.Unlock()
		return out, true
	}
	c.mu.Unlock()

	if c.dir != "" {
		if b, err := os.ReadFile(c.path(key)); err == nil {
			var out Outcome
			if json.Unmarshal(b, &out) == nil {
				c.mu.Lock()
				c.diskHits++
				c.insertLocked(key, &out)
				c.mu.Unlock()
				return &out, true
			}
		}
	}

	c.mu.Lock()
	c.misses++
	c.mu.Unlock()
	return nil, false
}

// Put stores the outcome for key in memory and, when a directory is
// configured, on disk (best-effort: disk failures are counted, not fatal —
// the simulation result is already in hand).
func (c *Cache) Put(key string, out *Outcome) {
	c.mu.Lock()
	c.insertLocked(key, out)
	c.mu.Unlock()

	if c.dir == "" {
		return
	}
	b, err := json.Marshal(out)
	if err == nil {
		tmp := c.path(key) + ".tmp"
		if err = os.WriteFile(tmp, b, 0o644); err == nil {
			err = os.Rename(tmp, c.path(key))
		}
	}
	if err != nil {
		c.mu.Lock()
		c.diskErrors++
		c.mu.Unlock()
	}
}

func (c *Cache) insertLocked(key string, out *Outcome) {
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

func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key+".json")
}

// Len returns the number of results currently held in memory.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// CacheStats is a point-in-time copy of cache traffic counters.
type CacheStats struct {
	Hits uint64 `json:"hits"` // in-memory hits
	// DiskHits are served from the on-disk store; each is also promoted
	// into the memory LRU.
	DiskHits   uint64 `json:"disk_hits"`
	Misses     uint64 `json:"misses"`
	Evictions  uint64 `json:"evictions"`
	DiskErrors uint64 `json:"disk_errors"`
}

// Stats returns the cache traffic counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits: c.hits, DiskHits: c.diskHits,
		Misses: c.misses, Evictions: c.evictions, DiskErrors: c.diskErrors,
	}
}
