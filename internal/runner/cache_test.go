package runner

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func TestCacheLRUEviction(t *testing.T) {
	c, err := NewCache(2, "")
	if err != nil {
		t.Fatal(err)
	}
	c.Put("a", &Outcome{Trace: "a"})
	c.Put("b", &Outcome{Trace: "b"})
	c.Get("a") // promote a over b
	c.Put("c", &Outcome{Trace: "c"})
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted (a was more recently used)")
	}
	for _, k := range []string{"a", "c"} {
		if out, ok := c.Get(k); !ok || out.Trace != k {
			t.Fatalf("%s missing after eviction", k)
		}
	}
	if s := c.Stats(); s.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", s.Evictions)
	}
}

func TestCacheDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c1, err := NewCache(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	want := &Outcome{Trace: "kafka", Instructions: 123, Cycles: 456, IPC: 0.269, Misses: 7}
	c1.Put("deadbeef", want)

	// A fresh cache over the same directory serves the result without
	// resimulation, and promotes it into memory.
	c2, err := NewCache(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c2.Get("deadbeef")
	if !ok {
		t.Fatal("disk store miss")
	}
	if *got != *want {
		t.Fatalf("disk round-trip mutated outcome: %+v vs %+v", got, want)
	}
	if s := c2.Stats(); s.DiskHits != 1 {
		t.Fatalf("disk hits = %d, want 1", s.DiskHits)
	}
	if c2.Len() != 1 {
		t.Fatal("disk hit not promoted to memory")
	}

	// Corrupt files are treated as misses, not errors.
	if err := os.WriteFile(filepath.Join(dir, "bad.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Get("bad"); ok {
		t.Fatal("corrupt cache file served as a hit")
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	c, err := NewCache(64, "")
	if err != nil {
		t.Fatal(err)
	}
	ForEach(8, 512, func(i int) {
		key := fmt.Sprintf("k%d", i%100)
		c.Put(key, &Outcome{Trace: key})
		if out, ok := c.Get(key); ok && out.Trace != key {
			t.Errorf("key %s returned %s", key, out.Trace)
		}
	})
}

// TestCacheDiskPromotion pins the one-disk-read-per-key contract: a disk
// hit is promoted into the memory LRU, so while the key stays resident the
// file is never read again — deleting it after the first Get must not hurt.
func TestCacheDiskPromotion(t *testing.T) {
	dir := t.TempDir()
	want := &Outcome{Trace: "promoted", Instructions: 7}
	seed, err := NewCache(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	seed.Put("cafef00d", want)

	// A fresh cache over the same directory: cold memory, warm disk.
	c, err := NewCache(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("cafef00d"); !ok {
		t.Fatal("disk tier miss")
	}
	// Remove the backing file: if the second Get re-read the disk tier it
	// would now miss, so a hit proves the promotion carried the result.
	if err := os.Remove(filepath.Join(dir, "cafef00d.json")); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get("cafef00d")
	if !ok {
		t.Fatal("promoted key missed after backing file removal: disk re-read instead of memory hit")
	}
	if *got != *want {
		t.Fatalf("promoted outcome mutated: %+v vs %+v", got, want)
	}
	s := c.Stats()
	if s.DiskHits != 1 || s.Hits != 1 {
		t.Fatalf("stats = %+v, want exactly one disk hit and one memory hit", s)
	}
}
