package runner

import (
	"fmt"
	"testing"
)

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2)
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
	if size, evictions := c.Stats(); size != 2 || evictions != 1 {
		t.Fatalf("size %d, evictions %d, want 2 and 1", size, evictions)
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	c := NewCache(64)
	ForEach(8, 512, func(i int) {
		key := fmt.Sprintf("k%d", i%100)
		c.Put(key, &Outcome{Trace: key})
		if out, ok := c.Get(key); ok && out.Trace != key {
			t.Errorf("key %s returned %s", key, out.Trace)
		}
	})
}
