package cache

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
)

func TestLRUBasic(t *testing.T) {
	l := NewLRU[string, int](2)
	if _, ok := l.Get("a"); ok {
		t.Fatal("hit in empty cache")
	}
	l.Put("a", 1)
	l.Put("b", 2)
	if v, ok := l.Get("a"); !ok || v != 1 {
		t.Fatalf("a = %d, %v", v, ok)
	}
	// "b" is now least recently used; inserting "c" must evict it.
	l.Put("c", 3)
	if _, ok := l.Get("b"); ok {
		t.Fatal("LRU entry b survived eviction")
	}
	if v, ok := l.Get("a"); !ok || v != 1 {
		t.Fatalf("a lost: %d, %v", v, ok)
	}
	if v, ok := l.Get("c"); !ok || v != 3 {
		t.Fatalf("c = %d, %v", v, ok)
	}
	if l.Len() != 2 {
		t.Fatalf("len = %d, want 2", l.Len())
	}
	s := l.Stats()
	if s.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", s.Evictions)
	}
}

func TestLRUUpdateInPlace(t *testing.T) {
	l := NewLRU[string, int](2)
	l.Put("a", 1)
	l.Put("b", 2)
	l.Put("a", 10) // update, no eviction
	if l.Len() != 2 {
		t.Fatalf("len = %d, want 2", l.Len())
	}
	if v, _ := l.Get("a"); v != 10 {
		t.Fatalf("a = %d, want 10", v)
	}
	// The update refreshed "a", so "b" is the victim.
	l.Put("c", 3)
	if _, ok := l.Get("b"); ok {
		t.Fatal("b survived eviction after a's refresh")
	}
}

func TestLRUCapacityOne(t *testing.T) {
	l := NewLRU[int, int](1)
	for i := 0; i < 10; i++ {
		l.Put(i, i)
		if v, ok := l.Get(i); !ok || v != i {
			t.Fatalf("resident entry %d missing", i)
		}
	}
	if l.Len() != 1 {
		t.Fatalf("len = %d, want 1", l.Len())
	}
}

func TestLRUBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("capacity 0 accepted")
		}
	}()
	NewLRU[int, int](0)
}

// TestLRUConcurrentMixed mirrors napel-serve's access pattern — many
// goroutines issuing Get-then-Put on a shared working set — under the
// race detector, and asserts the hit counters add up and the steady-state
// hit ratio is high once the working set fits.
func TestLRUConcurrentMixed(t *testing.T) {
	const (
		goroutines = 16
		iters      = 2000
		keys       = 64 // working set, fits the capacity below
	)
	l := NewLRU[string, int](128)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				key := fmt.Sprintf("req-%d", (g*31+i)%keys)
				if v, ok := l.Get(key); ok {
					if v != len(key) {
						t.Errorf("key %s = %d, want %d", key, v, len(key))
						return
					}
					continue
				}
				l.Put(key, len(key))
			}
		}(g)
	}
	wg.Wait()

	s := l.Stats()
	if got := s.Hits + s.Misses; got != goroutines*iters {
		t.Fatalf("hits+misses = %d, want %d", got, goroutines*iters)
	}
	// With 64 hot keys in a 128-entry cache, everything past the first
	// touch of each key should hit; demand far more than half.
	if s.HitRate() < 0.9 {
		t.Fatalf("hit rate %.3f, want >= 0.9 (stats %+v)", s.HitRate(), s)
	}
	if l.Len() > 128 {
		t.Fatalf("len %d exceeds capacity", l.Len())
	}
}

// TestLRUConcurrentEviction hammers a cache far smaller than the key
// space so eviction and insertion race constantly.
func TestLRUConcurrentEviction(t *testing.T) {
	l := NewLRU[int, int](8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4000; i++ {
				k := (g*7 + i) % 512
				if v, ok := l.Get(k); ok && v != k*2 {
					t.Errorf("key %d = %d, want %d", k, v, k*2)
					return
				}
				l.Put(k, k*2)
			}
		}(g)
	}
	wg.Wait()
	if l.Len() > 8 {
		t.Fatalf("len %d exceeds capacity 8", l.Len())
	}
}

// TestLRUGrowsWithUse: a new LRU costs memory for what it holds, not for
// its capacity, so a large response cache that sees few keys stays small.
func TestLRUGrowsWithUse(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	l := NewLRU[uint64, int](1 << 20)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(l)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
		t.Fatalf("NewLRU(1<<20) allocated %d bytes, want it sized by use, not capacity", grew)
	}
}
