package cache

import "sync"

// LRUStats are cumulative counters of an LRU map. Snapshot values; the
// underlying counters keep advancing after Stats returns.
type LRUStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Puts      uint64
}

// HitRate returns hits/(hits+misses), or 0 before the first lookup.
func (s LRUStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// LRU is a fixed-capacity map with least-recently-used eviction, the
// software sibling of the hardware cache model above: where Cache tracks
// tags of a simulated memory hierarchy, LRU memoizes actual computed
// values (e.g. napel-serve's prediction responses). It is safe for
// concurrent use by multiple goroutines.
type LRU[K comparable, V any] struct {
	mu       sync.Mutex
	capacity int
	entries  map[K]*lruEntry[K, V]
	// Intrusive doubly-linked list in recency order; head is the most
	// recently used entry, tail the eviction candidate.
	head, tail *lruEntry[K, V]
	stats      LRUStats
}

type lruEntry[K comparable, V any] struct {
	key        K
	value      V
	prev, next *lruEntry[K, V]
}

// NewLRU returns an empty LRU holding at most capacity entries;
// capacity must be positive. The map is not pre-sized: it grows with the
// entries put, so a large capacity costs memory only once it is used.
func NewLRU[K comparable, V any](capacity int) *LRU[K, V] {
	if capacity <= 0 {
		panic("cache: LRU capacity must be positive")
	}
	return &LRU[K, V]{
		capacity: capacity,
		entries:  make(map[K]*lruEntry[K, V]),
	}
}

// Get returns the value stored under key and marks it most recently
// used.
func (l *LRU[K, V]) Get(key K) (V, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	e, ok := l.entries[key]
	if !ok {
		l.stats.Misses++
		var zero V
		return zero, false
	}
	l.stats.Hits++
	l.moveToFront(e)
	return e.value, true
}

// Put stores value under key, updating an existing entry in place and
// evicting the least recently used entry when the cache is full.
func (l *LRU[K, V]) Put(key K, value V) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.stats.Puts++
	if e, ok := l.entries[key]; ok {
		e.value = value
		l.moveToFront(e)
		return
	}
	if len(l.entries) >= l.capacity {
		victim := l.tail
		l.unlink(victim)
		delete(l.entries, victim.key)
		l.stats.Evictions++
	}
	e := &lruEntry[K, V]{key: key, value: value}
	l.entries[key] = e
	l.pushFront(e)
}

// Len returns the number of resident entries.
func (l *LRU[K, V]) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.entries)
}

// Stats returns a snapshot of the cumulative counters.
func (l *LRU[K, V]) Stats() LRUStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

func (l *LRU[K, V]) pushFront(e *lruEntry[K, V]) {
	e.prev = nil
	e.next = l.head
	if l.head != nil {
		l.head.prev = e
	}
	l.head = e
	if l.tail == nil {
		l.tail = e
	}
}

func (l *LRU[K, V]) unlink(e *lruEntry[K, V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (l *LRU[K, V]) moveToFront(e *lruEntry[K, V]) {
	if l.head == e {
		return
	}
	l.unlink(e)
	l.pushFront(e)
}
