package runner

import (
	"sync"
	"sync/atomic"
)

// Memo caches the results of deterministic computations across drivers.
// Several experiment drivers re-measure the same baseline window (the
// 64KB TAGE-SC-L run for a given app/input/records); keyed on the full
// input set, the memo computes each once and hands every later caller
// the cached value. Concurrent callers of the same key block on a single
// computation rather than duplicating it. The zero value is ready to use.
type Memo[K comparable, V any] struct {
	mu           sync.Mutex
	m            map[K]*memoEntry[V]
	hits, misses atomic.Uint64
}

type memoEntry[V any] struct {
	once sync.Once
	done atomic.Bool
	v    V
}

// Do returns the memoized value for key, running compute at most once
// per key. compute must be a pure function of the key.
func (m *Memo[K, V]) Do(key K, compute func() V) V {
	m.mu.Lock()
	e := m.m[key]
	if e == nil {
		if m.m == nil {
			m.m = map[K]*memoEntry[V]{}
		}
		e = &memoEntry[V]{}
		m.m[key] = e
		m.misses.Add(1)
	} else {
		m.hits.Add(1)
	}
	m.mu.Unlock()
	e.once.Do(func() {
		e.v = compute()
		e.done.Store(true)
	})
	return e.v
}

// Lookup returns the value memoized for key without computing one: ok
// is false when key has no entry or its computation has not finished.
// It counts neither a hit nor a miss.
func (m *Memo[K, V]) Lookup(key K) (v V, ok bool) {
	m.mu.Lock()
	e := m.m[key]
	m.mu.Unlock()
	if e == nil || !e.done.Load() {
		return v, false
	}
	return e.v, true
}

// Stats reports how often Do found a cached entry versus computing one.
func (m *Memo[K, V]) Stats() (hits, misses uint64) {
	return m.hits.Load(), m.misses.Load()
}

// Len returns the number of cached keys.
func (m *Memo[K, V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.m)
}

// Reset drops every cached entry and zeroes the hit/miss counters.
// Callers must not race Reset with Do; tests use it to force
// recomputation between otherwise-identical runs.
func (m *Memo[K, V]) Reset() {
	m.mu.Lock()
	m.m = nil
	m.mu.Unlock()
	m.hits.Store(0)
	m.misses.Store(0)
}
