package cache

import (
	"testing"
	"testing/quick"

	"github.com/whisper-sim/whisper/internal/xrand"
)

// resident reports whether addr's line is in c, without touching LRU
// state or counters.
func resident(c *Cache, addr uint64) bool {
	set, tag := c.setOf(addr)
	base := int(set) * c.ways
	for w := 0; w < c.ways; w++ {
		if c.valid[base+w] && c.tags[base+w] == tag {
			return true
		}
	}
	return false
}

func TestBasicHitMiss(t *testing.T) {
	c := New("t", 8*1024, 8)
	if c.Access(0x1000) {
		t.Fatal("cold access hit")
	}
	if !c.Access(0x1000) {
		t.Fatal("second access missed")
	}
	if !c.Access(0x1010) { // same line
		t.Fatal("same-line access missed")
	}
	if c.Access(0x1040) { // next line
		t.Fatal("next-line access hit")
	}
	if c.Accesses() != 4 || c.Misses() != 2 {
		t.Fatalf("accesses=%d misses=%d", c.Accesses(), c.Misses())
	}
	if c.MissRate() != 0.5 {
		t.Fatalf("miss rate %v", c.MissRate())
	}
}

func TestLRUEviction(t *testing.T) {
	// 2-way cache with a handful of sets: fill one set with 2 lines,
	// access a third mapping to the same set, check the LRU victim.
	c := New("t", 2*LineSize*4, 2) // 4 sets, 2 ways
	sets := uint64(c.Sets())
	a := uint64(0)
	b := a + sets*LineSize   // same set as a
	d := a + 2*sets*LineSize // same set again
	c.Access(a)
	c.Access(b)
	c.Access(a) // a is now MRU
	c.Access(d) // evicts b
	if !resident(c, a) {
		t.Fatal("a evicted despite being MRU")
	}
	if resident(c, b) {
		t.Fatal("b not evicted")
	}
	if !resident(c, d) {
		t.Fatal("d not inserted")
	}
}

func TestInsertPrefetchPath(t *testing.T) {
	c := New("t", 8*1024, 8)
	c.Insert(0x2000)
	if c.Accesses() != 0 {
		t.Fatal("Insert counted as access")
	}
	if !c.Access(0x2000) {
		t.Fatal("inserted line missed")
	}
}

func TestCapacitySweep(t *testing.T) {
	// Working set larger than the cache must thrash; smaller must fit.
	c := New("t", 32*1024, 8)
	lines := 32 * 1024 / LineSize
	// Fit: working set = half capacity, round-robin.
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < lines/2; i++ {
			c.Access(uint64(i) * LineSize)
		}
	}
	if c.MissRate() > 0.4 {
		t.Fatalf("fitting working set thrashed: %v", c.MissRate())
	}
	c = New("t", 32*1024, 8)
	// Thrash: working set = 4x capacity with LRU and sequential sweep.
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < lines*4; i++ {
			c.Access(uint64(i) * LineSize)
		}
	}
	if c.MissRate() < 0.9 {
		t.Fatalf("oversized sweep did not thrash: %v", c.MissRate())
	}
}

func TestNewValidation(t *testing.T) {
	for _, f := range []func(){
		func() { New("x", 0, 8) },
		func() { New("x", 6*LineSize, 2) }, // 3 sets: not a power of two
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestLRUInvariantProperty(t *testing.T) {
	// Property: after any access sequence, each set's LRU ranks are a
	// permutation of 0..ways-1 over valid ways (ranks unique).
	f := func(seed uint64) bool {
		c := New("p", 4*1024, 4)
		r := xrand.New(seed)
		for i := 0; i < 2000; i++ {
			c.Access(uint64(r.Intn(1 << 14)))
		}
		for s := 0; s < c.Sets(); s++ {
			seen := map[uint8]bool{}
			for w := 0; w < c.Ways(); w++ {
				i := s*c.Ways() + w
				if !c.valid[i] {
					continue
				}
				if seen[c.lru[i]] {
					return false
				}
				seen[c.lru[i]] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestHierarchyLevels(t *testing.T) {
	h := NewHierarchy("L1i")
	if got := h.Access(0x400000); got != Memory {
		t.Fatalf("cold access served by %v", got)
	}
	if got := h.Access(0x400000); got != L1 {
		t.Fatalf("warm access served by %v", got)
	}
	// Evict from L1 by sweeping > 32KB of lines; line should be in L2.
	for i := 0; i < 2*32*1024/LineSize; i++ {
		h.Access(0x800000 + uint64(i)*LineSize)
	}
	if got := h.Access(0x400000); got != L2 {
		t.Fatalf("L1-evicted access served by %v", got)
	}
}

func TestHierarchyPrefetch(t *testing.T) {
	h := NewHierarchy("L1i")
	lvl := h.Prefetch(0x500000)
	if lvl != Memory {
		t.Fatalf("cold prefetch source %v", lvl)
	}
	if got := h.Access(0x500000); got != L1 {
		t.Fatalf("prefetched line served by %v", got)
	}
}

func TestLatency(t *testing.T) {
	lat := DefaultLatency()
	if lat.Cycles(L1) >= lat.Cycles(L2) || lat.Cycles(L2) >= lat.Cycles(L3) ||
		lat.Cycles(L3) >= lat.Cycles(Memory) {
		t.Fatal("latencies not monotone")
	}
}

func BenchmarkAccess(b *testing.B) {
	c := New("b", 32*1024, 8)
	r := xrand.New(1)
	addrs := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = uint64(r.Intn(1 << 18))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(addrs[i&4095])
	}
}
