// Package cache provides a generic set-associative LRU cache model and the
// L1i/L1d/L2/L3 hierarchy of the paper's simulated machine (Table II:
// 32KB 8-way L1i, 32KB 8-way L1d, 1MB 16-way unified L2, 10MB 20-way
// shared L3).
//
// The model tracks presence only — it answers "which level served this
// access" so the pipeline model can charge the corresponding latency.
package cache

import "fmt"

// LineSize is the cache line size in bytes for every level.
const LineSize = 64

// Cache is a set-associative cache with true-LRU replacement.
type Cache struct {
	name     string
	sets     int
	ways     int
	setMask  uint64
	setShift uint
	// tags[set*ways+way]; lru holds per-set recency ranks (lower = older).
	tags  []uint64
	valid []bool
	lru   []uint8

	accesses uint64
	misses   uint64
}

// New creates a cache of the given total size and associativity.
// sizeBytes must be a multiple of ways*LineSize with a power-of-two number
// of sets.
func New(name string, sizeBytes, ways int) *Cache {
	if sizeBytes <= 0 || ways <= 0 {
		panic("cache: size and ways must be positive")
	}
	lines := sizeBytes / LineSize
	sets := lines / ways
	if sets == 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache %s: %d sets not a positive power of two", name, sets))
	}
	if ways > 255 {
		panic("cache: ways > 255 unsupported")
	}
	return &Cache{
		name:     name,
		sets:     sets,
		ways:     ways,
		setMask:  uint64(sets - 1),
		setShift: uint(log2(sets)),
		tags:     make([]uint64, sets*ways),
		valid:    make([]bool, sets*ways),
		lru:      make([]uint8, sets*ways),
	}
}

// Name returns the cache's label.
func (c *Cache) Name() string { return c.name }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

func (c *Cache) setOf(addr uint64) (set uint64, tag uint64) {
	line := addr / LineSize
	return line & c.setMask, line >> c.setShift
}

func log2(n int) int {
	l := 0
	for n > 1 {
		n >>= 1
		l++
	}
	return l
}

// Access looks up addr, inserting it on a miss (allocate-on-miss), and
// reports whether it hit.
func (c *Cache) Access(addr uint64) bool {
	c.accesses++
	set, tag := c.setOf(addr)
	base := int(set) * c.ways
	for w := 0; w < c.ways; w++ {
		if c.valid[base+w] && c.tags[base+w] == tag {
			c.touch(base, w)
			return true
		}
	}
	c.misses++
	c.insert(base, tag)
	return false
}

// Insert places addr in the cache without counting an access (prefetch
// fill path).
func (c *Cache) Insert(addr uint64) {
	set, tag := c.setOf(addr)
	base := int(set) * c.ways
	for w := 0; w < c.ways; w++ {
		if c.valid[base+w] && c.tags[base+w] == tag {
			c.touch(base, w)
			return
		}
	}
	c.insert(base, tag)
}

// touch marks way w in the set starting at base as most recently used.
func (c *Cache) touch(base, w int) {
	old := c.lru[base+w]
	mru := uint8(c.ways - 1)
	if old == mru {
		// Already most recent: no rank above old exists, so the rewrite
		// below would be a no-op. Hot lines hit this path constantly.
		return
	}
	for i := 0; i < c.ways; i++ {
		if c.lru[base+i] > old {
			c.lru[base+i]--
		}
	}
	c.lru[base+w] = mru
}

// insert allocates tag into the LRU way of the set starting at base.
func (c *Cache) insert(base int, tag uint64) {
	victim := 0
	for w := 0; w < c.ways; w++ {
		if !c.valid[base+w] {
			victim = w
			break
		}
		if c.lru[base+w] < c.lru[base+victim] {
			victim = w
		}
	}
	c.valid[base+victim] = true
	c.tags[base+victim] = tag
	c.touch(base, victim)
}

// Accesses returns the total number of counted lookups.
func (c *Cache) Accesses() uint64 { return c.accesses }

// Misses returns the total number of counted misses.
func (c *Cache) Misses() uint64 { return c.misses }

// MissRate returns misses/accesses (0 when idle).
func (c *Cache) MissRate() float64 {
	if c.accesses == 0 {
		return 0
	}
	return float64(c.misses) / float64(c.accesses)
}

// Level identifies which level of the hierarchy served an access.
type Level int

// Hierarchy levels, ordered by distance from the core.
const (
	L1 Level = iota
	L2
	L3
	Memory
)

// Latency holds per-level access latencies in cycles.
type Latency struct {
	L1, L2, L3, Memory int
}

// DefaultLatency reflects a contemporary server part: 2-cycle L1,
// 14-cycle L2, 46-cycle L3, 200-cycle memory.
func DefaultLatency() Latency { return Latency{L1: 2, L2: 14, L3: 46, Memory: 200} }

// Cycles returns the latency for the given serving level.
func (lat Latency) Cycles(l Level) int {
	switch l {
	case L1:
		return lat.L1
	case L2:
		return lat.L2
	case L3:
		return lat.L3
	default:
		return lat.Memory
	}
}

// Hierarchy models an L1 (instruction or data) backed by unified L2 and
// shared L3.
type Hierarchy struct {
	L1c, L2c, L3c *Cache
}

// NewHierarchy builds the Table II hierarchy for one L1.
func NewHierarchy(l1Name string) *Hierarchy {
	return &Hierarchy{
		L1c: New(l1Name, 32*1024, 8),
		L2c: New("L2", 1024*1024, 16),
		L3c: New("L3", 10*1024*1024, 20),
	}
}

// Access walks the hierarchy, filling lines on the way back, and returns
// the level that served the access.
func (h *Hierarchy) Access(addr uint64) Level {
	if h.L1c.Access(addr) {
		return L1
	}
	if h.L2c.Access(addr) {
		return L2
	}
	if h.L3c.Access(addr) {
		return L3
	}
	return Memory
}

// Prefetch fills addr into L1 (and below) without counting a demand
// access at L1, returning the level the line came from so the frontend
// can model partial hiding.
func (h *Hierarchy) Prefetch(addr uint64) Level {
	served := Memory
	if h.L2c.Access(addr) {
		served = L2
	} else if h.L3c.Access(addr) {
		served = L3
	}
	h.L1c.Insert(addr)
	return served
}
