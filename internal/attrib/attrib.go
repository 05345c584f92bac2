// Package attrib is the streaming per-branch misprediction attribution
// layer: where aggregate counters (pipeline.Result, internal/telemetry)
// answer "how many mispredictions", attrib answers "which static
// branches produced them, and what did the hints do about it" — the
// per-branch H2P view the paper's argument (and "Branch Prediction Is
// Not a Solved Problem") is built on.
//
// A Collector observes every measured conditional execution in trace
// order — (pc, taken, mispredicted) — and maintains exact per-branch
// counts for up to Capacity distinct branch PCs. Beyond the capacity,
// new PCs aggregate into a single overflow bucket, so memory stays
// bounded on adversarial traces while remaining exact on every real
// workload (static branch working sets are orders of magnitude below
// the default capacity). The eviction-free design is what makes the
// accounting deterministic: the same observation stream always produces
// the same state, regardless of which pipeline engine (scalar or
// batched) produced the observations.
//
// A nil *Collector is a valid no-op sink, mirroring internal/telemetry:
// the disabled hot path costs one nil check and zero allocations
// (pinned by BenchmarkObserveDisabled and CI's benchmark-smoke gate).
package attrib

import "sort"

// DefaultCapacity bounds the number of distinct branch PCs a Collector
// tracks exactly. At ~48 bytes/entry the worst case is ~12 MB; every
// synthetic and imported workload in this repo stays far below it.
const DefaultCapacity = 1 << 18

// Branch accumulates one static branch's direction outcomes.
type Branch struct {
	// Execs counts measured conditional executions at this PC; Taken
	// counts the taken ones (direction bias).
	Execs, Taken uint64
	// Misp counts mispredictions.
	Misp uint64
}

// MispRate returns Misp/Execs.
func (b *Branch) MispRate() float64 {
	if b.Execs == 0 {
		return 0
	}
	return float64(b.Misp) / float64(b.Execs)
}

// Collector is the bounded-memory per-branch accountant. It is not safe
// for concurrent use: both pipeline engines feed it from the single
// goroutine that resolves direction outcomes in trace order (the scalar
// loop, the batched Phase A walk).
type Collector struct {
	branches map[uint64]*Branch
	capacity int
	// Overflow aggregates observations of PCs that arrived after the
	// capacity filled; OverflowPCs counts how many distinct PCs were
	// folded in (an upper bound — overflowed PCs are not deduplicated).
	Overflow    Branch
	OverflowPCs uint64
	// Totals over every observation.
	CondExecs, CondMisp uint64
}

// NewCollector returns a collector bounded at capacity distinct PCs
// (DefaultCapacity when <= 0).
func NewCollector(capacity int) *Collector {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Collector{
		branches: make(map[uint64]*Branch),
		capacity: capacity,
	}
}

// Capacity returns the configured bound.
func (c *Collector) Capacity() int {
	if c == nil {
		return 0
	}
	return c.capacity
}

// Len returns the number of exactly-tracked branch PCs.
func (c *Collector) Len() int {
	if c == nil {
		return 0
	}
	return len(c.branches)
}

// Observe records one measured conditional execution. A nil receiver is
// a no-op; the call never allocates once the branch's entry exists.
func (c *Collector) Observe(pc uint64, taken, misp bool) {
	if c == nil {
		return
	}
	c.CondExecs++
	b := c.branches[pc]
	if b == nil {
		if len(c.branches) >= c.capacity {
			c.OverflowPCs++
			b = &c.Overflow
		} else {
			b = &Branch{}
			c.branches[pc] = b
		}
	}
	b.Execs++
	if taken {
		b.Taken++
	}
	if misp {
		b.Misp++
		c.CondMisp++
	}
}

// Lookup returns the exact counts for pc, if tracked.
func (c *Collector) Lookup(pc uint64) (Branch, bool) {
	if c == nil {
		return Branch{}, false
	}
	b, ok := c.branches[pc]
	if !ok {
		return Branch{}, false
	}
	return *b, true
}

// Merge folds other into c. The operation is commutative up to the
// receiver: merging a into b and b into a produce identical accounting
// (locked by FuzzMergeCommutes) because the combined map is pruned — if
// it exceeds c's capacity — by a deterministic total order on
// (mispredicts, executions, PC), not by arrival order. other is left
// unchanged.
func (c *Collector) Merge(other *Collector) {
	if c == nil || other == nil {
		return
	}
	c.CondExecs += other.CondExecs
	c.CondMisp += other.CondMisp
	c.Overflow.Execs += other.Overflow.Execs
	c.Overflow.Taken += other.Overflow.Taken
	c.Overflow.Misp += other.Overflow.Misp
	c.OverflowPCs += other.OverflowPCs
	for pc, ob := range other.branches {
		b := c.branches[pc]
		if b == nil {
			b = &Branch{}
			c.branches[pc] = b
		}
		b.Execs += ob.Execs
		b.Taken += ob.Taken
		b.Misp += ob.Misp
	}
	c.prune()
}

// prune enforces the capacity after a merge: the smallest entries by
// (Misp, Execs, descending PC) fold into the overflow bucket until the
// map fits. Observation never calls prune — the drop-new policy keeps
// streaming deterministic — so this only runs on explicit merges.
func (c *Collector) prune() {
	if len(c.branches) <= c.capacity {
		return
	}
	rows := c.Ranked()
	for _, r := range rows[c.capacity:] {
		b := c.branches[r.PC]
		c.Overflow.Execs += b.Execs
		c.Overflow.Taken += b.Taken
		c.Overflow.Misp += b.Misp
		c.OverflowPCs++
		delete(c.branches, r.PC)
	}
}

// Row is one ranked attribution entry.
type Row struct {
	PC uint64
	Branch
}

// Ranked returns every tracked branch ordered by the attribution rank:
// mispredictions descending, then executions descending, then PC
// ascending. The total order makes every rendering deterministic.
func (c *Collector) Ranked() []Row {
	if c == nil {
		return nil
	}
	rows := make([]Row, 0, len(c.branches))
	for pc, b := range c.branches {
		rows = append(rows, Row{PC: pc, Branch: *b})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].less(&rows[j]) })
	return rows
}

// less is the attribution total order.
func (r *Row) less(o *Row) bool {
	if r.Misp != o.Misp {
		return r.Misp > o.Misp
	}
	if r.Execs != o.Execs {
		return r.Execs > o.Execs
	}
	return r.PC < o.PC
}

// TopK returns the k highest-ranked branches (all of them when k <= 0
// or k exceeds the tracked count).
func (c *Collector) TopK(k int) []Row {
	rows := c.Ranked()
	if k > 0 && k < len(rows) {
		rows = rows[:k]
	}
	return rows
}
