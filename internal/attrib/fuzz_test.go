package attrib

import "testing"

// replay feeds the fuzz-derived observation stream into a collector,
// splitting the byte string into (pc, taken, misp) triples.
func replay(c *Collector, data []byte) {
	for i := 0; i+2 < len(data); i += 3 {
		pc := uint64(data[i]) // small PC space forces collisions + overflow
		c.Observe(pc, data[i+1]&1 == 1, data[i+2]&1 == 1)
	}
}

// FuzzCollectorConservation locks the structural properties the
// pipeline relies on: bounded accounting never panics whatever the
// stream, never tracks more PCs than its capacity, and loses no
// observation — the exact entries plus the overflow bucket add up to
// the totals under any capacity pressure.
func FuzzCollectorConservation(f *testing.F) {
	f.Add([]byte{}, uint8(4))
	f.Add([]byte{1, 1, 1, 2, 0, 1, 3, 1, 0, 1, 0, 1}, uint8(2))
	f.Add([]byte{9, 1, 1, 9, 1, 1, 8, 0, 1, 7, 1, 0, 6, 1, 1, 5, 1, 1, 4, 0, 0}, uint8(1))
	f.Fuzz(func(t *testing.T, stream []byte, capByte uint8) {
		capacity := int(capByte%8) + 1 // tiny capacities exercise overflow
		c := NewCollector(capacity)
		replay(c, stream)

		if c.Len() > capacity {
			t.Fatalf("collector tracks %d entries, capacity %d", c.Len(), capacity)
		}
		var execs, misp uint64
		for _, r := range c.Ranked() {
			execs += r.Execs
			misp += r.Misp
		}
		execs += c.Overflow.Execs
		misp += c.Overflow.Misp
		if execs != c.CondExecs || misp != c.CondMisp || execs != uint64(len(stream)/3) {
			t.Fatalf("conservation broken: entries+overflow %d/%d, totals %d/%d, stream %d",
				execs, misp, c.CondExecs, c.CondMisp, len(stream)/3)
		}
	})
}
