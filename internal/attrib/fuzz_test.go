package attrib

import (
	"reflect"
	"testing"
)

// replay feeds the fuzz-derived observation stream into a collector,
// splitting the byte string into (pc, taken, misp) triples.
func replay(c *Collector, data []byte) {
	for i := 0; i+2 < len(data); i += 3 {
		pc := uint64(data[i]) // small PC space forces collisions + overflow
		c.Observe(pc, data[i+1]&1 == 1, data[i+2]&1 == 1)
	}
}

// FuzzMergeCommutes locks the two structural properties the pipeline
// relies on: bounded accounting never panics whatever the stream, and
// Merge is commutative — merging a into b or b into a yields identical
// ranked accounting, totals, and overflow, regardless of capacity
// pressure, so collectors from separate runs fold in any order.
func FuzzMergeCommutes(f *testing.F) {
	f.Add([]byte{}, []byte{}, uint8(4))
	f.Add([]byte{1, 1, 1, 2, 0, 1, 3, 1, 0}, []byte{1, 0, 1}, uint8(2))
	f.Add([]byte{9, 1, 1, 9, 1, 1, 8, 0, 1, 7, 1, 0, 6, 1, 1}, []byte{5, 1, 1, 4, 0, 0}, uint8(1))
	f.Fuzz(func(t *testing.T, sa, sb []byte, capByte uint8) {
		capacity := int(capByte%8) + 1 // tiny capacities exercise overflow + prune

		build := func(stream []byte) *Collector {
			c := NewCollector(capacity)
			replay(c, stream)
			return c
		}

		ab := build(sa)
		ab.Merge(build(sb))
		ba := build(sb)
		ba.Merge(build(sa))

		if ab.CondExecs != ba.CondExecs || ab.CondMisp != ba.CondMisp {
			t.Fatalf("totals differ: %d/%d vs %d/%d", ab.CondExecs, ab.CondMisp, ba.CondExecs, ba.CondMisp)
		}
		if ab.Overflow != ba.Overflow || ab.OverflowPCs != ba.OverflowPCs {
			t.Fatalf("overflow differs: %+v/%d vs %+v/%d", ab.Overflow, ab.OverflowPCs, ba.Overflow, ba.OverflowPCs)
		}
		ra, rb := ab.Ranked(), ba.Ranked()
		if !reflect.DeepEqual(ra, rb) {
			t.Fatalf("ranked accounting differs:\n%+v\nvs\n%+v", ra, rb)
		}
		if ab.Len() > capacity {
			t.Fatalf("merge left %d entries, capacity %d", ab.Len(), capacity)
		}

		// Conservation: exact entries + overflow account for every
		// observation.
		var execs, misp uint64
		for _, r := range ra {
			execs += r.Execs
			misp += r.Misp
		}
		execs += ab.Overflow.Execs
		misp += ab.Overflow.Misp
		if execs != ab.CondExecs || misp != ab.CondMisp {
			t.Fatalf("conservation broken: entries+overflow %d/%d, totals %d/%d",
				execs, misp, ab.CondExecs, ab.CondMisp)
		}
	})
}
