package cfg

import (
	"testing"

	"github.com/whisper-sim/whisper/internal/trace"
	"github.com/whisper-sim/whisper/internal/workload"
)

// chain builds a stream where branch A (pc 0x1000) is always followed by
// branch B (pc 0x1100), with occasional noise branch C.
func chain(n int) trace.Stream {
	var recs []trace.Record
	for i := 0; i < n; i++ {
		recs = append(recs,
			trace.Record{PC: 0x1000, Target: 0x1010, Kind: trace.CondBranch, Taken: true, Instrs: 3},
			trace.Record{PC: 0x1100, Target: 0x1110, Kind: trace.CondBranch, Taken: true, Instrs: 3},
		)
		if i%4 == 0 {
			recs = append(recs, trace.Record{PC: 0x9000, Target: 0x9010, Kind: trace.CondBranch, Instrs: 3})
		}
	}
	return trace.NewSliceStream(recs)
}

func TestBuildCounts(t *testing.T) {
	g := Build(chain(100))
	if g.Execs(0x1000) != 100 || g.Execs(0x1100) != 100 {
		t.Fatalf("execs %d,%d", g.Execs(0x1000), g.Execs(0x1100))
	}
	if g.EdgeCount(0x1000, 0x1100) != 100 {
		t.Fatalf("edge A->B = %d", g.EdgeCount(0x1000, 0x1100))
	}
	if g.TotalRecords() == 0 {
		t.Fatal("no records counted")
	}
	if len(g.Nodes()) != 3 {
		t.Fatalf("nodes = %v", g.Nodes())
	}
}

func TestPlaceFindsStablePredecessor(t *testing.T) {
	g := Build(chain(100))
	p, ok := g.Place(0x1100, DefaultPlacementOptions())
	if !ok {
		t.Fatal("no placement for B")
	}
	if p.HostPC != 0x1000 {
		t.Fatalf("host = %#x, want 0x1000", p.HostPC)
	}
	if p.Precision < 0.99 || p.Recall < 0.99 {
		t.Fatalf("precision=%v recall=%v", p.Precision, p.Recall)
	}
	if p.HostExecs != 100 {
		t.Fatalf("host execs %d", p.HostExecs)
	}
}

func TestPlaceRespectsOffsetRange(t *testing.T) {
	// Predecessor 64KB away: outside the 12-bit pointer reach.
	var recs []trace.Record
	for i := 0; i < 50; i++ {
		recs = append(recs,
			trace.Record{PC: 0x10000, Kind: trace.CondBranch, Taken: true, Instrs: 2},
			trace.Record{PC: 0x20000, Kind: trace.CondBranch, Taken: true, Instrs: 2},
		)
	}
	g := Build(trace.NewSliceStream(recs))
	if _, ok := g.Place(0x20000, DefaultPlacementOptions()); ok {
		t.Fatal("placement beyond offset range accepted")
	}
	opt := DefaultPlacementOptions()
	opt.MaxOffset = 1 << 20
	if _, ok := g.Place(0x20000, opt); !ok {
		t.Fatal("placement rejected with relaxed offset")
	}
}

func TestPlaceRejectsWeakCorrelation(t *testing.T) {
	// B follows A only 10% of the time; A mostly leads elsewhere.
	var recs []trace.Record
	for i := 0; i < 200; i++ {
		recs = append(recs, trace.Record{PC: 0x1000, Kind: trace.CondBranch, Instrs: 2})
		if i%10 == 0 {
			recs = append(recs, trace.Record{PC: 0x1100, Kind: trace.CondBranch, Instrs: 2})
		} else {
			recs = append(recs, trace.Record{PC: 0x1200, Kind: trace.CondBranch, Instrs: 2})
		}
	}
	g := Build(trace.NewSliceStream(recs))
	if _, ok := g.Place(0x1100, DefaultPlacementOptions()); ok {
		t.Fatal("weakly correlated predecessor accepted")
	}
}

func TestPlaceSelfLoop(t *testing.T) {
	var recs []trace.Record
	for i := 0; i < 300; i++ {
		recs = append(recs, trace.Record{PC: 0x3000, Kind: trace.CondBranch, Taken: i%30 != 29, Instrs: 2})
	}
	g := Build(trace.NewSliceStream(recs))
	p, ok := g.Place(0x3000, DefaultPlacementOptions())
	if !ok || p.HostPC != 0x3000 {
		t.Fatalf("self placement = %+v, %v", p, ok)
	}
	opt := DefaultPlacementOptions()
	opt.AllowSelf = false
	if p2, ok2 := g.Place(0x3000, opt); ok2 && p2.HostPC == 0x3000 {
		t.Fatal("self placement accepted with AllowSelf=false")
	}
}

func TestPlaceUnknownBranch(t *testing.T) {
	g := Build(chain(10))
	if _, ok := g.Place(0xDEAD, DefaultPlacementOptions()); ok {
		t.Fatal("placement for unseen branch")
	}
}

func TestPlaceDeterministicTieBreak(t *testing.T) {
	// Two equally good predecessors: the lower PC must win every time.
	mk := func() *Graph {
		var recs []trace.Record
		for i := 0; i < 100; i++ {
			pre := uint64(0x1000)
			if i%2 == 0 {
				pre = 0x1040
			}
			recs = append(recs,
				trace.Record{PC: pre, Kind: trace.CondBranch, Instrs: 2},
				trace.Record{PC: 0x1100, Kind: trace.CondBranch, Instrs: 2},
				trace.Record{PC: 0x8000, Kind: trace.CondBranch, Instrs: 2},
			)
		}
		return Build(trace.NewSliceStream(recs))
	}
	opt := DefaultPlacementOptions()
	opt.MinPrecision, opt.MinRecall = 0.2, 0.2
	first, _ := mk().Place(0x1100, opt)
	for i := 0; i < 5; i++ {
		p, ok := mk().Place(0x1100, opt)
		if !ok || p.HostPC != first.HostPC {
			t.Fatalf("tie-break not deterministic: %#x vs %#x", p.HostPC, first.HostPC)
		}
	}
}

func TestCoverageOnRealWorkload(t *testing.T) {
	app := workload.DataCenterApp("kafka")
	g := Build(app.Stream(0, 60000))
	// Collect executed conditional branch PCs.
	var pcs []uint64
	seen := map[uint64]bool{}
	s := app.Stream(0, 60000)
	var rec trace.Record
	for s.Next(&rec) {
		if rec.Kind == trace.CondBranch && !seen[rec.PC] {
			seen[rec.PC] = true
			pcs = append(pcs, rec.PC)
		}
	}
	placed := 0
	for _, pc := range pcs {
		if _, ok := g.Place(pc, DefaultPlacementOptions()); ok {
			placed++
		}
	}
	cov := float64(placed) / float64(len(pcs))
	// Paper: the 12-bit offset covers the vast majority (>80%) of
	// branches. Our synthetic CFG should land in the same regime.
	if cov < 0.6 {
		t.Fatalf("placement coverage %v too low", cov)
	}
}

func BenchmarkBuild(b *testing.B) {
	app := workload.DataCenterApp("kafka")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(app.Stream(0, 20000))
	}
}
