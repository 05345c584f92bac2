package profiler

import (
	"testing"

	"github.com/whisper-sim/whisper/internal/bpu"
	"github.com/whisper-sim/whisper/internal/tage"
	"github.com/whisper-sim/whisper/internal/trace"
	"github.com/whisper-sim/whisper/internal/workload"
)

func mkApp(t testing.TB) *workload.App {
	t.Helper()
	app, err := workload.New(workload.Config{
		Name:           "prof-test",
		Seed:           7,
		Functions:      60,
		BranchesPerFn:  5,
		ZipfS:          0.6,
		InstrPerRecord: 5,
		Mix:            workload.Mix{Biased: 0.3, Loop: 0.1, ShortHist: 0.15, LongHist: 0.3, DataDep: 0.15},
		Noise:          0.01,
		Inputs:         2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return app
}

func TestCollectBasics(t *testing.T) {
	app := mkApp(t)
	p, err := Collect(func() trace.Stream { return app.Stream(0, 40000) },
		tage.New(tage.DefaultConfig()), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if p.Records != 40000 {
		t.Fatalf("records %d", p.Records)
	}
	if p.CondExecs == 0 || p.Instrs <= p.Records {
		t.Fatalf("cond=%d instrs=%d", p.CondExecs, p.Instrs)
	}
	if p.Mispreds == 0 {
		t.Fatal("no mispredictions profiled")
	}
	if p.MPKI() <= 0 {
		t.Fatal("MPKI not positive")
	}
	if len(p.Hard) == 0 {
		t.Fatal("no hard branches selected")
	}
	if len(p.Lengths) != 16 {
		t.Fatalf("lengths = %v", p.Lengths)
	}
}

func TestCollectNilArgs(t *testing.T) {
	if _, err := Collect(nil, nil, Options{}); err == nil {
		t.Fatal("nil args accepted")
	}
}

func TestHistogramsConsistent(t *testing.T) {
	app := mkApp(t)
	p, err := Collect(func() trace.Stream { return app.Stream(0, 40000) },
		tage.New(tage.DefaultConfig()), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for pc, hp := range p.Hard {
		bs := p.Stats[pc]
		for i := range p.Lengths {
			var tkn, nt uint64
			for h := 0; h < 256; h++ {
				tkn += uint64(hp.T[i][h]) + uint64(hp.VT[i][h])
				nt += uint64(hp.NT[i][h]) + uint64(hp.VNT[i][h])
			}
			if tkn+nt != bs.Execs {
				t.Fatalf("pc %#x len %d: histogram mass %d != execs %d",
					pc, p.Lengths[i], tkn+nt, bs.Execs)
			}
			if tkn != bs.Taken {
				t.Fatalf("pc %#x len %d: taken mass %d != %d", pc, i, tkn, bs.Taken)
			}
		}
		if hp.MeasExecs > bs.Execs {
			t.Fatalf("pc %#x: measured execs %d exceed total %d", pc, hp.MeasExecs, bs.Execs)
		}
		if hp.MispVal > hp.MispMeas || hp.MispMeas > hp.Misp {
			t.Fatalf("pc %#x: inconsistent misp counters %d/%d/%d",
				pc, hp.MispVal, hp.MispMeas, hp.Misp)
		}
	}
}

func TestHardSelectionRespectsThresholds(t *testing.T) {
	app := mkApp(t)
	opt := DefaultOptions()
	opt.MinRate = 0.3 // very strict
	p, err := Collect(func() trace.Stream { return app.Stream(0, 30000) },
		tage.New(tage.DefaultConfig()), opt)
	if err != nil {
		t.Fatal(err)
	}
	for pc, hp := range p.Hard {
		if hp.MeasExecs == 0 {
			t.Fatalf("hard branch %#x has no measured executions", pc)
		}
		if rate := float64(hp.MispMeas) / float64(hp.MeasExecs); rate < 0.3 {
			t.Fatalf("hard branch %#x measured rate %v below threshold", pc, rate)
		}
	}
}

func TestMaxHardCap(t *testing.T) {
	app := mkApp(t)
	opt := DefaultOptions()
	opt.MaxHard = 5
	p, err := Collect(func() trace.Stream { return app.Stream(0, 30000) },
		tage.New(tage.DefaultConfig()), opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Hard) > 5 {
		t.Fatalf("hard set %d exceeds cap", len(p.Hard))
	}
	// The capped set must be the top mispredictors.
	minHard := uint64(1 << 62)
	for pc := range p.Hard {
		if m := p.Stats[pc].Misp; m < minHard {
			minHard = m
		}
	}
	excluded := 0
	for pc, bs := range p.Stats {
		_, isHard := p.Hard[pc]
		qualifies := bs.Execs >= opt.MinExecs && bs.Misp >= opt.MinMisp && bs.MispRate() >= opt.MinRate
		if !isHard && qualifies && bs.Misp > minHard {
			excluded++
		}
	}
	if excluded > 0 {
		t.Fatalf("%d branches with more mispredictions than the hard set were excluded", excluded)
	}
}

func TestHardPCsSorted(t *testing.T) {
	app := mkApp(t)
	p, _ := Collect(func() trace.Stream { return app.Stream(0, 30000) },
		tage.New(tage.DefaultConfig()), DefaultOptions())
	pcs := p.HardPCs()
	for i := 1; i < len(pcs); i++ {
		if p.Hard[pcs[i-1]].Misp < p.Hard[pcs[i]].Misp {
			t.Fatal("HardPCs not sorted by mispredictions")
		}
	}
}

func TestOracleProfileHasNoMispredictions(t *testing.T) {
	app := mkApp(t)
	p, err := Collect(func() trace.Stream { return app.Stream(0, 20000) },
		&bpu.Oracle{}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if p.Mispreds != 0 || len(p.Hard) != 0 {
		t.Fatalf("oracle profile: misp=%d hard=%d", p.Mispreds, len(p.Hard))
	}
}

func TestMerge(t *testing.T) {
	app := mkApp(t)
	p0, _ := Collect(func() trace.Stream { return app.Stream(0, 20000) },
		tage.New(tage.DefaultConfig()), DefaultOptions())
	p1, _ := Collect(func() trace.Stream { return app.Stream(1, 20000) },
		tage.New(tage.DefaultConfig()), DefaultOptions())
	r0, m0 := p0.Records, p0.Mispreds
	if err := p0.Merge(p1); err != nil {
		t.Fatal(err)
	}
	if p0.Records != r0+p1.Records {
		t.Fatal("records not merged")
	}
	if p0.Mispreds != m0+p1.Mispreds {
		t.Fatal("mispredictions not merged")
	}
	// Histogram mass must equal merged exec counts for branches hard in
	// both.
	for pc, hp := range p0.Hard {
		var mass uint64
		for h := 0; h < 256; h++ {
			mass += uint64(hp.T[0][h]) + uint64(hp.NT[0][h]) +
				uint64(hp.VT[0][h]) + uint64(hp.VNT[0][h])
		}
		if mass != hp.Execs {
			t.Fatalf("pc %#x merged mass %d != execs %d", pc, mass, hp.Execs)
		}
	}
}

func TestMergeRejectsDifferentLengths(t *testing.T) {
	a := &Profile{Lengths: []int{8, 16}}
	b := &Profile{Lengths: []int{8, 32}}
	if err := a.Merge(b); err == nil {
		t.Fatal("mismatched lengths merged")
	}
	c := &Profile{Lengths: []int{8}}
	if err := a.Merge(c); err == nil {
		t.Fatal("different-size length sets merged")
	}
}

func BenchmarkCollect(b *testing.B) {
	app, _ := workload.New(workload.Config{
		Name: "bench", Seed: 9, Functions: 40, BranchesPerFn: 4,
		Mix: workload.Mix{Biased: 0.4, LongHist: 0.4, DataDep: 0.2},
	})
	for i := 0; i < b.N; i++ {
		Collect(func() trace.Stream { return app.Stream(0, 20000) },
			tage.New(tage.DefaultConfig()), DefaultOptions())
	}
}
