package classify

import (
	"testing"

	"github.com/whisper-sim/whisper/internal/bpu"
	"github.com/whisper-sim/whisper/internal/tage"
	"github.com/whisper-sim/whisper/internal/trace"
	"github.com/whisper-sim/whisper/internal/workload"
	"github.com/whisper-sim/whisper/internal/xrand"
)

func condStream(recs []trace.Record) trace.Stream { return trace.NewSliceStream(recs) }

func TestOracleHasNoMispredictions(t *testing.T) {
	app := workload.DataCenterApp("kafka")
	counts := DefaultClassifier().Run(app.Stream(0, 20000), &bpu.Oracle{})
	if counts.Total != 0 {
		t.Fatalf("oracle classified %d mispredictions", counts.Total)
	}
	if counts.CondExecs == 0 || counts.Instrs == 0 {
		t.Fatal("window counters empty")
	}
}

func TestDataDependentDominatesRandomBranch(t *testing.T) {
	// One static branch, pure coin flips: after warm-up every
	// misprediction should be conditional-on-data (substreams recur and
	// their majority is meaningless).
	r := xrand.New(3)
	var recs []trace.Record
	for i := 0; i < 30000; i++ {
		recs = append(recs, trace.Record{
			PC: 0x1000, Kind: trace.CondBranch, Taken: r.Bool(0.5), Instrs: 4,
		})
	}
	counts := DefaultClassifier().Run(condStream(recs), tage.New(tage.DefaultConfig()))
	if counts.Total == 0 {
		t.Fatal("random branch produced no mispredictions")
	}
	if counts.Fraction(DataDependent) < 0.5 {
		t.Fatalf("data-dependent fraction %v, want dominant; counts %+v",
			counts.Fraction(DataDependent), counts.ByClass)
	}
}

func TestCompulsoryOnFirstPass(t *testing.T) {
	// Every branch executes exactly once with an unpredictable direction:
	// all mispredictions must be compulsory.
	r := xrand.New(4)
	var recs []trace.Record
	for i := 0; i < 5000; i++ {
		recs = append(recs, trace.Record{
			PC: 0x1000 + uint64(i)*64, Kind: trace.CondBranch,
			Taken: r.Bool(0.5), Instrs: 4,
		})
	}
	counts := DefaultClassifier().Run(condStream(recs), tage.New(tage.DefaultConfig()))
	if counts.Total == 0 {
		t.Fatal("no mispredictions")
	}
	if counts.Fraction(Compulsory) < 0.95 {
		t.Fatalf("compulsory fraction %v; counts %+v", counts.Fraction(Compulsory), counts.ByClass)
	}
}

func TestCapacityUnderLargeWorkingSet(t *testing.T) {
	// A deterministic per-branch pattern over far more substreams than
	// the capacity model holds: recurring substreams whose reuse distance
	// exceeds capacity must classify as capacity.
	cl := &Classifier{CapacityEntries: 2048}
	var recs []trace.Record
	state := map[uint64]int{}
	for round := 0; round < 6; round++ {
		for b := 0; b < 8000; b++ {
			pc := 0x10000 + uint64(b)*32
			state[pc]++
			recs = append(recs, trace.Record{
				PC: pc, Kind: trace.CondBranch,
				Taken: state[pc]%2 == 0, Instrs: 4,
			})
		}
	}
	counts := cl.Run(condStream(recs), tage.New(tage.Config{SizeKB: 8}))
	if counts.Total == 0 {
		t.Fatal("no mispredictions")
	}
	if counts.Fraction(Capacity) < 0.4 {
		t.Fatalf("capacity fraction %v; counts %+v", counts.Fraction(Capacity), counts.ByClass)
	}
}

func TestDataCenterAppCapacityDominated(t *testing.T) {
	// The paper's Fig 3: data center applications are dominated by
	// capacity mispredictions (76.4% average). Check the regime (plural
	// classes present, capacity largest).
	app := workload.DataCenterApp("mysql")
	counts := DefaultClassifier().Run(app.Stream(0, 120000), tage.New(tage.DefaultConfig()))
	if counts.Total == 0 {
		t.Fatal("no mispredictions")
	}
	capFrac := counts.Fraction(Capacity)
	if capFrac < counts.Fraction(Compulsory) || capFrac < counts.Fraction(Conflict) {
		t.Fatalf("capacity %v not dominant: %+v", capFrac, counts.ByClass)
	}
}

func TestFractionsSumToOne(t *testing.T) {
	app := workload.DataCenterApp("drupal")
	counts := DefaultClassifier().Run(app.Stream(0, 40000), tage.New(tage.DefaultConfig()))
	sum := 0.0
	for c := Compulsory; c < numClasses; c++ {
		sum += counts.Fraction(c)
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("fractions sum to %v", sum)
	}
	var total uint64
	for _, v := range counts.ByClass {
		total += v
	}
	if total != counts.Total {
		t.Fatalf("ByClass sum %d != Total %d", total, counts.Total)
	}
}

func TestMPKI(t *testing.T) {
	c := Counts{Total: 30, Instrs: 10000}
	if got := c.MPKI(); got != 3 {
		t.Fatalf("MPKI = %v", got)
	}
	empty := Counts{}
	if empty.MPKI() != 0 || empty.Fraction(Capacity) != 0 {
		t.Fatal("zero-window accessors wrong")
	}
}

func TestDefaultsApplied(t *testing.T) {
	cl := &Classifier{}
	counts := cl.Run(condStream([]trace.Record{
		{PC: 0x1, Kind: trace.CondBranch, Taken: true, Instrs: 1},
	}), tage.New(tage.DefaultConfig()))
	if counts.CondExecs != 1 {
		t.Fatal("zero-value classifier did not run")
	}
}

func TestTrackBranchesPerBranchCounts(t *testing.T) {
	app := workload.DataCenterApp("mysql")
	cl := DefaultClassifier()
	cl.TrackBranches = 1 << 16
	counts := cl.Run(app.Stream(0, 40000), tage.New(tage.DefaultConfig()))
	if counts.Total == 0 {
		t.Fatal("no mispredictions")
	}
	if len(counts.Branches) == 0 {
		t.Fatal("TrackBranches recorded nothing")
	}
	// Per-branch counts must partition the global class counts exactly.
	var perBranch BranchClasses
	for _, bc := range counts.Branches {
		for i, v := range bc {
			perBranch[i] += v
		}
	}
	if perBranch != counts.ByClass {
		t.Fatalf("per-branch sums %v != global %v", perBranch, counts.ByClass)
	}
	labels := counts.DominantLabels()
	if len(labels) == 0 {
		t.Fatal("no dominant labels")
	}
	valid := map[string]bool{"compulsory": true, "capacity": true, "conflict": true, "data_dependent": true}
	for pc, lbl := range labels {
		if !valid[lbl] {
			t.Fatalf("branch %#x has label %q", pc, lbl)
		}
	}
}

func TestTrackBranchesBounded(t *testing.T) {
	// More unpredictable static branches than the bound: the map must
	// stop growing at the bound while the global counts keep going.
	r := xrand.New(9)
	var recs []trace.Record
	for round := 0; round < 3; round++ {
		for b := 0; b < 64; b++ {
			recs = append(recs, trace.Record{
				PC: 0x1000 + uint64(b)*32, Kind: trace.CondBranch,
				Taken: r.Bool(0.5), Instrs: 2,
			})
		}
	}
	cl := DefaultClassifier()
	cl.TrackBranches = 8
	counts := cl.Run(condStream(recs), tage.New(tage.Config{SizeKB: 8}))
	if len(counts.Branches) > 8 {
		t.Fatalf("tracked %d branches, bound 8", len(counts.Branches))
	}
	var tracked uint64
	for _, bc := range counts.Branches {
		for _, v := range bc {
			tracked += v
		}
	}
	if tracked > counts.Total {
		t.Fatalf("tracked %d > total %d", tracked, counts.Total)
	}
}

func TestDominantTieBreak(t *testing.T) {
	bc := BranchClasses{2, 2, 1, 0}
	if cl, n := bc.Dominant(); cl != Compulsory || n != 2 {
		t.Fatalf("Dominant = %v/%d, want Compulsory/2", cl, n)
	}
	if Capacity.Label() != "capacity" || DataDependent.Label() != "data_dependent" {
		t.Fatal("Label vocabulary drifted")
	}
	empty := &Counts{}
	if empty.DominantLabels() != nil {
		t.Fatal("empty counts produced labels")
	}
}
