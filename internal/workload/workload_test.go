package workload

import (
	"slices"
	"testing"

	"github.com/whisper-sim/whisper/internal/bpu"
	"github.com/whisper-sim/whisper/internal/trace"
	"github.com/whisper-sim/whisper/internal/xrand"
)

func testConfig() Config {
	return Config{
		Name:           "test",
		Seed:           42,
		Functions:      50,
		BranchesPerFn:  5,
		ZipfS:          0.6,
		InstrPerRecord: 5,
		Mix:            Mix{Biased: 0.4, Loop: 0.1, ShortHist: 0.15, LongHist: 0.25, DataDep: 0.1},
		Noise:          0.01,
		InputVariance:  0.15,
		Inputs:         3,
	}
}

func TestNewValidates(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := New(Config{Name: "x", Functions: 1, BranchesPerFn: 1}); err == nil {
		t.Fatal("empty mix accepted")
	}
}

func TestDeterministicStream(t *testing.T) {
	a := MustNew(testConfig())
	s1 := trace.Collect(a.Stream(0, 5000), 0)
	s2 := trace.Collect(a.Stream(0, 5000), 0)
	if len(s1) != 5000 || len(s2) != 5000 {
		t.Fatalf("lengths %d,%d", len(s1), len(s2))
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("records diverge at %d", i)
		}
	}
}

func TestInputsDiffer(t *testing.T) {
	a := MustNew(testConfig())
	s0 := trace.Collect(a.Stream(0, 5000), 0)
	s1 := trace.Collect(a.Stream(1, 5000), 0)
	same := 0
	for i := range s0 {
		if s0[i] == s1[i] {
			same++
		}
	}
	if same == len(s0) {
		t.Fatal("inputs 0 and 1 produced identical streams")
	}
}

func TestStreamRecordSanity(t *testing.T) {
	a := MustNew(testConfig())
	recs := trace.Collect(a.Stream(0, 20000), 0)
	conds, calls, rets := 0, 0, 0
	for _, r := range recs {
		switch r.Kind {
		case trace.CondBranch:
			conds++
			if _, ok := a.Branch(r.PC); !ok {
				t.Fatalf("conditional at unknown pc %#x", r.PC)
			}
		case trace.Call:
			calls++
		case trace.Return:
			rets++
		}
		if !r.Kind.Valid() {
			t.Fatalf("invalid kind %v", r.Kind)
		}
	}
	if conds == 0 || calls == 0 || rets == 0 {
		t.Fatalf("missing kinds: cond=%d call=%d ret=%d", conds, calls, rets)
	}
	if float64(conds)/float64(len(recs)) < 0.5 {
		t.Fatalf("conditional fraction too low: %d/%d", conds, len(recs))
	}
}

func TestGroundTruthReproducible(t *testing.T) {
	// Replaying the stream while maintaining our own history must let us
	// verify LongHist branches: outcome equals formula over fold, up to
	// the branch's noise rate.
	a := MustNew(testConfig())
	var hist bpu.History
	var rec trace.Record
	s := a.Stream(0, 40000)
	agree, total := 0, 0
	for s.Next(&rec) {
		if rec.Kind != trace.CondBranch {
			continue
		}
		br, ok := a.Branch(rec.PC)
		if !ok {
			t.Fatal("unknown branch")
		}
		if br.Class == LongHist {
			want := br.F.Eval(hist.Fold(br.HistLen))
			if want == rec.Taken {
				agree++
			}
			total++
		}
		hist.Push(rec.Taken)
	}
	if total == 0 {
		t.Fatal("no LongHist executions observed")
	}
	frac := float64(agree) / float64(total)
	if frac < 0.93 {
		t.Fatalf("LongHist ground truth agreement %v (noise should be ~2%%)", frac)
	}
}

func TestLoopBranchesHaveFixedTrips(t *testing.T) {
	a := MustNew(testConfig())
	var rec trace.Record
	s := a.Stream(0, 40000)
	runs := map[uint64][]int{} // pc -> observed taken-run lengths
	cur := map[uint64]int{}
	for s.Next(&rec) {
		if rec.Kind != trace.CondBranch {
			continue
		}
		br, ok := a.Branch(rec.PC)
		if !ok || br.Class != Loop {
			continue
		}
		if rec.Taken {
			cur[rec.PC]++
		} else {
			runs[rec.PC] = append(runs[rec.PC], cur[rec.PC])
			cur[rec.PC] = 0
		}
	}
	if len(runs) == 0 {
		t.Fatal("no loop branches observed")
	}
	for pc, rs := range runs {
		br, _ := a.Branch(pc)
		matched := 0
		for _, r := range rs {
			if r == br.Trip {
				matched++
			}
		}
		// Noise can perturb a few runs; most must match the trip count.
		if float64(matched)/float64(len(rs)) < 0.8 {
			t.Fatalf("loop %#x trip=%d, runs %v", pc, br.Trip, rs[:min(8, len(rs))])
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestClassMixRoughlyHonored(t *testing.T) {
	cfg := testConfig()
	cfg.Functions = 400
	a := MustNew(cfg)
	var counts [numClasses]int
	for _, b := range a.branches {
		counts[b.Class]++
	}
	total := float64(len(a.branches))
	if got := float64(counts[Biased]) / total; got < 0.3 || got > 0.5 {
		t.Fatalf("biased fraction %v, want ~0.4", got)
	}
	if got := float64(counts[LongHist]) / total; got < 0.17 || got > 0.33 {
		t.Fatalf("long-hist fraction %v, want ~0.25", got)
	}
}

func TestBranchClassStrings(t *testing.T) {
	for c := Biased; c < numClasses; c++ {
		if c.String() == "" {
			t.Fatal("empty class name")
		}
	}
}

func TestStreamInputRangePanics(t *testing.T) {
	a := MustNew(testConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a.Stream(99, 10)
}

func TestDataCenterCatalog(t *testing.T) {
	specs := DataCenterSpecs()
	if len(specs) != 12 {
		t.Fatalf("%d data center apps, want 12", len(specs))
	}
	names := map[string]bool{}
	for _, s := range specs {
		if names[s.Config.Name] {
			t.Fatalf("duplicate app %s", s.Config.Name)
		}
		names[s.Config.Name] = true
		if s.Workload == "" {
			t.Fatalf("app %s missing workload description", s.Config.Name)
		}
	}
	for _, want := range []string{"mysql", "postgres", "clang", "python", "cassandra",
		"kafka", "tomcat", "drupal", "wordpress", "mediawiki", "finagle-chirper", "finagle-http"} {
		if !names[want] {
			t.Fatalf("missing app %s", want)
		}
	}
}

func TestDataCenterAppLookup(t *testing.T) {
	if DataCenterApp("mysql") == nil {
		t.Fatal("mysql lookup failed")
	}
	if DataCenterApp("nonesuch") != nil {
		t.Fatal("bogus lookup succeeded")
	}
}

func TestSpecAppsConcentrated(t *testing.T) {
	apps := SpecApps()
	if len(apps) != 10 {
		t.Fatalf("%d spec apps", len(apps))
	}
	// A SPEC-like app funnels most executions into few branches; a DC app
	// spreads them. Compare top-50 execution shares.
	share := func(a *App) float64 {
		counts := map[uint64]int{}
		var rec trace.Record
		s := a.Stream(0, 30000)
		total := 0
		for s.Next(&rec) {
			if rec.Kind == trace.CondBranch {
				counts[rec.PC]++
				total++
			}
		}
		all := make([]int, 0, len(counts))
		for _, c := range counts {
			all = append(all, c)
		}
		// top-50 share
		for i := 0; i < len(all); i++ {
			for j := i + 1; j < len(all); j++ {
				if all[j] > all[i] {
					all[i], all[j] = all[j], all[i]
				}
			}
			if i >= 49 {
				break
			}
		}
		top := 0
		for i := 0; i < 50 && i < len(all); i++ {
			top += all[i]
		}
		return float64(top) / float64(total)
	}
	spec := share(apps[0]) // deepsjeng-like
	dc := share(DataCenterApp("mysql"))
	if spec <= dc {
		t.Fatalf("spec top-50 share %v not above data-center %v", spec, dc)
	}
	if spec < 0.35 {
		t.Fatalf("spec top-50 share %v too flat", spec)
	}
}

func TestScaleRecords(t *testing.T) {
	if ScaleTiny.Records() >= ScaleSmall.Records() ||
		ScaleSmall.Records() >= ScaleFull.Records() {
		t.Fatal("scales not increasing")
	}
}

func TestPerInputOverridesApplied(t *testing.T) {
	cfg := testConfig()
	cfg.InputVariance = 0.5
	a := MustNew(cfg)
	changed := 0
	for bi := range a.branches {
		b0 := a.branchFor(0, bi)
		b1 := a.branchFor(1, bi)
		if b0.Class != b1.Class || b0.PTaken != b1.PTaken || b0.HistLen != b1.HistLen {
			changed++
		}
	}
	if changed == 0 {
		t.Fatal("no behaviours changed between inputs with variance 0.5")
	}
}

func TestFoldLengthsAreFromGeomSeries(t *testing.T) {
	a := MustNew(testConfig())
	valid := map[int]bool{}
	for _, l := range bpu.DefaultGeomLengths {
		valid[l] = true
	}
	for _, b := range a.branches {
		if b.Class == LongHist && !valid[b.HistLen] {
			t.Fatalf("LongHist length %d not in geometric series", b.HistLen)
		}
	}
}

func BenchmarkStream(b *testing.B) {
	a := MustNew(testConfig())
	var rec trace.Record
	b.ResetTimer()
	for i := 0; i < b.N; i += 10000 {
		s := a.Stream(0, 10000)
		for s.Next(&rec) {
		}
	}
}

var _ = xrand.New // keep import if unused in some builds

// TestFillBlockMatchesNext locks the generator's block producer to the
// per-record Next protocol: identical records in identical order,
// across block sizes that do and do not divide the record count.
func TestFillBlockMatchesNext(t *testing.T) {
	for _, appName := range []string{"mysql", "kafka"} {
		a := DataCenterApp(appName)
		if a == nil {
			t.Fatalf("app %s missing", appName)
		}
		const records = 10007
		want := trace.Collect(a.Stream(3, records), records+1)
		for _, bs := range []int{1, 7, 4096} {
			s := a.Stream(3, records)
			f, ok := s.(trace.BlockFiller)
			if !ok {
				t.Fatal("generator does not implement trace.BlockFiller")
			}
			b := trace.NewBlock(bs)
			var got []trace.Record
			for f.FillBlock(b) > 0 {
				got = append(got, b.Records()...)
			}
			if len(got) != len(want) {
				t.Fatalf("%s block=%d: %d records, want %d", appName, bs, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s block=%d: record %d differs: %+v != %+v", appName, bs, i, got[i], want[i])
				}
			}
		}
	}
}

// TestWindowsArePrefixConsistent pins the premise of Fig 23's shared
// baseline pass: for every Table I app and input, the n-record window's
// records are exactly the first n records of a longer window, because
// the generator truncates only at its remaining budget.
func TestWindowsArePrefixConsistent(t *testing.T) {
	const longest = 20000
	for _, a := range DataCenterApps() {
		for in := 0; in < a.Inputs(); in++ {
			all := trace.Collect(a.Stream(in, longest), longest+1)
			if len(all) != longest {
				t.Fatalf("%s input %d: %d records, want %d", a.Name(), in, len(all), longest)
			}
			for _, n := range []int{1, 4095, 4097, 12345} {
				if got := trace.Collect(a.Stream(in, n), n+1); !slices.Equal(got, all[:n]) {
					t.Fatalf("%s input %d: the %d-record window is not a prefix of the %d-record one",
						a.Name(), in, n, longest)
				}
			}
		}
	}
}
