package branchnet

import (
	"testing"

	"github.com/whisper-sim/whisper/internal/bpu"
	"github.com/whisper-sim/whisper/internal/profiler"
	"github.com/whisper-sim/whisper/internal/tage"
	"github.com/whisper-sim/whisper/internal/trace"
	"github.com/whisper-sim/whisper/internal/workload"
	"github.com/whisper-sim/whisper/internal/xrand"
)

func TestVariantConfigs(t *testing.T) {
	small, err := Variant("8KB")
	if err != nil {
		t.Fatal(err)
	}
	big, err := Variant("32KB")
	if err != nil {
		t.Fatal(err)
	}
	unl, err := Variant("unlimited")
	if err != nil {
		t.Fatal(err)
	}
	if small.StorageBytes >= big.StorageBytes {
		t.Fatal("8KB >= 32KB")
	}
	if unl.StorageBytes != 0 {
		t.Fatal("unlimited should have no storage bound")
	}
	if _, err := Variant("64KB"); err == nil {
		t.Fatal("bogus variant accepted")
	}
}

// patternStream emits a driver with a repeating 6-bit pattern and a target
// branch whose outcome copies the driver outcome 3 steps back — learnable
// from a 32-deep raw history window.
func patternStream(n int) trace.Stream {
	pattern := []bool{true, true, false, true, false, false}
	var past []bool
	var recs []trace.Record
	r := xrand.New(21)
	for i := 0; i < n; i++ {
		d := pattern[i%len(pattern)]
		if r.Bool(0.1) {
			d = !d
		}
		recs = append(recs, trace.Record{PC: 0x1000, Kind: trace.CondBranch, Taken: d, Instrs: 3})
		past = append(past, d)
		want := false
		if len(past) >= 3 {
			want = past[len(past)-3]
		}
		recs = append(recs, trace.Record{PC: 0x2000, Kind: trace.CondBranch, Taken: want, Instrs: 3})
		past = append(past, want)
	}
	return trace.NewSliceStream(recs)
}

func collectProfile(t *testing.T, mk func() trace.Stream, pred bpu.Predictor) *profiler.Profile {
	t.Helper()
	p, err := profiler.Collect(mk, pred, profiler.Options{
		Lengths: []int{8}, MinExecs: 8, MinMisp: 1, MinRate: 0.01,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestTrainLearnsHistoryCopyBranch(t *testing.T) {
	mk := func() trace.Stream { return patternStream(3000) }
	p := collectProfile(t, mk, bpu.NewBimodal(12))
	cfg, _ := Variant("unlimited")
	res, err := Train(p, mk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trained == 0 {
		t.Fatal("nothing trained")
	}
	m, ok := res.Models[0x2000]
	if !ok {
		t.Fatalf("target branch not deployed (trained=%d deployed=%d)", res.Trained, res.Deployed)
	}
	if m.TrainAcc < 0.8 {
		t.Fatalf("CNN held-out accuracy %v on copy branch", m.TrainAcc)
	}
	if res.Duration <= 0 {
		t.Fatal("duration not measured")
	}
}

func TestStorageBudgetLimitsCoverage(t *testing.T) {
	app := workload.DataCenterApp("mysql")
	mk := func() trace.Stream { return app.Stream(0, 60000) }
	p := collectProfile(t, mk, tage.New(tage.DefaultConfig()))

	cfg8, _ := Variant("8KB")
	cfgU, _ := Variant("unlimited")
	cfg8.Epochs, cfgU.Epochs = 2, 2 // keep the test fast
	cfg8.SamplesPerBranch, cfgU.SamplesPerBranch = 200, 200
	cfgU.MaxBranches = 120

	r8, err := Train(p, mk, cfg8)
	if err != nil {
		t.Fatal(err)
	}
	rU, err := Train(p, mk, cfgU)
	if err != nil {
		t.Fatal(err)
	}
	if r8.StorageUsed > 8*1024 {
		t.Fatalf("8KB variant used %d bytes", r8.StorageUsed)
	}
	if r8.Trained >= rU.Trained {
		t.Fatalf("8KB trained %d, unlimited %d", r8.Trained, rU.Trained)
	}
	// mispShare is the fraction of profiled mispredictions the deployed
	// models cover: the quantity the top-K assumption is about.
	mispShare := func(models map[uint64]*Model) float64 {
		var covered, total uint64
		for pc, bs := range p.Stats {
			total += bs.Misp
			if _, ok := models[pc]; ok {
				covered += bs.Misp
			}
		}
		return float64(covered) / float64(total)
	}
	share8, shareU := mispShare(r8.Models), mispShare(rU.Models)
	if share8 > shareU {
		t.Fatalf("8KB coverage %v exceeds unlimited %v", share8, shareU)
	}
	// The data-center regime: a budgeted top-K covers only a small share
	// of mispredictions (paper Fig 5b).
	if share8 > 0.5 {
		t.Fatalf("8KB misprediction coverage %v implausibly high for a DC app", share8)
	}
}

func TestPredictorHybridRouting(t *testing.T) {
	mk := func() trace.Stream { return patternStream(2500) }
	p := collectProfile(t, mk, bpu.NewBimodal(12))
	cfg, _ := Variant("unlimited")
	res, err := Train(p, mk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Models) == 0 {
		t.Skip("no models deployed")
	}
	pred := NewPredictor(tage.New(tage.DefaultConfig()), res.Models, "unlimited")
	s := mk()
	var rec trace.Record
	misp, total := 0, 0
	for s.Next(&rec) {
		if rec.Kind != trace.CondBranch {
			continue
		}
		if pred.Predict(rec.PC) != rec.Taken {
			misp++
		}
		total++
		pred.Update(rec.PC, rec.Taken)
	}
	if pred.CNNPredictions == 0 {
		t.Fatal("CNN never used")
	}
	if float64(misp)/float64(total) > 0.3 {
		t.Fatalf("hybrid misprediction rate %v", float64(misp)/float64(total))
	}
}

func TestTrainValidation(t *testing.T) {
	p := &profiler.Profile{}
	if _, err := Train(p, nil, Config{}); err == nil {
		t.Fatal("zero config accepted")
	}
}

func TestDeploymentBarRespected(t *testing.T) {
	// Branch profiled as easy (oracle baseline): the CNN can never beat
	// it, so nothing deploys.
	mk := func() trace.Stream { return patternStream(1500) }
	p := collectProfile(t, mk, bpu.NewBimodal(12))
	// Inflate the baseline accuracy artificially.
	for _, bs := range p.Stats {
		bs.Misp = 0
	}
	cfg, _ := Variant("unlimited")
	res, err := Train(p, mk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deployed != 0 {
		t.Fatalf("%d models deployed against perfect baseline", res.Deployed)
	}
}
