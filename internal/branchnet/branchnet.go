// Package branchnet implements the BranchNet baseline (Zangeneh, Pruett,
// Lym, Patt — MICRO 2020): per-branch convolutional neural networks
// trained offline for hard-to-predict branches, deployed alongside a
// traditional predictor that covers everything else.
//
// The paper under reproduction evaluates three variants distinguished by
// total CNN metadata storage: 8KB, 32KB, and unlimited. The storage
// budget divides by the per-branch model size to give the number of
// covered branches (top mispredictors first) — which is precisely why
// BranchNet underperforms on data center applications: their
// mispredictions spread across thousands of branches (paper Fig 5), so a
// top-K policy covers only a sliver.
//
// Model scale note (DESIGN.md): the CNNs here are smaller than the
// original's (one conv layer + MLP head over the last 32 raw outcomes)
// to keep CPU training tractable at simulator scale; storage budgets are
// enforced against these model sizes. The qualitative behaviour the
// comparison needs — coverage limited by budget, training time orders of
// magnitude above formula search — is preserved.
package branchnet

import (
	"fmt"
	"time"

	"github.com/whisper-sim/whisper/internal/bpu"
	"github.com/whisper-sim/whisper/internal/nn"
	"github.com/whisper-sim/whisper/internal/profiler"
	"github.com/whisper-sim/whisper/internal/trace"
	"github.com/whisper-sim/whisper/internal/xrand"
)

// HistLen is the raw-history window each CNN sees.
const HistLen = 32

// Config tunes training.
type Config struct {
	// StorageBytes caps total CNN metadata (0 = unlimited).
	StorageBytes int
	// MaxBranches caps how many branches are trained even when storage
	// is unlimited (the tail contributes nothing but training time).
	MaxBranches int
	// SamplesPerBranch caps the training set per branch.
	SamplesPerBranch int
	// Epochs is the number of SGD passes.
	Epochs int
	// LearningRate is the SGD step size.
	LearningRate float64
	// Filters and Width shape the conv layer.
	Filters, Width int
	// Hidden is the MLP head width.
	Hidden int
	// Seed drives weight initialization.
	Seed uint64
	// MinAccuracyGain requires the CNN to beat the profiled predictor's
	// accuracy on held-out samples by this margin before deployment.
	MinAccuracyGain float64
}

// Variant returns the paper's named configurations.
func Variant(name string) (Config, error) {
	base := Config{
		MaxBranches:      400,
		SamplesPerBranch: 400,
		Epochs:           5,
		LearningRate:     0.04,
		Filters:          2,
		Width:            4,
		Hidden:           6,
		Seed:             0xB4A9C9E7,
		MinAccuracyGain:  0.01,
	}
	switch name {
	case "8KB":
		base.StorageBytes = 8 * 1024
	case "32KB":
		base.StorageBytes = 32 * 1024
	case "unlimited":
		base.StorageBytes = 0
	default:
		return Config{}, fmt.Errorf("branchnet: unknown variant %q", name)
	}
	return base, nil
}

// Model is a trained per-branch CNN.
type Model struct {
	PC  uint64
	Net *nn.Network
	// TrainAcc and BaselineAcc are held-out accuracy and the profiled
	// predictor's accuracy for the branch.
	TrainAcc, BaselineAcc float64
}

// TrainResult is the trained predictor state plus training cost.
type TrainResult struct {
	Models   map[uint64]*Model
	Trained  int
	Deployed int
	Duration time.Duration
	// StorageUsed is the total bytes of deployed models.
	StorageUsed int
}

// sample is one training example: the raw history window and the outcome.
type sample struct {
	hist  [HistLen]uint8
	taken bool
}

// Train fits CNNs for the profile's top mispredicting branches using the
// stream factory for sample collection. The profiled predictor's
// per-branch accuracy (from the profile) is the deployment bar.
func Train(p *profiler.Profile, mkStream func() trace.Stream, cfg Config) (*TrainResult, error) {
	if cfg.Epochs <= 0 || cfg.SamplesPerBranch <= 0 {
		return nil, fmt.Errorf("branchnet: epochs and samples must be positive")
	}
	start := time.Now()

	// Candidate branches: top mispredictors, like the original's
	// hard-to-predict branch selection.
	pcs := p.HardPCs()
	if cfg.MaxBranches > 0 && len(pcs) > cfg.MaxBranches {
		pcs = pcs[:cfg.MaxBranches]
	}
	// Probe model size to translate the storage budget into a branch
	// budget up front.
	probe := buildNet(cfg, xrand.New(cfg.Seed))
	modelBytes := probe.SizeBytes()
	if cfg.StorageBytes > 0 {
		maxModels := cfg.StorageBytes / modelBytes
		if maxModels < len(pcs) {
			pcs = pcs[:maxModels]
		}
	}
	want := make(map[uint64]bool, len(pcs))
	for _, pc := range pcs {
		want[pc] = true
	}

	// Sample collection pass: raw history windows for candidate
	// branches.
	samples := make(map[uint64][]sample, len(pcs))
	var hist bpu.History
	var rec trace.Record
	s := mkStream()
	for s.Next(&rec) {
		if rec.Kind != trace.CondBranch {
			continue
		}
		if want[rec.PC] && len(samples[rec.PC]) < cfg.SamplesPerBranch {
			var sm sample
			for i := 0; i < HistLen; i++ {
				if hist.Bit(i) {
					sm.hist[i] = 1
				}
			}
			sm.taken = rec.Taken
			samples[rec.PC] = append(samples[rec.PC], sm)
		}
		hist.Push(rec.Taken)
	}

	res := &TrainResult{Models: make(map[uint64]*Model)}
	rng := xrand.New(cfg.Seed)
	x := make([]float64, HistLen)
	for _, pc := range pcs {
		sms := samples[pc]
		if len(sms) < 32 {
			continue
		}
		res.Trained++
		// Hold out the last quarter for the deployment decision.
		cut := len(sms) * 3 / 4
		train, test := sms[:cut], sms[cut:]
		net := buildNet(cfg, rng)
		order := make([]int, len(train))
		for i := range order {
			order[i] = i
		}
		for e := 0; e < cfg.Epochs; e++ {
			rng.ShuffleInts(order)
			for _, idx := range order {
				sm := &train[idx]
				for i := 0; i < HistLen; i++ {
					x[i] = float64(sm.hist[i])
				}
				y := 0.0
				if sm.taken {
					y = 1
				}
				net.TrainStep(x, y, cfg.LearningRate)
			}
		}
		correct := 0
		for i := range test {
			sm := &test[i]
			for j := 0; j < HistLen; j++ {
				x[j] = float64(sm.hist[j])
			}
			if net.PredictTaken(x) == sm.taken {
				correct++
			}
		}
		acc := float64(correct) / float64(len(test))
		bs := p.Stats[pc]
		baseAcc := 1 - bs.MispRate()
		m := &Model{PC: pc, Net: net, TrainAcc: acc, BaselineAcc: baseAcc}
		if acc >= baseAcc+cfg.MinAccuracyGain {
			res.Models[pc] = m
			res.Deployed++
			res.StorageUsed += net.SizeBytes()
		}
	}
	res.Duration = time.Since(start)
	return res, nil
}

func buildNet(cfg Config, rng *xrand.Rand) *nn.Network {
	// Conv feature map feeds the dense head without global pooling:
	// position information matters for branch history (a branch can
	// depend on the outcome at a specific depth), which global pooling
	// would destroy. The original BranchNet likewise preserves position
	// via its segment-pooled fully-connected stage.
	conv := nn.NewConv1D(HistLen, cfg.Width, cfg.Filters, rng)
	return &nn.Network{Layers: []nn.Layer{
		conv,
		&nn.ReLU{},
		nn.NewDense(cfg.Filters*conv.Positions(), cfg.Hidden, rng),
		&nn.ReLU{},
		nn.NewDense(cfg.Hidden, 1, rng),
	}}
}

// Predictor is the hybrid runtime: CNN inference for covered branches,
// the underlying predictor otherwise.
type Predictor struct {
	under  bpu.Predictor
	models map[uint64]*Model
	hist   bpu.History
	name   string
	x      []float64

	// CNNPredictions counts predictions served by models.
	CNNPredictions uint64
}

// NewPredictor wraps under with the trained models.
func NewPredictor(under bpu.Predictor, models map[uint64]*Model, label string) *Predictor {
	if t, ok := under.(interface{ SuppressAllocation(uint64) }); ok {
		for pc := range models {
			t.SuppressAllocation(pc)
		}
	}
	return &Predictor{
		under:  under,
		models: models,
		name:   fmt.Sprintf("branchnet-%s+%s", label, under.Name()),
		x:      make([]float64, HistLen),
	}
}

// Name implements bpu.Predictor.
func (p *Predictor) Name() string { return p.name }

// Predict implements bpu.Predictor.
func (p *Predictor) Predict(pc uint64) bool {
	if m, ok := p.models[pc]; ok {
		p.CNNPredictions++
		for i := 0; i < HistLen; i++ {
			if p.hist.Bit(i) {
				p.x[i] = 1
			} else {
				p.x[i] = 0
			}
		}
		return m.Net.PredictTaken(p.x)
	}
	return p.under.Predict(pc)
}

// Update implements bpu.Predictor.
func (p *Predictor) Update(pc uint64, taken bool) {
	p.under.Update(pc, taken)
	p.hist.Push(taken)
}
