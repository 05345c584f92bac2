package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"time"

	"github.com/whisper-sim/whisper"
	"github.com/whisper-sim/whisper/internal/cfg"
	"github.com/whisper-sim/whisper/internal/core"
	"github.com/whisper-sim/whisper/internal/pipeline"
	"github.com/whisper-sim/whisper/internal/profiler"
	"github.com/whisper-sim/whisper/internal/store"
	"github.com/whisper-sim/whisper/internal/trace"
	"github.com/whisper-sim/whisper/internal/traceio"
)

// warmupFrac is the evaluation warm-up share Build.Evaluate uses.
const warmupFrac = 0.3

// flowInput names one Fig 10 flow: profile app on input train, then
// evaluate the updated binary on input eval, over records-long windows,
// with the Table III parameters (those of whisper.Optimize and of the
// daemon's default -explore).
type flowInput struct {
	app         *whisper.App
	train, eval int
	records     int
}

// layerNames are the spans of the layer flow whose sum reconciles with
// the public-API flow, in call order.
var layerNames = []string{
	"profiler.Collect", "core.Train", "cfg.Build", "core.Inject",
	"pipeline.Run/base", "pipeline.Run/whisper",
}

// layerFlow is the flow of whisper.Optimize followed by Build.Evaluate,
// run one layer package at a time with a span around each call. The
// span named "flow" holds exactly the six layer calls; "probe" holds the
// extra per-layer measurements (synthesis, Phase A/B, store, traceio).
type layerFlow struct {
	prof *profiler.Profile
	tr   *core.TrainResult
	eval whisper.Evaluation
	// layers is the summed self time of the six layer spans.
	layers  time.Duration
	metrics map[string]float64
}

// runLayerFlow runs one layer flow plus the probe measurements under
// parent and fails e on any output check. Its metric names are the
// probe's share of perLayer.
func runLayerFlow(e *env, parent int, in flowInput) (*layerFlow, error) {
	r := e.spans
	f := &layerFlow{metrics: map[string]float64{}}
	mk := func() trace.Stream { return in.app.Stream(in.train, in.records) }
	flowID := r.begin(span{Name: "flow", Parent: parent, Lane: laneBench})

	var err error
	r.timed("profiler.Collect", flowID, func() {
		f.prof, err = profiler.Collect(mk, whisper.NewTageSCL(64), profiler.DefaultOptions())
	})
	if err != nil {
		r.end(flowID)
		return nil, fmt.Errorf("profiling %s: %w", in.app.Name(), err)
	}
	r.timed("core.Train", flowID, func() { f.tr, err = core.Train(f.prof, core.DefaultParams()) })
	if err != nil {
		r.end(flowID)
		return nil, fmt.Errorf("training %s: %w", in.app.Name(), err)
	}
	var g *cfg.Graph
	r.timed("cfg.Build", flowID, func() { g = cfg.Build(mk()) })
	var bin *core.Binary
	r.timed("core.Inject", flowID, func() {
		bin = core.Inject(f.tr, g, core.InjectOptions{
			Placement: cfg.DefaultPlacementOptions(),
			// The static instruction estimate of whisper.Optimize: six
			// instructions per static branch block.
			StaticInstrs: uint64(in.app.StaticBranches()) * 6,
			WindowInstrs: f.prof.Instrs,
		})
	})
	opt := pipeline.Options{
		Config:        pipeline.DefaultConfig(),
		WarmupRecords: uint64(float64(in.records) * warmupFrac),
	}
	evalStream := func() trace.Stream { return in.app.Stream(in.eval, in.records) }
	r.timed("pipeline.Run/base", flowID, func() {
		f.eval.Baseline = pipeline.Run(evalStream(), whisper.NewTageSCL(64), opt)
	})
	var rt *core.Runtime
	r.timed("pipeline.Run/whisper", flowID, func() {
		rt = core.NewRuntime(whisper.NewTageSCL(64), bin, f.tr.Lengths, 0)
		wopt := opt
		wopt.Hook = rt
		f.eval.Whisper = pipeline.Run(evalStream(), rt, wopt)
	})
	f.eval.HintPredictions, f.eval.HintExecutions = rt.HintPredictions, rt.HintExecutions
	r.end(flowID)

	self := r.selfTimes(flowID)
	for _, n := range layerNames {
		f.layers += self[n]
	}
	m := f.metrics
	m["profiler.collect_s"] = self["profiler.Collect"].Seconds()
	m["core.train_s"] = self["core.Train"].Seconds()
	m["cfg.build_s"] = self["cfg.Build"].Seconds()
	m["core.inject_s"] = self["core.Inject"].Seconds()
	m["pipeline.eval_base_s"] = self["pipeline.Run/base"].Seconds()
	m["pipeline.eval_whisper_s"] = self["pipeline.Run/whisper"].Seconds()
	m["pipeline.batched_ns_per_rec"] = float64(self["pipeline.Run/base"].Nanoseconds()) / float64(in.records)
	m["core.formula_evals"] = float64(f.tr.FormulaEvals)
	m["core.hard_branches"] = float64(len(f.prof.Hard))
	m["core.hints"] = float64(len(f.tr.Hints))
	m["core.evals_per_hint"] = ratio(float64(f.tr.FormulaEvals), float64(len(f.tr.Hints)))
	m["core.hints_placed"] = float64(bin.Placed)
	m["core.hints_dropped"] = float64(bin.Dropped)
	m["core.hint_buffer_hit_rate"] = rt.Buffer().HitRate()

	probeID := r.begin(span{Name: "probe", Parent: parent, Lane: laneBench})
	defer r.end(probeID)
	synth := r.timed("workload.Stream", probeID, func() {
		s := mk()
		var rec trace.Record
		for s.Next(&rec) {
		}
	})
	m["workload.synth_ns_per_rec"] = float64(synth.Nanoseconds()) / float64(in.records)
	recs := trace.Collect(mk(), in.records)
	measurePhases(e, probeID, in, opt, f.eval.Baseline, m)
	measureStore(e, probeID, f, m)
	measureTraceio(e, probeID, recs, m)
	return f, nil
}

// measurePhases splits the batched engine's base evaluation in two and
// times each half on its own:
//
//   - Phase A is the TAGE-SC-L kernel: PredictUpdateBatch over the
//     evaluation window's conditional stream, gathered up front, one
//     call per 4096-record block as the batched engine makes it;
//   - Phase B is pipeline.Run with a replay predictor that returns Phase
//     A's recorded predictions: stream synthesis plus frontend and cycle
//     accounting, with prediction reduced to a table lookup.
//
// Phase B's Result must equal the real run's, and A + B should land near
// the batched time (pipeline.reconcile_ratio).
func measurePhases(e *env, parent int, in flowInput, opt pipeline.Options, want pipeline.Result, m map[string]float64) {
	r := e.spans
	var pcs []uint64
	var taken []bool
	var blocks []int // conditional count at the end of each record block
	r.timed("gather", parent, func() {
		s := in.app.Stream(in.eval, in.records)
		var rec trace.Record
		n := 0
		for s.Next(&rec) {
			if rec.Kind == trace.CondBranch {
				pcs = append(pcs, rec.PC)
				taken = append(taken, rec.Taken)
			}
			if n++; n%trace.DefaultBlockSize == 0 {
				blocks = append(blocks, len(pcs))
			}
		}
		blocks = append(blocks, len(pcs))
	})
	miss := make([]bool, len(pcs))
	a := r.timed("phaseA", parent, func() { predictUpdate(whisper.NewTageSCL(64), pcs, taken, miss, blocks) })
	rp := &replay{pred: make([]bool, len(pcs))}
	for i := range pcs {
		rp.pred[i] = taken[i] != miss[i]
	}
	var got pipeline.Result
	b := r.timed("phaseB", parent, func() { got = pipeline.Run(in.app.Stream(in.eval, in.records), rp, opt) })
	if got != want {
		e.fail("phase B replay result differs from the real run: %+v vs %+v", got, want)
	}
	n := float64(in.records)
	m["pipeline.phase_a_ns_per_rec"] = float64(a.Nanoseconds()) / n
	m["pipeline.phase_b_ns_per_rec"] = float64(b.Nanoseconds()) / n
	m["pipeline.phase_b_share"] = ratio(b.Seconds(), (a + b).Seconds())
	m["pipeline.reconcile_ratio"] = ratio(float64((a+b).Nanoseconds())/n, m["pipeline.batched_ns_per_rec"])
}

// batchPredictor is the block fast path of a predictor, when it has one.
type batchPredictor interface {
	PredictUpdateBatch(pcs []uint64, taken, miss []bool)
}

// predictUpdate runs pred over the conditional stream, one call per
// block (blocks holds each block's end offset); predictors without a
// batch path run Predict/Update per branch.
func predictUpdate(pred whisper.Predictor, pcs []uint64, taken, miss []bool, blocks []int) {
	bp, ok := pred.(batchPredictor)
	from := 0
	for _, to := range blocks {
		if ok {
			bp.PredictUpdateBatch(pcs[from:to], taken[from:to], miss[from:to])
		} else {
			for i := from; i < to; i++ {
				miss[i] = pred.Predict(pcs[i]) != taken[i]
				pred.Update(pcs[i], taken[i])
			}
		}
		from = to
	}
}

// replay is a direction predictor that returns recorded predictions in
// order, so a pipeline.Run over the same stream does everything but
// predict.
type replay struct {
	pred []bool
	i    int
}

func (p *replay) Name() string { return "replay" }

func (p *replay) Predict(uint64) bool {
	v := p.pred[p.i]
	p.i++
	return v
}

func (p *replay) Update(uint64, bool) {}

func (p *replay) PredictUpdateBatch(pcs []uint64, taken, miss []bool) {
	for i := range pcs {
		miss[i] = p.pred[p.i] != taken[i]
		p.i++
	}
}

// measureStore times the WSPA encode and decode of the flow's hint
// bundle (the artifact the daemon serves) and checks decode→encode
// identity.
func measureStore(e *env, parent int, f *layerFlow, m map[string]float64) {
	art := bundleArtifact(f.tr, f.prof.Instrs)
	var data []byte
	var err error
	enc := e.spans.timed("store.Encode", parent, func() { data, err = store.Encode(art) })
	if err != nil {
		e.fail("encoding bundle: %v", err)
		return
	}
	var back *store.Artifact
	dec := e.spans.timed("store.Decode", parent, func() { back, err = store.Decode(data) })
	if err != nil {
		e.fail("decoding bundle: %v", err)
		return
	}
	if again, err := store.Encode(back); err != nil || !bytes.Equal(again, data) {
		e.fail("bundle decode→encode is not byte-identical (%v)", err)
	}
	m["store.encode_ms"] = float64(enc) / float64(time.Millisecond)
	m["store.decode_ms"] = float64(dec) / float64(time.Millisecond)
	m["store.bundle_kb"] = float64(len(data)) / 1024
}

// measureTraceio times the WSPT binary encode and decode of the flow's
// training window and checks the round trip.
func measureTraceio(e *env, parent int, recs []trace.Record, m map[string]float64) {
	var buf bytes.Buffer
	var err error
	enc := e.spans.timed("traceio.Write", parent, func() { err = traceio.WriteAll(&buf, traceio.FormatBinary, recs) })
	if err != nil {
		e.fail("encoding WSPT: %v", err)
		return
	}
	var back []trace.Record
	dec := e.spans.timed("traceio.Read", parent, func() {
		back, _, err = traceio.ReadAll(bytes.NewReader(buf.Bytes()), traceio.FormatBinary)
	})
	if err != nil || !reflect.DeepEqual(back, recs) {
		e.fail("WSPT round trip of %d records failed (%v)", len(recs), err)
	}
	n := float64(len(recs))
	m["traceio.encode_ns_per_rec"] = float64(enc.Nanoseconds()) / n
	m["traceio.decode_ns_per_rec"] = float64(dec.Nanoseconds()) / n
}

// bundleArtifact is the hint-only WSPA artifact of a training result,
// with the wall-clock training time zeroed so equal hints encode equal.
func bundleArtifact(tr *core.TrainResult, windowInstrs uint64) *store.Artifact {
	t := *tr
	t.Duration = 0
	return &store.Artifact{Train: &t, WindowInstrs: windowInstrs}
}

// flowDigest summarizes a flow's outputs for the reference check: the
// SHA-256 of its hint bundle's WSPA encoding (training time zeroed) and
// the evaluation counters.
func flowDigest(tr *core.TrainResult, ev *whisper.Evaluation) (string, error) {
	t := *tr
	t.Duration = 0
	data, err := store.Encode(&store.Artifact{Train: &t})
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	b, w := &ev.Baseline, &ev.Whisper
	return fmt.Sprintf("hints=%s base=%d/%d/%d/%d whisper=%d/%d/%d/%d hint=%d/%d",
		hex.EncodeToString(sum[:12]),
		b.Instrs, b.CondExecs, b.CondMisp, b.Cycles,
		w.Instrs, w.CondExecs, w.CondMisp, w.Cycles,
		ev.HintPredictions, ev.HintExecutions), nil
}

// probeMedians folds several probe flows' metrics into their medians.
func probeMedians(flows []map[string]float64) map[string]float64 {
	vals := map[string][]float64{}
	for _, m := range flows {
		for k, v := range m {
			vals[k] = append(vals[k], v)
		}
	}
	out := map[string]float64{}
	for k, vs := range vals {
		out[k] = median(vs)
	}
	return out
}
