package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"github.com/whisper-sim/whisper"
	"github.com/whisper-sim/whisper/internal/store"
	"github.com/whisper-sim/whisper/internal/telemetry"
)

// oneshot is the paper's Fig 10 flow through the public API: profile and
// train on one input of app (whisper.Optimize), then evaluate the updated
// binary on the next input (Build.Evaluate). Flow k of seed s trains on
// input (s+k) mod 6, so every run cycles through all of the app's inputs
// and its median does not hinge on which input the seed picked.
type oneshot struct {
	app     string
	records int
	// setupRecords is the window of each set-up flow; setups is how many
	// set-ups a run times.
	setupRecords, setups int
	// minFlows is the fewest measured flows per run.
	minFlows int
	// slo is the latency limit a flow must meet.
	slo time.Duration
}

// defaultOneshotTrain is mysql, where Algorithm 1 (core.Train) is ~70%
// of the flow.
func defaultOneshotTrain() oneshot {
	return oneshot{app: "mysql", records: 400_000, setupRecords: 50_000, setups: 5, minFlows: 3, slo: 10 * time.Second}
}

// defaultOneshotSim is kafka, where profiling and the two evaluation
// runs dominate and training is ~13%.
func defaultOneshotSim() oneshot {
	return oneshot{app: "kafka", records: 400_000, setupRecords: 50_000, setups: 5, minFlows: 3, slo: 4 * time.Second}
}

func (o oneshot) run(e *env) error {
	app := whisper.AppByName(o.app)
	if app == nil {
		return fmt.Errorf("%w: unknown app %q", errUsage, o.app)
	}
	inputs := func(k int) (train, eval int) {
		t := seedMod(e.seed, k, app.Inputs())
		return t, (t + 1) % app.Inputs()
	}

	// Set-up: construct the app and run a warm-up flow at the set-up
	// window, several times; the median is setup_s.
	var setups []float64
	var warm *whisper.Evaluation
	tr, ev := inputs(0)
	for i := 0; i < o.setups; i++ {
		t := time.Now()
		b, err := whisper.Optimize(whisper.AppByName(o.app), whisper.WithRecords(o.setupRecords), whisper.WithTrainInput(tr))
		if err != nil {
			return err
		}
		warm = b.Evaluate(ev, 0)
		setups = append(setups, time.Since(t).Seconds())
		e.sampleHost()
	}
	e.set("setup_s", median(setups))
	o.checkScalar(e, app, tr, ev, warm)

	if e.traced {
		return o.runTraced(e, app, inputs)
	}
	start, cpu0 := time.Now(), cpuSeconds(selfRusage())
	var flows, allocs []float64
	var last *whisper.Build
	var lastEval *whisper.Evaluation
	met := 0
	for k := 0; k < o.minFlows || time.Since(start).Seconds()+median(flows) <= e.seconds.Seconds(); k++ {
		if err := e.ctx.Err(); err != nil {
			return err
		}
		tr, ev := inputs(k)
		g0 := readGoStats()
		d, b, evl, err := o.apiFlow(e, app, tr, ev)
		allocs = append(allocs, float64(readGoStats().allocBytes-g0.allocBytes)/1e6)
		e.sampleHost()
		e.op(err == nil)
		if err != nil {
			e.fail("flow %d: %v", k, err)
			continue
		}
		flows = append(flows, d.Seconds())
		if d <= o.slo {
			met++
		}
		last, lastEval = b, evl
	}
	wall := time.Since(start).Seconds()
	if last != nil {
		o.checkSaveLoad(e, last, lastEval)
	}
	e.set("result_s", median(flows))
	e.set("request_p50_ms", median(flows)*1000)
	e.set("slo_frac", ratio(float64(met), float64(e.attempted)))
	e.set("max_rss_mb", maxRSSMB(selfRusage()))
	e.note("flows", float64(len(flows)))
	e.note("alloc_mb_per_flow", median(allocs))
	e.note("cpu_frac", (cpuSeconds(selfRusage())-cpu0)/wall)
	return nil
}

// apiFlow runs one timed flow through the public API and checks its
// outputs against the reference for its inputs.
func (o oneshot) apiFlow(e *env, app *whisper.App, train, eval int, opts ...whisper.Option) (time.Duration, *whisper.Build, *whisper.Evaluation, error) {
	opts = append([]whisper.Option{whisper.WithRecords(o.records), whisper.WithTrainInput(train)}, opts...)
	t := time.Now()
	b, err := whisper.Optimize(app, opts...)
	if err != nil {
		return 0, nil, nil, err
	}
	ev := b.Evaluate(eval, 0)
	d := time.Since(t)
	digest, err := flowDigest(b.Train, ev)
	if err != nil {
		return 0, nil, nil, err
	}
	e.expect(o.flowKey(train, eval), digest)
	return d, b, ev, nil
}

func (o oneshot) flowKey(train, eval int) string {
	return fmt.Sprintf("oneshot/%s/%d/%d-%d", o.app, o.records, train, eval)
}

// checkScalar re-runs the first set-up flow on the scalar reference
// engine (WithBlockSize(-1)); its evaluation must equal the batched one.
func (o oneshot) checkScalar(e *env, app *whisper.App, tr, ev int, batched *whisper.Evaluation) {
	b, err := whisper.Optimize(app, whisper.WithRecords(o.setupRecords), whisper.WithTrainInput(tr), whisper.WithBlockSize(-1))
	if err != nil {
		e.fail("scalar reference flow: %v", err)
		return
	}
	if got := b.Evaluate(ev, 0); *got != *batched {
		e.fail("scalar reference evaluation differs from the batched engine: %+v vs %+v", *got, *batched)
	}
}

// checkSaveLoad round-trips a build through whisper.Save and Load: the
// loaded hints must digest like the build's, and re-encoding the loaded
// artifact must reproduce the file byte for byte.
func (o oneshot) checkSaveLoad(e *env, b *whisper.Build, ev *whisper.Evaluation) {
	path := filepath.Join(e.work, "build.wspa")
	if err := whisper.Save(path, b); err != nil {
		e.fail("whisper.Save: %v", err)
		return
	}
	art, err := whisper.Load(path)
	if err != nil {
		e.fail("whisper.Load: %v", err)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		e.fail("reading %s: %v", path, err)
		return
	}
	if again, err := store.Encode(art); err != nil || !bytes.Equal(again, data) {
		e.fail("Save/Load round trip is not byte-identical (%v)", err)
	}
	want, err1 := flowDigest(b.Train, ev)
	got, err2 := flowDigest(art.Train, ev)
	if err1 != nil || err2 != nil || got != want {
		e.fail("loaded hints differ from the saved build: %s vs %s", got, want)
	}
}

// runTraced alternates three flows on the same inputs until the measured
// time is up: an untraced API flow, an API flow with the program's
// telemetry and tracer on, and the layer-by-layer flow.
func (o oneshot) runTraced(e *env, app *whisper.App, inputs func(int) (int, int)) error {
	r := e.spans
	start, cpu0 := time.Now(), cpuSeconds(selfRusage())
	var plain, traced, layerSums, cycles, allocs, gcCycles, profileS, trainS []float64
	var probes []map[string]float64
	var gcCPU, totalCPU float64
	for k := 0; k < 1 || time.Since(start).Seconds()+median(cycles) <= e.seconds.Seconds(); k++ {
		if err := e.ctx.Err(); err != nil {
			return err
		}
		t0 := time.Now()
		tr, ev := inputs(k)
		cycle := r.begin(span{Name: fmt.Sprintf("cycle %d (inputs %d→%d)", k, tr, ev), Lane: laneBench})

		id := r.begin(span{Name: "api-flow", Parent: cycle, Lane: laneBench})
		g0 := readGoStats()
		d, _, _, err := o.apiFlow(e, app, tr, ev)
		g1 := readGoStats()
		r.end(id)
		e.op(err == nil)
		if err != nil {
			r.end(cycle)
			return err
		}
		plain = append(plain, d.Seconds())
		allocs = append(allocs, float64(g1.allocBytes-g0.allocBytes)/1e6)
		gcCycles = append(gcCycles, float64(g1.gcCycles-g0.gcCycles))
		gcCPU += g1.gcCPU - g0.gcCPU
		totalCPU += g1.totalCPU - g0.totalCPU

		reg := whisper.NewRegistry()
		telemetry.InstallTracer(r.tb)
		id = r.begin(span{Name: "api-flow(traced)", Parent: cycle, Lane: laneBench})
		d, _, _, err = o.apiFlow(e, app, tr, ev, whisper.WithTelemetry(reg))
		r.end(id)
		telemetry.InstallTracer(nil)
		e.op(err == nil)
		if err != nil {
			r.end(cycle)
			return err
		}
		traced = append(traced, d.Seconds())
		profileS = append(profileS, phaseSum(reg.Snapshot(), "profile"))
		trainS = append(trainS, phaseSum(reg.Snapshot(), "train"))

		lf, err := runLayerFlow(e, cycle, flowInput{app: app, train: tr, eval: ev, records: o.records})
		e.op(err == nil)
		if err != nil {
			r.end(cycle)
			return err
		}
		if digest, err := flowDigest(lf.tr, &lf.eval); err != nil || digest != e.seen[o.flowKey(tr, ev)] {
			e.fail("layer flow %d→%d differs from the API flow: %s vs %s (%v)", tr, ev, digest, e.seen[o.flowKey(tr, ev)], err)
		}
		layerSums = append(layerSums, lf.layers.Seconds())
		probes = append(probes, lf.metrics)
		r.end(cycle)
		cycles = append(cycles, time.Since(t0).Seconds())
		e.sampleHost()
	}
	wall := time.Since(start).Seconds()

	for k, v := range probeMedians(probes) {
		e.set(k, v)
	}
	e.set("phase.profile_s", median(profileS))
	e.set("phase.train_s", median(trainS))
	e.set("trace.overhead_frac", ratio(median(traced), median(plain))-1)
	setRequests(e, plain)
	e.set("go.alloc_mb", median(allocs))
	e.set("gc.cycles", median(gcCycles))
	e.set("gc.cpu_frac", ratio(gcCPU, totalCPU))
	e.set("proc.cpu_frac", (cpuSeconds(selfRusage())-cpu0)/wall)
	reconcile(e, "layers.reconcile_ratio", ratio(median(layerSums), median(plain)))
	reconcile(e, "pipeline.reconcile_ratio", e.metrics["pipeline.reconcile_ratio"])
	setZero(e, serverMetrics...)
	setZero(e, runnerMetrics...)
	return nil
}

// phaseSum reads the summed seconds of one program phase span from a
// registry snapshot.
func phaseSum(snap map[string]any, phase string) float64 {
	h, _ := snap[telemetry.PhaseSeconds+`{phase="`+phase+`"}`].(map[string]any)
	v, _ := h["sum"].(float64)
	return v
}

// setRequests sets the req.* metrics from request latencies in seconds.
func setRequests(e *env, secs []float64) {
	ms := make([]float64, len(secs))
	for i, s := range secs {
		ms[i] = s * 1000
	}
	pct, v, n := tail(ms)
	e.set("req.count", float64(n))
	e.set("req.tail_ms", v)
	e.set("req.tail_pct", pct)
}

// reconcile sets a reconciliation ratio and warns when it is not within
// ±15% of 1: the breakdown does not add up. It is a warning, not a
// failed check, because a single run's layer and total times each carry
// the host's run-to-run noise.
func reconcile(e *env, name string, v float64) {
	e.set(name, v)
	if math.Abs(v-1) > 0.15 {
		fmt.Fprintf(e.log, "benchmark: warning: %s = %.3f: the layers do not add up to the measured total within ±15%%\n", name, v)
	}
}

// serverMetrics and runnerMetrics read 0 on workloads that run no
// daemon or no experiments runner respectively.
var (
	serverMetrics = []string{
		"server.posts", "server.gets", "server.retrains", "server.not_modified_ratio",
		"server.cache_hit_ratio", "server.get_in_retrain_ratio", "gen.late_frac",
	}
	runnerMetrics = []string{"runner.units", "runner.concurrency", "experiments.baseline_hit_ratio"}
)

func setZero(e *env, names ...string) {
	for _, n := range names {
		e.set(n, 0)
	}
}
