package pipeline_test

import (
	"testing"

	"github.com/whisper-sim/whisper/internal/bpu"
	"github.com/whisper-sim/whisper/internal/core"
	"github.com/whisper-sim/whisper/internal/pipeline"
	"github.com/whisper-sim/whisper/internal/sim"
	"github.com/whisper-sim/whisper/internal/tage"
	"github.com/whisper-sim/whisper/internal/trace"
	"github.com/whisper-sim/whisper/internal/workload"
)

// sink keeps the benchmarked runs' results live.
var sink pipeline.Result

// BenchmarkPipelineRun times Run (engine) and the per-record reference
// loop it must equal (reference) over one kafka window, with the 64KB
// TAGE-SC-L alone and with the Whisper runtime on top of it (hints
// trained on another input). One op is one run of the window; comparing
// a predictor's engine and reference ns/record reads what the block
// engine buys over the simpler loop.
func BenchmarkPipelineRun(b *testing.B) {
	const records = 20000
	app := workload.DataCenterApp("kafka")
	train, err := sim.AppWindow(app, 0, records)
	if err != nil {
		b.Fatal(err)
	}
	test, err := sim.AppWindow(app, 1, records)
	if err != nil {
		b.Fatal(err)
	}
	build, err := sim.Build(train, sim.Tage64KB, core.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	preds := []struct {
		name string
		mk   func() (bpu.Predictor, pipeline.RecordHook)
	}{
		{"tage-sc-l-64KB", func() (bpu.Predictor, pipeline.RecordHook) {
			return tage.New(tage.DefaultConfig()), nil
		}},
		{"whisper", func() (bpu.Predictor, pipeline.RecordHook) {
			rt := core.NewRuntime(tage.New(tage.DefaultConfig()), build.Binary, build.Train.Lengths, 0)
			return rt, rt
		}},
	}
	engines := []struct {
		name string
		run  func(trace.Stream, bpu.Predictor, pipeline.Options) pipeline.Result
	}{{"reference", pipeline.RunReference}, {"engine", pipeline.Run}}
	for _, p := range preds {
		for _, e := range engines {
			b.Run(p.name+"/"+e.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					pred, hook := p.mk()
					sink = e.run(test.Open(), pred, pipeline.Options{
						Config: pipeline.DefaultConfig(),
						Hook:   hook,
					})
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*records), "ns/record")
			})
		}
	}
}
