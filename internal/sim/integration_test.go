package sim

// Cross-module integration tests: the WSPT trace codec, the workload
// generator, the profiler, and the pipeline must compose without changing
// results — a trace written to disk and read back is the same experiment.

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/whisper-sim/whisper/internal/core"
	"github.com/whisper-sim/whisper/internal/pipeline"
	"github.com/whisper-sim/whisper/internal/profiler"
	"github.com/whisper-sim/whisper/internal/tage"
	"github.com/whisper-sim/whisper/internal/trace"
	"github.com/whisper-sim/whisper/internal/traceio"
	"github.com/whisper-sim/whisper/internal/workload"
)

// roundTrip encodes an app window through the WSPT codec and returns
// the decoded records.
func roundTrip(t *testing.T, app *workload.App, input, records int) []trace.Record {
	t.Helper()
	var buf bytes.Buffer
	if err := traceio.WriteAll(&buf, traceio.FormatBinary, trace.Collect(app.Stream(input, records), 0)); err != nil {
		t.Fatal(err)
	}
	recs, format, err := traceio.ReadAll(&buf, traceio.FormatAuto)
	if err != nil {
		t.Fatal(err)
	}
	if format != traceio.FormatBinary || len(recs) != records {
		t.Fatalf("decoded %d of %d records as %s", len(recs), records, format)
	}
	return recs
}

func TestTraceFileEquivalentPipelineResults(t *testing.T) {
	app := workload.DataCenterApp("drupal")
	const n = 60000
	popt := pipeline.Options{Config: pipeline.DefaultConfig(), WarmupRecords: n / 5}

	direct := pipeline.Run(app.Stream(0, n), tage.New(tage.DefaultConfig()), popt)
	recs := roundTrip(t, app, 0, n)
	fromFile := pipeline.Run(trace.NewSliceStream(recs), tage.New(tage.DefaultConfig()), popt)

	if direct.CondMisp != fromFile.CondMisp ||
		direct.Cycles != fromFile.Cycles ||
		direct.Instrs != fromFile.Instrs {
		t.Fatalf("trace round-trip changed results: direct %+v vs file %+v",
			direct, fromFile)
	}
}

func TestTraceFileEquivalentProfiles(t *testing.T) {
	app := workload.DataCenterApp("tomcat")
	const n = 50000
	opt := profiler.DefaultOptions()

	p1, err := profiler.Collect(func() trace.Stream { return app.Stream(0, n) },
		tage.New(tage.DefaultConfig()), opt)
	if err != nil {
		t.Fatal(err)
	}
	recs := roundTrip(t, app, 0, n)
	p2, err := profiler.Collect(func() trace.Stream { return trace.NewSliceStream(recs) },
		tage.New(tage.DefaultConfig()), opt)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Mispreds != p2.Mispreds || p1.CondExecs != p2.CondExecs {
		t.Fatalf("profiles differ: %d/%d vs %d/%d",
			p1.Mispreds, p1.CondExecs, p2.Mispreds, p2.CondExecs)
	}
	if len(p1.Hard) != len(p2.Hard) {
		t.Fatalf("hard sets differ: %d vs %d", len(p1.Hard), len(p2.Hard))
	}
	for pc, h1 := range p1.Hard {
		h2, ok := p2.Hard[pc]
		if !ok {
			t.Fatalf("branch %#x missing from file-backed profile", pc)
		}
		if h1.Misp != h2.Misp || h1.Execs != h2.Execs {
			t.Fatalf("branch %#x stats differ", pc)
		}
		for i := range p1.Lengths {
			if h1.T[i] != h2.T[i] || h1.NT[i] != h2.NT[i] {
				t.Fatalf("branch %#x histograms differ at length %d", pc, p1.Lengths[i])
			}
		}
	}
}

func TestWhisperFromFileBackedProfileMatches(t *testing.T) {
	// Training from a file-backed window must produce the same profile
	// and the same hints as training from the generator directly.
	app := workload.DataCenterApp("cassandra")
	const n = 60000

	direct, err := Build(appWindow(t, app, 0, n), Tage64KB, core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	fromFile, err := Build(TraceWindow("cassandra.wspt", "", roundTrip(t, app, 0, n)), Tage64KB, core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(fromFile.Profile.Hard) != len(direct.Profile.Hard) {
		t.Fatalf("hard sets differ: %d vs %d", len(fromFile.Profile.Hard), len(direct.Profile.Hard))
	}
	if fromFile.Profile.Mispreds != direct.Profile.Mispreds {
		t.Fatalf("misprediction counts differ: %d vs %d",
			fromFile.Profile.Mispreds, direct.Profile.Mispreds)
	}
	if !reflect.DeepEqual(fromFile.Train.Hints, direct.Train.Hints) {
		t.Fatal("hints trained from the file-backed window differ")
	}
}
