package sim

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/whisper-sim/whisper/internal/cfg"
	"github.com/whisper-sim/whisper/internal/core"
	"github.com/whisper-sim/whisper/internal/pipeline"
	"github.com/whisper-sim/whisper/internal/profiler"
	"github.com/whisper-sim/whisper/internal/spec"
	"github.com/whisper-sim/whisper/internal/store"
	"github.com/whisper-sim/whisper/internal/trace"
	"github.com/whisper-sim/whisper/internal/workload"
)

// TestStagedMatchesFused is the store's core guarantee, for every kind
// of window: running the flow in stages — profile, persist, reload,
// train, persist, reload, inject — produces the same build and the
// same evaluation results as the fused Build call, bit for bit.
func TestStagedMatchesFused(t *testing.T) {
	const n = 20000
	mysql := workload.DataCenterApp("mysql")
	recs := trace.Collect(workload.AppByName("rpc-chain").Stream(0, n), 0)
	imported := TraceWindow("rpc-chain.wspt", "", recs)
	for _, tc := range []struct {
		name        string
		train, test Window
		// reopen resolves the window again from a hint artifact's
		// metadata, as `whisper apply` does in another process.
		reopen func(store.Meta) (Window, error)
	}{
		{
			name:  "app",
			train: appWindow(t, mysql, 0, n),
			test:  appWindow(t, mysql, 1, n),
			reopen: func(m store.Meta) (Window, error) {
				return AppWindow(workload.DataCenterApp(m.App), m.Input, m.Records)
			},
		},
		{
			name:  "imported-trace",
			train: imported,
			test:  imported,
			reopen: func(store.Meta) (Window, error) {
				return TraceWindow("rpc-chain.wspt", "", recs), nil
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			params := core.DefaultParams()
			fused, err := Build(tc.train, Tage64KB, params)
			if err != nil {
				t.Fatal(err)
			}

			// Stage 1: profile, through a store round trip.
			prof, err := Profile(tc.train, Tage64KB, profiler.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			profArt := &store.Artifact{
				Meta:    store.Meta{App: tc.train.Name, Input: tc.train.Input, Records: tc.train.Records},
				Profile: prof,
			}
			data, err := store.Encode(profArt)
			if err != nil {
				t.Fatal(err)
			}
			loadedProf, err := store.Decode(data)
			if err != nil {
				t.Fatal(err)
			}
			// The accuracy pass keeps private warm-up counters that only
			// matter during collection and deliberately don't persist;
			// the canonical encoding covers exactly the fields training
			// reads, so compare fingerprints rather than raw structs.
			wantFP, err := store.Fingerprint(fused.Profile)
			if err != nil {
				t.Fatal(err)
			}
			gotFP, err := store.Fingerprint(loadedProf.Profile)
			if err != nil {
				t.Fatal(err)
			}
			if gotFP != wantFP {
				t.Fatal("persisted profile differs from the fused run's")
			}

			// Stage 2: train from the reloaded profile, through a round
			// trip.
			tr, err := core.Train(loadedProf.Profile, params)
			if err != nil {
				t.Fatal(err)
			}
			hintArt := &store.Artifact{
				Meta:         loadedProf.Meta,
				Train:        tr,
				WindowInstrs: loadedProf.Profile.Instrs,
			}
			if data, err = store.Encode(hintArt); err != nil {
				t.Fatal(err)
			}
			loadedTr, err := store.Decode(data)
			if err != nil {
				t.Fatal(err)
			}
			// Training wall-clock is the one field that legitimately
			// differs.
			wantTr := *fused.Train
			gotTr := *loadedTr.Train
			wantTr.Duration, gotTr.Duration = 0, 0
			if !reflect.DeepEqual(&gotTr, &wantTr) {
				t.Fatal("persisted train result differs from the fused run's")
			}

			// Stage 3: inject from the hint bundle alone (the apply path).
			w, err := tc.reopen(loadedTr.Meta)
			if err != nil {
				t.Fatal(err)
			}
			staged := Inject(w, loadedTr.Train, cfg.Build(w.Open()), loadedTr.WindowInstrs)
			if !reflect.DeepEqual(staged.Binary, fused.Binary) {
				t.Fatal("staged binary differs from fused binary")
			}

			// Final check: identical evaluation numbers on the test
			// window.
			popt := pipeline.Options{
				Config:        pipeline.DefaultConfig(),
				WarmupRecords: uint64(float64(n) * 0.3),
			}
			fusedRes, _ := fused.Run(tc.test, Tage64KB(), popt)
			stagedRes, _ := staged.Run(tc.test, Tage64KB(), popt)
			if fusedRes != stagedRes {
				t.Fatalf("evaluation differs:\nfused  %+v\nstaged %+v", fusedRes, stagedRes)
			}
		})
	}
}

// TestProfileKeyFormats pins the disk-cache keys to their literal
// formats: a profile or train cache written by an earlier build stays
// warm only while these strings stay byte-identical.
func TestProfileKeyFormats(t *testing.T) {
	def := "lengths=[],minexecs=12,minmisp=3,minrate=0.03,maxhard=4000,warmexecs=8"
	rombf := profiler.DefaultOptions()
	rombf.Lengths = []int{8}
	rombf.MaxHard = 0

	kafka := appWindow(t, workload.DataCenterApp("kafka"), 2, 5000)
	if got, want := ProfileKey(kafka, 64, profiler.DefaultOptions()),
		"profile|v1|app=kafka|input=2|records=5000|tage=64KB|"+def; got != want {
		t.Errorf("app key\n got %s\nwant %s", got, want)
	}
	if got, want := ProfileKey(kafka, 8, rombf),
		"profile|v1|app=kafka|input=2|records=5000|tage=8KB|lengths=[8],minexecs=12,minmisp=3,minrate=0.03,maxhard=0,warmexecs=8"; got != want {
		t.Errorf("app key, 8b-ROMBF options\n got %s\nwant %s", got, want)
	}

	imported := TraceWindow("sample.wspt", "0123abcd", nil)
	if got, want := ProfileKey(imported, 64, profiler.DefaultOptions()),
		"profile|v1|trace=0123abcd|tage=64KB|"+def; got != want {
		t.Errorf("trace key\n got %s\nwant %s", got, want)
	}

	s, err := spec.Parse([]byte("name: keys\nrecords: 3000\nmix:\n  - app: mysql\nphases:\n  - name: a\n  - name: b\n    input: 1\n"), "yaml")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := spec.Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ProfileKey(PhaseWindow(sc, 1), 64, profiler.DefaultOptions()),
		"profile|v1|spec="+sc.Hash()+"|phase=1|records=3000|tage=64KB|"+def; got != want {
		t.Errorf("spec-phase key\n got %s\nwant %s", got, want)
	}

	prof, err := Profile(kafka, Tage64KB, profiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	fp, err := store.Fingerprint(prof)
	if err != nil {
		t.Fatal(err)
	}
	params := core.DefaultParams()
	if got, want := TrainKey(ProfileKey(kafka, 64, profiler.DefaultOptions()), params),
		fmt.Sprintf("train|v1|profile|v1|app=kafka|input=2|records=5000|tage=64KB|%s|params=%+v", def, params); got != want {
		t.Errorf("train key\n got %s\nwant %s", got, want)
	}
	got, err := ContentTrainKey(prof, params)
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("train|v1|profile=%s|params=%+v", fp, params); got != want {
		t.Errorf("content train key\n got %s\nwant %s", got, want)
	}
}
