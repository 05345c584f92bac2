package core

import (
	"reflect"
	"runtime"
	"sort"
	"testing"

	"github.com/whisper-sim/whisper/internal/profiler"
	"github.com/whisper-sim/whisper/internal/trace"
)

// TestTrainSameAtAnyGOMAXPROCS: Train scores its hard branches on
// GOMAXPROCS workers, and its result, Duration aside, is the same at
// one worker and at many, for each search the params select and for
// profiles with no hard branch or fewer hard branches than workers.
func TestTrainSameAtAnyGOMAXPROCS(t *testing.T) {
	app := mkApp(t)
	prof := collect(t, func() trace.Stream { return app.Stream(0, 60000) })
	pcs := make([]uint64, 0, len(prof.Hard))
	for pc := range prof.Hard {
		pcs = append(pcs, pc)
	}
	sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
	if len(pcs) < 16 {
		t.Fatalf("profile has %d hard branches, want at least 16", len(pcs))
	}
	// first returns prof cut to its n lowest-PC hard branches.
	first := func(n int) *profiler.Profile {
		cut := *prof
		cut.Hard = map[uint64]*profiler.HardProfile{}
		for _, pc := range pcs[:n] {
			cut.Hard[pc] = prof.Hard[pc]
		}
		return &cut
	}
	with := func(edit func(*Params)) Params {
		p := DefaultParams()
		edit(&p)
		return p
	}
	cases := []struct {
		name   string
		prof   *profiler.Profile
		params Params
	}{
		{"default", prof, DefaultParams()},
		// The exhaustive search scores 2^15 formulas per length, so it
		// runs on 16 branches, still twice the widest worker count.
		{"exhaustive", first(16), with(func(p *Params) { p.ExploreFraction = 1 })},
		{"raw history", prof, with(func(p *Params) { p.HashedHistory = false })},
		{"AND/OR only", prof, with(func(p *Params) { p.ExtendedOps = false })},
		{"no validation", prof, with(func(p *Params) { p.NoValidation = true })},
		{"no hard branches", first(0), DefaultParams()},
		{"fewer hard branches than workers", first(3), DefaultParams()},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range cases {
		var want *TrainResult
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			got, err := Train(c.prof, c.params)
			if err != nil {
				t.Fatalf("%s at GOMAXPROCS %d: %v", c.name, procs, err)
			}
			got.Duration = 0
			if want == nil {
				want = got
				if len(c.prof.Hard) > 0 && (want.Trained == 0 || len(want.Hints) == 0) {
					t.Fatalf("%s: trained %d branches into %d hints", c.name, want.Trained, len(want.Hints))
				}
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: GOMAXPROCS %d trains %d branches into %d hints (%d evals), GOMAXPROCS 1 %d into %d (%d)",
					c.name, procs, got.Trained, len(got.Hints), got.FormulaEvals,
					want.Trained, len(want.Hints), want.FormulaEvals)
			}
		}
	}
}
