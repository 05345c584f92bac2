package pipeline

import (
	"reflect"
	"testing"

	"github.com/whisper-sim/whisper/internal/attrib"
	"github.com/whisper-sim/whisper/internal/tage"
	"github.com/whisper-sim/whisper/internal/trace"
	"github.com/whisper-sim/whisper/internal/workload"
)

// attribState flattens a collector for equality comparison.
type attribState struct {
	Rows        []attrib.Row
	Overflow    attrib.Branch
	OverflowPCs uint64
	Execs, Misp uint64
}

func stateOf(c *attrib.Collector) attribState {
	return attribState{
		Rows:        c.Ranked(),
		Overflow:    c.Overflow,
		OverflowPCs: c.OverflowPCs,
		Execs:       c.CondExecs,
		Misp:        c.CondMisp,
	}
}

// TestAttribIdenticalAcrossEngines is the attribution determinism lock:
// the scalar and batched engines must feed the collector the exact same
// observation stream — same per-branch counts, same totals — at every
// block size, with and without warmup. Reports built from these
// collectors are then byte-identical by construction.
func TestAttribIdenticalAcrossEngines(t *testing.T) {
	app := workload.DataCenterApp("mysql")
	if app == nil {
		t.Fatal("app mysql missing")
	}
	const records = 12000
	mk := func() *tage.TageSCL { return tage.New(tage.Config{SizeKB: 8}) }

	for _, warmup := range []uint64{0, 3000} {
		ref := attrib.NewCollector(0)
		refRes := RunScalar(app.Stream(0, records), mk(), Options{
			Config: DefaultConfig(), WarmupRecords: warmup, Attrib: ref,
		})
		want := stateOf(ref)
		if ref.CondExecs != refRes.CondExecs || ref.CondMisp != refRes.CondMisp {
			t.Fatalf("warmup=%d: collector totals %d/%d != result %d/%d",
				warmup, ref.CondExecs, ref.CondMisp, refRes.CondExecs, refRes.CondMisp)
		}

		for _, bs := range []int{1, 7, 512, trace.DefaultBlockSize} {
			c := attrib.NewCollector(0)
			Run(app.Stream(0, records), mk(), Options{
				Config: DefaultConfig(), WarmupRecords: warmup, BlockSize: bs, Attrib: c,
			})
			if got := stateOf(c); !reflect.DeepEqual(got, want) {
				t.Errorf("warmup=%d block=%d: batched attribution diverged", warmup, bs)
			}
		}
	}
}

// TestAttribNilCollectorUnchangedResult pins that threading a nil
// collector through both engines changes nothing.
func TestAttribNilCollectorUnchangedResult(t *testing.T) {
	recs := randomRecords(17, 20000)
	mk := func() *tage.TageSCL { return tage.New(tage.Config{SizeKB: 8}) }
	want := RunScalar(trace.NewSliceStream(recs), mk(), Options{Config: DefaultConfig()})
	for _, opt := range []Options{
		{Config: DefaultConfig(), BlockSize: -1},
		{Config: DefaultConfig()},
	} {
		if got := Run(trace.NewSliceStream(recs), mk(), opt); got != want {
			t.Errorf("opt %+v: result with nil collector %+v != %+v", opt, got, want)
		}
	}
}

// TestAttribMatchesResultCounters cross-checks the collector against the
// engine's own accounting on a randomized trace with warmup.
func TestAttribMatchesResultCounters(t *testing.T) {
	recs := randomRecords(23, 25000)
	c := attrib.NewCollector(0)
	res := Run(trace.NewSliceStream(recs), tage.New(tage.Config{SizeKB: 8}), Options{
		Config: DefaultConfig(), WarmupRecords: 5000, Attrib: c,
	})
	if c.CondExecs != res.CondExecs || c.CondMisp != res.CondMisp {
		t.Fatalf("collector %d/%d != result %d/%d", c.CondExecs, c.CondMisp, res.CondExecs, res.CondMisp)
	}
	var taken uint64
	for _, r := range c.Ranked() {
		taken += r.Taken
	}
	if taken == 0 || taken > c.CondExecs {
		t.Fatalf("taken accounting out of range: %d of %d", taken, c.CondExecs)
	}
}
