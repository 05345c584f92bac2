package pipeline

import (
	"testing"

	"github.com/whisper-sim/whisper/internal/bpu"
	"github.com/whisper-sim/whisper/internal/tage"
	"github.com/whisper-sim/whisper/internal/trace"
	"github.com/whisper-sim/whisper/internal/workload"
)

func app(t *testing.T) *workload.App {
	t.Helper()
	a := workload.DataCenterApp("mysql")
	if a == nil {
		t.Fatal("mysql app missing")
	}
	return a
}

func TestRunBasicAccounting(t *testing.T) {
	a := app(t)
	res := Run(a.Stream(0, 40000), tage.New(tage.DefaultConfig()), Options{Config: DefaultConfig()})
	if res.Records != 40000 {
		t.Fatalf("records %d", res.Records)
	}
	if res.Instrs <= res.Records {
		t.Fatal("instruction count implausible")
	}
	if res.Cycles != res.BaseCycles+res.SquashCycles+res.FrontendCycles {
		t.Fatal("cycle buckets do not sum")
	}
	if res.IPC() <= 0 || res.IPC() > 6 {
		t.Fatalf("IPC %v outside (0, width]", res.IPC())
	}
	if res.MPKI() <= 0 {
		t.Fatalf("MPKI %v", res.MPKI())
	}
}

func TestOracleRemovesSquashes(t *testing.T) {
	a := app(t)
	base := Run(a.Stream(0, 40000), tage.New(tage.DefaultConfig()), Options{Config: DefaultConfig()})
	ideal := Run(a.Stream(0, 40000), &bpu.Oracle{}, Options{Config: DefaultConfig()})
	if ideal.CondMisp != 0 {
		t.Fatalf("oracle mispredicted %d times", ideal.CondMisp)
	}
	if ideal.IPC() <= base.IPC() {
		t.Fatalf("ideal IPC %v not above baseline %v", ideal.IPC(), base.IPC())
	}
	// Direction squashes vanish; only target (return/indirect) squashes
	// may remain.
	if ideal.SquashCycles >= base.SquashCycles {
		t.Fatalf("squash cycles %d not reduced from %d", ideal.SquashCycles, base.SquashCycles)
	}
	// FDIP effect: fewer squashes expose fewer I-cache misses.
	if ideal.FrontendCycles >= base.FrontendCycles {
		t.Fatalf("frontend cycles %d not reduced from %d", ideal.FrontendCycles, base.FrontendCycles)
	}
}

func TestIdealSpeedupInPaperBand(t *testing.T) {
	// The paper's limit study (Fig 1): ideal direction prediction gains
	// 1.3%-26.4% IPC over 64KB TAGE-SC-L. Check our mysql lands inside a
	// generous version of that band.
	a := app(t)
	base := Run(a.Stream(0, 120000), tage.New(tage.DefaultConfig()), Options{Config: DefaultConfig()})
	ideal := Run(a.Stream(0, 120000), &bpu.Oracle{}, Options{Config: DefaultConfig()})
	speedup := ideal.IPC()/base.IPC() - 1
	if speedup < 0.01 || speedup > 0.60 {
		t.Fatalf("ideal speedup %.3f outside plausible band", speedup)
	}
	t.Logf("ideal speedup %.1f%%, baseline MPKI %.2f", speedup*100, base.MPKI())
}

func TestWarmupShrinksWindow(t *testing.T) {
	a := app(t)
	full := Run(a.Stream(0, 40000), tage.New(tage.DefaultConfig()), Options{Config: DefaultConfig()})
	half := Run(a.Stream(0, 40000), tage.New(tage.DefaultConfig()), Options{
		Config:        DefaultConfig(),
		WarmupRecords: 20000,
	})
	if half.Records != 20000 {
		t.Fatalf("measured records %d, want 20000", half.Records)
	}
	if half.Instrs >= full.Instrs {
		t.Fatal("warmup did not shrink measured instructions")
	}
	// A warm predictor mispredicts less per kilo-instruction.
	if half.MPKI() >= full.MPKI() {
		t.Fatalf("warm MPKI %v not below cold %v", half.MPKI(), full.MPKI())
	}
}

func TestHookSeesEveryRecord(t *testing.T) {
	a := app(t)
	n := uint64(0)
	hook := recordCounter{&n}
	res := Run(a.Stream(0, 5000), tage.New(tage.DefaultConfig()), Options{
		Config: DefaultConfig(),
		Hook:   hook,
	})
	if n != res.Records {
		t.Fatalf("hook saw %d of %d records", n, res.Records)
	}
}

type recordCounter struct{ n *uint64 }

func (r recordCounter) OnRecord(*trace.Record) { *r.n++ }

func TestZeroConfigDefaults(t *testing.T) {
	a := app(t)
	res := Run(a.Stream(0, 2000), tage.New(tage.DefaultConfig()), Options{})
	if res.Cycles == 0 {
		t.Fatal("zero-value options did not default")
	}
}

func TestMispRate(t *testing.T) {
	r := Result{CondExecs: 100, CondMisp: 5}
	if r.MispRate() != 0.05 {
		t.Fatalf("MispRate %v", r.MispRate())
	}
	empty := Result{}
	if empty.MispRate() != 0 || empty.IPC() != 0 || empty.MPKI() != 0 {
		t.Fatal("zero-value accessors")
	}
}
