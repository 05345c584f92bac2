package experiments

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"github.com/whisper-sim/whisper/internal/runner"
	"github.com/whisper-sim/whisper/internal/telemetry"
	"github.com/whisper-sim/whisper/internal/trace"
	"github.com/whisper-sim/whisper/internal/workload"
)

// tinyOptions keeps experiment tests fast: two contrasting apps, a small
// record budget.
func tinyOptions() Options {
	return Options{
		Records: 60000,
		Apps: []*workload.App{
			workload.DataCenterApp("mysql"),
			workload.DataCenterApp("kafka"),
		},
	}
}

func TestTableI(t *testing.T) {
	tb := TableI()
	if len(tb.Rows) != 12 {
		t.Fatalf("Table I has %d rows", len(tb.Rows))
	}
	s := tb.String()
	for _, want := range []string{"mysql", "TPC-C", "python", "pyperformance"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Table I missing %q", want)
		}
	}
}

func TestTableII(t *testing.T) {
	s := TableII().String()
	for _, want := range []string{"6-wide", "FTQ", "TAGE-SC-L", "BTB", "RAS"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Table II missing %q", want)
		}
	}
}

func TestTableIII(t *testing.T) {
	s := TableIII().String()
	for _, want := range []string{"Minimum history length", "8", "1024", "16", "Hint buffer"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Table III missing %q", want)
		}
	}
}

func TestFig1LimitStudy(t *testing.T) {
	r, err := Fig1(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Apps) != 2 {
		t.Fatalf("apps %v", r.Apps)
	}
	for i, app := range r.Apps {
		if r.Total[i] <= 0 {
			t.Fatalf("%s: ideal speedup %v not positive", app, r.Total[i])
		}
		if r.MispStall[i] <= 0 {
			t.Fatalf("%s: misprediction-stall component %v", app, r.MispStall[i])
		}
		if r.MispStall[i] < r.FrontendStall[i] {
			t.Fatalf("%s: frontend component exceeds misprediction component", app)
		}
		sum := r.MispStall[i] + r.FrontendStall[i]
		if sum < r.Total[i]*0.9 || sum > r.Total[i]*1.1 {
			t.Fatalf("%s: components %.4f do not sum to total %.4f", app, sum, r.Total[i])
		}
	}
	if !strings.Contains(r.Table().String(), "Avg") {
		t.Fatal("table missing Avg row")
	}
}

func TestFig2MPKIBand(t *testing.T) {
	r, err := Fig2(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	// mysql is a hard app, kafka an easy one; both must sit in a broad
	// version of the paper's 0.5-7.2 band and order correctly.
	if r.MPKI[0] <= r.MPKI[1] {
		t.Fatalf("mysql MPKI %v not above kafka %v", r.MPKI[0], r.MPKI[1])
	}
	for i, m := range r.MPKI {
		if m < 0.2 || m > 12 {
			t.Fatalf("%s MPKI %v outside plausible band", r.Apps[i], m)
		}
	}
}

func TestFig3CapacityDominant(t *testing.T) {
	opt := tinyOptions()
	opt.Apps = opt.Apps[:1] // mysql only; classification is the slow path
	r, err := Fig3(opt)
	if err != nil {
		t.Fatal(err)
	}
	f := r.Fractions[0]
	total := f[0] + f[1] + f[2] + f[3]
	if total < 0.99 || total > 1.01 {
		t.Fatalf("fractions sum %v", total)
	}
	// Capacity must dominate (paper Fig 3: 76.4% average).
	if f[1] < f[0] || f[1] < f[2] || f[1] < f[3] {
		t.Fatalf("capacity not dominant: %v", f)
	}
}

func TestFig5Concentration(t *testing.T) {
	opt := tinyOptions()
	opt.Apps = []*workload.App{
		workload.DataCenterApp("mysql"),
		workload.SpecApps()[0],
	}
	r, err := Fig5(opt)
	if err != nil {
		t.Fatal(err)
	}
	// SPEC-like top-50 share must exceed the data-center app's.
	if r.Top50Share[1] <= r.Top50Share[0] {
		t.Fatalf("spec top-50 %v not above DC %v", r.Top50Share[1], r.Top50Share[0])
	}
	for i := range r.Apps {
		n := r.NeededFor[i]
		if !(n[0] <= n[1] && n[1] <= n[2] && n[2] <= n[3]) {
			t.Fatalf("CDF points not monotone: %v", n)
		}
	}
}

func TestFig6LongHistoriesMatter(t *testing.T) {
	opt := tinyOptions()
	opt.Apps = opt.Apps[:1]
	r, err := Fig6(opt)
	if err != nil {
		t.Fatal(err)
	}
	shares := r.Shares[0]
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if sum < 0.99 || sum > 1.01 {
		t.Fatalf("shares sum %v", sum)
	}
	// Paper Fig 6: a large share of mispredictions requires history
	// beyond 32 branches (buckets 33-64 and up).
	beyond32 := 0.0
	for bi, b := range Fig6Buckets {
		if b.Min >= 33 {
			beyond32 += shares[bi]
		}
	}
	if beyond32 < 0.2 {
		t.Fatalf("only %v of mispredictions need >32 history", beyond32)
	}
}

func TestFig4PriorTechniquesModest(t *testing.T) {
	if testing.Short() {
		t.Skip("trains BranchNet variants")
	}
	opt := tinyOptions()
	opt.Apps = opt.Apps[:1] // mysql
	c, err := Fig4(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, tech := range PriorTechniques {
		if len(c.Reduction[tech]) != 1 {
			t.Fatalf("%s missing results", tech)
		}
	}
	// Prior techniques reduce something but far less than everything
	// (paper Fig 4: 3.4%-11.9%).
	if c.AvgReduction(Tech8bROMBF) <= -0.05 {
		t.Fatalf("8b-ROMBF reduction %v implausibly negative", c.AvgReduction(Tech8bROMBF))
	}
	if c.AvgReduction(Tech8bROMBF) > 0.5 {
		t.Fatalf("8b-ROMBF reduction %v implausibly high", c.AvgReduction(Tech8bROMBF))
	}
}

func TestFig12and13Ordering(t *testing.T) {
	if testing.Short() {
		t.Skip("full comparison is slow")
	}
	opt := tinyOptions()
	opt.Records = 250000    // enough profile mass per branch for stable hints
	opt.Apps = opt.Apps[:1] // mysql
	c, err := Fig12and13(opt)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's headline ordering: ideal >= MTAGE >= Whisper >= prior.
	ideal := c.AvgReduction(TechIdeal)
	mt := c.AvgReduction(TechMTAGE)
	wh := c.AvgReduction(TechWhisper)
	ro := c.AvgReduction(Tech8bROMBF)
	if ideal != 1 {
		t.Fatalf("ideal reduction %v, want 1", ideal)
	}
	if !(mt > wh) {
		t.Fatalf("MTAGE (%v) not above Whisper (%v)", mt, wh)
	}
	if !(wh > ro) {
		t.Fatalf("Whisper (%v) not above 8b-ROMBF (%v)", wh, ro)
	}
	if wh <= 0.05 {
		t.Fatalf("Whisper reduction %v too small", wh)
	}
	// Speedup ordering follows.
	if c.AvgSpeedup(TechWhisper) <= c.AvgSpeedup(Tech8bROMBF) {
		t.Fatalf("Whisper speedup %v not above ROMBF %v",
			c.AvgSpeedup(TechWhisper), c.AvgSpeedup(Tech8bROMBF))
	}
	// Training time recorded for all trained techniques.
	for _, tech := range []Technique{Tech4bROMBF, Tech8bROMBF, TechWhisper, TechBranchNetUnl} {
		if c.TrainTime[tech] <= 0 {
			t.Fatalf("%s train time missing", tech)
		}
	}
	// Tables render.
	for _, tb := range []string{
		c.ReductionTable("r").String(),
		c.SpeedupTable("s").String(),
		c.TrainTimeTable().String(),
	} {
		if !strings.Contains(tb, "Whisper") {
			t.Fatal("table missing Whisper column")
		}
	}
}

func TestFig7OperationMix(t *testing.T) {
	opt := tinyOptions()
	opt.Apps = opt.Apps[:1]
	r, err := Fig7(opt)
	if err != nil {
		t.Fatal(err)
	}
	shares := r.Shares[0]
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if sum < 0.99 || sum > 1.01 {
		t.Fatalf("shares sum to %v", sum)
	}
}

func TestFig15MoreExplorationMoreTime(t *testing.T) {
	opt := tinyOptions()
	opt.Apps = opt.Apps[:1]
	r, err := Fig15(opt, []float64{0.001, 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if r.Reduction[1] < r.Reduction[0]-0.02 {
		t.Fatalf("more exploration reduced less: %v", r.Reduction)
	}
	if r.TrainSeconds[1] <= r.TrainSeconds[0] {
		t.Fatalf("more exploration was not slower: %v", r.TrainSeconds)
	}
}

func TestFig19Overhead(t *testing.T) {
	opt := tinyOptions()
	r, err := Fig19(opt)
	if err != nil {
		t.Fatal(err)
	}
	for i, app := range r.Apps {
		if r.Static[i] < 0 || r.Static[i] > 0.5 {
			t.Fatalf("%s static overhead %v", app, r.Static[i])
		}
		if r.Dynamic[i] < 0 || r.Dynamic[i] > 0.5 {
			t.Fatalf("%s dynamic overhead %v", app, r.Dynamic[i])
		}
		if r.Placed[i] == 0 {
			t.Fatalf("%s placed no hints", app)
		}
	}
}

func TestFig21SmallerPredictorsMoreReduction(t *testing.T) {
	if testing.Short() {
		t.Skip("size sweep is slow")
	}
	opt := tinyOptions()
	opt.Apps = opt.Apps[:1]
	r, err := Fig21(opt, []int{8, 1024})
	if err != nil {
		t.Fatal(err)
	}
	// A smaller baseline leaves more mispredictions on the table; MPKI
	// must be higher at 8KB and Whisper must still help at 1MB (paper:
	// >10% at every size).
	if r.BaseMPKI[0] <= r.BaseMPKI[1] {
		t.Fatalf("8KB MPKI %v not above 1MB %v", r.BaseMPKI[0], r.BaseMPKI[1])
	}
	if r.Reduction[1] <= 0 {
		t.Fatalf("no reduction at 1MB: %v", r.Reduction)
	}
}

func TestFig22WarmupSweep(t *testing.T) {
	opt := tinyOptions()
	opt.Apps = opt.Apps[:1]
	r, err := Fig22(opt, []float64{0, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for i, red := range r.Reduction {
		if red <= 0 {
			t.Fatalf("reduction at warmup %v is %v", r.WarmupFracs[i], red)
		}
	}
}

func TestFig23WindowSweep(t *testing.T) {
	opt := tinyOptions()
	opt.Apps = opt.Apps[:1]
	r, err := Fig23(opt, []int{40000, 80000})
	if err != nil {
		t.Fatal(err)
	}
	for i, red := range r.Reduction {
		if red <= 0 {
			t.Fatalf("reduction at %d records is %v", r.Records[i], red)
		}
	}
}

// TestOptionsValidation: every app driver starts its units through one
// guard, so an app list that is nil or empty, or a record budget that
// is not positive, fails a per-app driver, the per-length Fig 23 and the
// app-pair transfer study alike, before any unit runs.
func TestOptionsValidation(t *testing.T) {
	apps := []*workload.App{workload.DataCenterApp("mysql")}
	for _, opt := range []Options{
		{Records: 1000},
		{Records: 1000, Apps: []*workload.App{}},
		{Apps: apps},
		{Records: -1, Apps: apps},
	} {
		mon := runner.NewMonitor(nil)
		opt.Monitor = mon
		if _, err := Fig2(opt); err == nil {
			t.Errorf("Fig 2 accepted %d apps, %d records", len(opt.Apps), opt.Records)
		}
		if _, err := Fig23(opt, nil); err == nil {
			t.Errorf("Fig 23 accepted %d apps, %d records", len(opt.Apps), opt.Records)
		}
		if _, err := RunTransfer(opt); err == nil {
			t.Errorf("the transfer study accepted %d apps, %d records", len(opt.Apps), opt.Records)
		}
		if done, total, _, _ := mon.Snapshot(); done != 0 || total != 0 {
			t.Errorf("%d apps, %d records: %d of %d units ran", len(opt.Apps), opt.Records, done, total)
		}
	}
}

func TestFig17SameInputAtLeastCross(t *testing.T) {
	if testing.Short() {
		t.Skip("trains Whisper per input")
	}
	opt := tinyOptions()
	opt.Records = 120000
	opt.Apps = opt.Apps[:1]
	r, err := Fig17(opt, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	cross, same := r.CrossInput[0][0], r.SameInput[0][0]
	// Same-input profiles must not be meaningfully worse than
	// cross-input ones (paper: +6.6% better on average).
	if same < cross-0.05 {
		t.Fatalf("same-input %v far below cross-input %v", same, cross)
	}
	if !strings.Contains(r.Table().String(), "#1") {
		t.Fatal("table missing input label")
	}
}

func TestFig18MergingHelps(t *testing.T) {
	if testing.Short() {
		t.Skip("merges multiple profiles")
	}
	opt := tinyOptions()
	opt.Records = 80000
	opt.Apps = opt.Apps[:1]
	r, err := Fig18(opt, 2)
	if err != nil {
		t.Fatal(err)
	}
	wh := r.Reduction[TechWhisper]
	if len(wh) != 2 {
		t.Fatalf("input counts %v", r.InputCounts)
	}
	// Merging a second input's profile must not collapse the reduction.
	if wh[1] < wh[0]-0.05 {
		t.Fatalf("merged profile much worse: %v", wh)
	}
	// Whisper beats 8b-ROMBF at every merge level.
	for i := range wh {
		if wh[i] <= r.Reduction[Tech8bROMBF][i] {
			t.Fatalf("whisper %v not above rombf %v at %d inputs",
				wh[i], r.Reduction[Tech8bROMBF][i], r.InputCounts[i])
		}
	}
}

func TestFig20LargerBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds whisper against 128KB baseline")
	}
	opt := tinyOptions()
	opt.Records = 120000
	opt.Apps = opt.Apps[:1]
	r, err := Fig20(opt)
	if err != nil {
		t.Fatal(err)
	}
	if r.Reduction[0] <= 0 {
		t.Fatalf("no reduction over 128KB baseline: %v", r.Reduction)
	}
	if r.BaseMPKI[0] <= 0 {
		t.Fatal("baseline MPKI missing")
	}
}

func TestFig14AblationContributions(t *testing.T) {
	if testing.Short() {
		t.Skip("trains three whisper variants")
	}
	opt := tinyOptions()
	opt.Records = 120000
	opt.Apps = opt.Apps[:1]
	r, err := Fig14(opt)
	if err != nil {
		t.Fatal(err)
	}
	// Hashed history correlation is the larger contribution (paper:
	// 6.4% vs 1.5%); at minimum it must be positive.
	if r.HashedHistory[0] <= 0 {
		t.Fatalf("hashed-history contribution %v not positive", r.HashedHistory[0])
	}
}

func TestBufferSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps buffer sizes")
	}
	opt := tinyOptions()
	opt.Records = 100000
	opt.Apps = opt.Apps[:1]
	r, err := BufferSweep(opt, []int{1, 32})
	if err != nil {
		t.Fatal(err)
	}
	// The 32-entry default must not be meaningfully worse than 1 entry,
	// and the hit rate must not decrease with capacity.
	if r.Reduction[1] < r.Reduction[0]-0.02 {
		t.Fatalf("32-entry buffer worse: %v", r.Reduction)
	}
	if r.HitRate[1] < r.HitRate[0] {
		t.Fatalf("hit rate decreased with capacity: %v", r.HitRate)
	}
}

func TestAblationsPoliciesHelp(t *testing.T) {
	if testing.Short() {
		t.Skip("builds three whisper variants")
	}
	opt := tinyOptions()
	opt.Records = 120000
	opt.Apps = opt.Apps[:1]
	r, err := Ablations(opt)
	if err != nil {
		t.Fatal(err)
	}
	// The validation split exists to protect cross-input robustness: the
	// full design must not be meaningfully worse than the ablations, and
	// all three must be recorded.
	if len(r.Full) != 1 || len(r.NoSuppression) != 1 || len(r.NoValidation) != 1 {
		t.Fatal("missing ablation results")
	}
	if r.Full[0] <= 0 {
		t.Fatalf("full design reduction %v", r.Full[0])
	}
	if !strings.Contains(r.Table().String(), "no-validation-split") {
		t.Fatal("ablation table incomplete")
	}
}

// TestUnitsCreditEveryMeasuredWindow locks the credit rule: a unit
// credits the records and instructions of every window it measured,
// memoized baselines included, counting a record's instructions plus
// the branch itself (as Profile.Instrs does). Per app, Figs 3, 5 and 6
// each pass once over the whole train window, Fig 14 measures the test
// window four times (the baseline, 8b-ROMBF and two Whisper variants)
// and each Fig 15 point twice (the baseline and Whisper). Fig 23's
// profiling unit credits the longest train window it profiled, and
// at one length its baseline and build units one test window each. The
// journal's unit lines must say so.
func TestUnitsCreditEveryMeasuredWindow(t *testing.T) {
	const records = 10000
	var journal bytes.Buffer
	mon := runner.NewMonitor(nil)
	mon.AttachJournal(telemetry.NewJournal(&journal))
	app := workload.DataCenterApp("mysql")
	opt := Options{
		Records:     records,
		Apps:        []*workload.App{app},
		Parallelism: 1,
		Monitor:     mon,
	}
	for _, fig := range []func(Options) error{
		func(o Options) error { _, err := Fig3(o); return err },
		func(o Options) error { _, err := Fig5(o); return err },
		func(o Options) error { _, err := Fig6(o); return err },
		func(o Options) error { _, err := Fig14(o); return err },
		func(o Options) error { _, err := Fig15(o, []float64{0.01, 0.05}); return err },
		func(o Options) error { _, err := Fig23(o, []int{records}); return err },
	} {
		if err := fig(opt); err != nil {
			t.Fatal(err)
		}
	}

	type unit struct {
		Type, Label     string
		Instrs, Records uint64
	}
	units := map[string]unit{}
	for _, line := range strings.Split(strings.TrimSpace(journal.String()), "\n") {
		var u unit
		if err := json.Unmarshal([]byte(line), &u); err != nil {
			t.Fatalf("journal line %q: %v", line, err)
		}
		if u.Type == "unit" {
			units[u.Label] = u
		}
	}
	var trainInstrs uint64
	s := appWindow(app, trainInput, records).Open()
	for rec := (trace.Record{}); s.Next(&rec); {
		trainInstrs += uint64(rec.Instrs) + 1
	}
	measured := uint64(records) - warmup(records)
	perWindow := units["fig15@0.01/mysql"].Instrs / 2
	want := map[string]unit{
		"fig3/mysql":           {Records: records, Instrs: trainInstrs},
		"fig5/mysql":           {Records: records, Instrs: trainInstrs},
		"fig6/mysql":           {Records: records, Instrs: trainInstrs},
		"fig14/mysql":          {Records: 4 * measured, Instrs: 4 * perWindow},
		"fig15@0.01/mysql":     {Records: 2 * measured, Instrs: 2 * perWindow},
		"fig15@0.05/mysql":     {Records: 2 * measured, Instrs: 2 * perWindow},
		"fig23/profile/mysql":  {Records: records, Instrs: trainInstrs},
		"fig23/baseline/mysql": {Records: measured, Instrs: perWindow},
		"fig23@10000/mysql":    {Records: measured, Instrs: perWindow},
	}
	if len(units) != len(want) {
		t.Fatalf("journal units %v, want %v", units, want)
	}
	for label, w := range want {
		u, ok := units[label]
		if !ok {
			t.Fatalf("no journal line for unit %s", label)
		}
		if u.Records != w.Records || u.Instrs != w.Instrs {
			t.Errorf("%s credits %d records and %d instrs, want %d and %d",
				label, u.Records, u.Instrs, w.Records, w.Instrs)
		}
	}
}
