package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/whisper-sim/whisper"
	"github.com/whisper-sim/whisper/internal/telemetry"
)

// suite is the paper-reproduction suite: one child run of the
// experiments binary over every table and figure for a few apps. Its
// input is the workload catalog, so it is seed-invariant.
type suite struct {
	apps    []string
	records int
	workers int
	// setups is how many set-up runs (-only table1) a run times.
	setups int
	// slo is the latency limit a suite run must meet.
	slo time.Duration
	// reference is a correct run's masked stdout ("" compares runs of
	// one benchmark run with each other only).
	reference string
	// probeReps is how many layer flows per app the traced run probes.
	probeReps int
}

// defaultSuite is the tiny scale over mysql and kafka (the apps of the
// repository's golden suite test) at 10k records: the only workload that
// runs the experiments runner's across-run parallelism, its baseline
// memo, and the MTAGE-SC, perceptron, BranchNet and ROMBF predictors. A
// run takes 7–12 s, so two or three fit in a 25 s measurement.
func defaultSuite() suite {
	return suite{
		apps: []string{"mysql", "kafka"}, records: 10_000, workers: 2,
		setups: 5, slo: 60 * time.Second, reference: suiteReference, probeReps: 2,
	}
}

// flags are the experiments flags of every suite run.
func (s suite) flags() []string {
	return []string{
		"-scale", "tiny", "-apps", strings.Join(s.apps, ","), "-records", strconv.Itoa(s.records),
		"-j", strconv.Itoa(s.workers), "-no-cache",
	}
}

// childLimit bounds one experiments run.
const childLimit = 150 * time.Second

func (s suite) run(e *env) error {
	for _, a := range s.apps {
		if whisper.AppByName(a) == nil {
			return fmt.Errorf("%w: unknown app %q", errUsage, a)
		}
	}
	e.note("seed_invariant", 1)
	bin := filepath.Join(e.bin, "experiments")

	// Set-up: the same command limited to Table I (the catalog), timed
	// several times; the median is setup_s.
	var setups []float64
	for i := 0; i < s.setups; i++ {
		c, err := startChild(e.ctx, bin, append(s.flags(), "-only", "table1")...)
		if err != nil {
			return err
		}
		d, err := c.wait(childLimit)
		if err != nil || !strings.Contains(c.stdout.String(), "Table I") {
			return fmt.Errorf("set-up run: %v: %s", err, lastLines(c.stderr.String(), 5))
		}
		setups = append(setups, d.Seconds())
		e.sampleHost()
	}
	e.set("setup_s", median(setups))
	if e.traced {
		return s.runTraced(e, bin)
	}

	start := time.Now()
	var walls, rss, cpu []float64
	met := 0
	for k := 0; k < 1 || time.Since(start).Seconds()+median(walls) <= e.seconds.Seconds(); k++ {
		if err := e.ctx.Err(); err != nil {
			return err
		}
		c, d, ok := s.suiteRun(e, bin)
		e.sampleHost()
		if !ok {
			continue
		}
		walls = append(walls, d.Seconds())
		rss = append(rss, maxRSSMB(c.rusage()))
		cpu = append(cpu, cpuSeconds(c.rusage())/d.Seconds())
		if d <= s.slo {
			met++
		}
	}
	e.set("result_s", median(walls))
	e.set("request_p50_ms", median(walls)*1000)
	e.set("slo_frac", ratio(float64(met), float64(e.attempted)))
	e.set("max_rss_mb", median(rss))
	e.note("suites", float64(len(walls)))
	e.note("cpu_frac", median(cpu))
	return nil
}

// suiteRun runs the suite once and checks its output; extra flags turn
// on the program's own tracing.
func (s suite) suiteRun(e *env, bin string, extra ...string) (*child, time.Duration, bool) {
	c, err := startChild(e.ctx, bin, append(s.flags(), extra...)...)
	if err != nil {
		e.op(false)
		e.fail("%v", err)
		return nil, 0, false
	}
	d, err := c.wait(childLimit)
	e.op(err == nil)
	if err != nil {
		e.fail("suite run: %v: %s", err, lastLines(c.stderr.String(), 5))
		return nil, 0, false
	}
	s.checkOutput(e, c.stdout.String())
	return c, d, true
}

// checkOutput compares a suite run's masked stdout with the reference
// and with the run's other suite runs.
func (s suite) checkOutput(e *env, stdout string) {
	masked := maskSuite(stdout)
	e.expect("suite/"+strings.Join(s.flags(), " "), digestString(masked))
	if s.reference != "" && masked != s.reference {
		e.fail("suite stdout differs from testdata/suite-tiny.txt after masking")
	}
}

// baselineCacheLine is the -timing summary of the baseline memo.
var baselineCacheLine = regexp.MustCompile(`baseline cache: (\d+) hits, (\d+) misses`)

// runTraced runs the suite untraced and then with the program's journal,
// Chrome trace, -timing summary and debug endpoint on, and probes the
// suite apps layer by layer.
func (s suite) runTraced(e *env, bin string) error {
	_, d0, ok := s.suiteRun(e, bin)
	if !ok {
		return fmt.Errorf("untraced suite run failed")
	}
	journal := filepath.Join(e.work, "suite.jsonl")
	chrome := filepath.Join(e.work, "suite-chrome.json")
	c, err := startChild(e.ctx, bin, append(s.flags(), "-journal", journal, "-chrome-trace", chrome,
		"-timing", "-debug-addr", "127.0.0.1:0")...)
	if err != nil {
		return err
	}
	mem := pollMemStats(c)
	d, err := c.wait(childLimit)
	ms := mem()
	e.op(err == nil)
	if err != nil {
		return fmt.Errorf("traced suite run: %v: %s", err, lastLines(c.stderr.String(), 5))
	}
	s.checkOutput(e, c.stdout.String())
	if err := e.spans.addChildTrace(chrome, c.start, "experiments"); err != nil {
		e.fail("reading the suite's Chrome trace: %v", err)
	}
	snap, err := journalSnapshot(journal)
	if err != nil {
		e.fail("suite journal: %v", err)
	}

	profileS, trainS := phaseSum(snap, "profile"), phaseSum(snap, "train")
	unitWall := snapNumber(snap, "whisper_runner_unit_wall_ns_total") / 1e9
	e.set("phase.profile_s", profileS)
	e.set("phase.train_s", trainS)
	reconcile(e, "layers.reconcile_ratio", ratio(profileS+trainS+phaseSum(snap, "simulate"), unitWall))
	e.set("runner.units", snapNumber(snap, "whisper_runner_units_completed_total"))
	e.set("runner.concurrency", ratio(unitWall, d.Seconds()))
	hitRatio := 0.0
	if m := baselineCacheLine.FindStringSubmatch(c.stderr.String()); m != nil {
		hits, _ := strconv.Atoi(m[1])
		misses, _ := strconv.Atoi(m[2])
		hitRatio = ratio(float64(hits), float64(hits+misses))
	} else {
		e.fail("suite -timing printed no baseline cache line")
	}
	e.set("experiments.baseline_hit_ratio", hitRatio)
	e.set("trace.overhead_frac", d.Seconds()/d0.Seconds()-1)
	setRequests(e, []float64{d0.Seconds()})
	e.set("go.alloc_mb", float64(ms.TotalAlloc)/1e6)
	e.set("gc.cycles", float64(ms.NumGC))
	e.set("gc.cpu_frac", ms.GCCPUFraction)
	e.set("proc.cpu_frac", cpuSeconds(c.rusage())/d.Seconds())
	setZero(e, serverMetrics...)

	var probes []map[string]float64
	for rep := 0; rep < s.probeReps; rep++ {
		for i, a := range s.apps {
			app := whisper.AppByName(a)
			tr := seedMod(e.seed, rep+i, app.Inputs())
			lf, err := runLayerFlow(e, 0, flowInput{app: app, train: tr, eval: (tr + 1) % app.Inputs(), records: s.records})
			e.op(err == nil)
			if err != nil {
				return err
			}
			probes = append(probes, lf.metrics)
		}
	}
	for k, v := range probeMedians(probes) {
		e.set(k, v)
	}
	reconcile(e, "pipeline.reconcile_ratio", e.metrics["pipeline.reconcile_ratio"])
	return nil
}

// pollMemStats polls a child's debug endpoint (announced on stderr)
// until it exits; the returned function waits for the poller and yields
// the last reading.
func pollMemStats(c *child) func() memStats {
	var (
		wg   sync.WaitGroup
		last memStats
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		addr, err := c.announced(c.stderr, "debug endpoint: http://", 30*time.Second)
		if err != nil {
			return
		}
		addr = strings.TrimSuffix(addr, "/metrics")
		client := &http.Client{Timeout: time.Second}
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			if ms, err := getMemStats(client, addr); err == nil {
				last = ms
			}
			select {
			case <-c.exited:
				return
			case <-tick.C:
			}
		}
	}()
	return func() memStats {
		wg.Wait()
		return last
	}
}

// journalSnapshot validates a run journal and returns its final
// snapshot's metrics.
func journalSnapshot(path string) (map[string]any, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if _, err := telemetry.ValidateJournal(f); err != nil {
		return nil, err
	}
	if _, err := f.Seek(0, 0); err != nil {
		return nil, err
	}
	var last string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		last = sc.Text()
	}
	var line struct {
		Metrics map[string]any `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(last), &line); err != nil {
		return nil, err
	}
	return line.Metrics, sc.Err()
}

// snapNumber is a counter or gauge in a snapshot.
func snapNumber(snap map[string]any, name string) float64 {
	v, _ := snap[name].(float64)
	return v
}
