package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/whisper-sim/whisper"
	"github.com/whisper-sim/whisper/internal/pipeline"
)

var update = flag.Bool("update", false, "regenerate testdata/references.json and testdata/suite-tiny.txt")

// binDir holds the whisper and experiments binaries built for the tests.
var binDir string

func TestMain(m *testing.M) {
	flag.Parse()
	dir, err := os.MkdirTemp("", "benchmark-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	binDir = filepath.Join(dir, "bin")
	code := 0
	for _, pkg := range []string{"whisper", "experiments"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(binDir, pkg), "github.com/whisper-sim/whisper/cmd/"+pkg)
		if out, err := cmd.CombinedOutput(); err != nil {
			fmt.Fprintf(os.Stderr, "building %s: %v\n%s", pkg, err, out)
			code = 1
		}
	}
	if code == 0 {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// testEnv is an env over the test binaries with a private work dir.
func testEnv(t *testing.T, seed int64, seconds time.Duration, traced bool) *env {
	t.Helper()
	out := t.TempDir()
	if err := os.Symlink(binDir, filepath.Join(out, "bin")); err != nil {
		t.Fatal(err)
	}
	e, err := newEnv(context.Background(), out, t.Name(), seed, seconds, traced, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestTailPicksHighestPercentileWithTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending, so tail must sort
		}
		return xs
	}
	for _, c := range []struct {
		n        int
		pct, val float64
	}{
		{10000, 99.9, 9990},
		{1000, 99, 990},
		{999, 90, 900}, // 999 × 1% < 10 samples beyond p99
		{100, 90, 90},
		{20, 50, 10.5}, // no tail percentile has 10 beyond: the median
		{3, 50, 2},
	} {
		pct, v, n := tail(seq(c.n))
		if pct != c.pct || v != c.val || n != c.n {
			t.Errorf("tail(1..%d) = p%v %v n=%d, want p%v %v n=%d", c.n, pct, v, n, c.pct, c.val, c.n)
		}
	}
}

// TestDriveTimesFromDueTime sends a schedule to a handler whose first
// request stalls: the requests due during the stall go out late, their
// latency counts the stall from their due time, and none of it is
// counted as the generator's own lateness.
func TestDriveTimesFromDueTime(t *testing.T) {
	const stall = 300 * time.Millisecond
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(stall)
		}
		w.Header().Set("X-Whisper-Bundle-Version", "1")
		w.WriteHeader(http.StatusNotModified)
	}))
	defer srv.Close()
	c := newClient()
	defer c.CloseIdleConnections()

	reqs := make([]request, 5)
	for i := range reqs {
		reqs[i].due = time.Duration(i) * 50 * time.Millisecond
	}
	drive(context.Background(), time.Now(), reqs, func(q *request) { get(c, srv.URL, q, "x") })

	for i, q := range reqs {
		if !q.ok() {
			t.Fatalf("request %d: status %d, %v", i, q.status, q.err)
		}
		if late := q.sent - q.ready; late > 20*time.Millisecond {
			t.Errorf("request %d: generator lateness %v, want the stall excluded", i, late)
		}
	}
	// Request 1 was due 50ms in but could only go out after the stall.
	if got, waited := reqs[1].latency(), reqs[0].done-reqs[1].due; got < waited || waited < stall-100*time.Millisecond {
		t.Errorf("request 1 latency %v: the %v wait behind the stall must count from its due time", got, waited)
	}
	if got := reqs[1].done - reqs[1].sent; got > 50*time.Millisecond {
		t.Errorf("request 1 service time %v, want it fast once sent", got)
	}
	if reqs[1].ready != reqs[0].done {
		t.Errorf("request 1 ready at %v, want the end of request 0 (%v)", reqs[1].ready, reqs[0].done)
	}
}

func TestMaskSuiteHidesWallClockOnly(t *testing.T) {
	run := func(fig15, fig16, completed, reduction string) string {
		return "Table I: apps\nmysql  6\n\n" +
			"Fig 15: randomized formula testing sweep\n" +
			"% formulas explored  avg misprediction reduction %  avg training time (s)\n" +
			"-------------------------------------------------------------------------\n" +
			"5.0                  " + reduction + "                            " + fig15 + "\n\n" +
			"[fig15 completed in " + completed + "]\n\n" +
			"Fig 16: offline training time (seconds, all apps)\n" +
			"technique            seconds\n" +
			"----------------------------\n" +
			"Whisper              " + fig16 + "\n\n"
	}
	a := run("0.338", "1.013", "2.451s", "1.5")
	b := run("0.401", "0.987", "3.1s", "1.5")
	if maskSuite(a) != maskSuite(b) {
		t.Errorf("runs differing only in wall-clock columns mask differently:\n%s\n---\n%s", maskSuite(a), maskSuite(b))
	}
	if c := run("0.338", "1.013", "2.451s", "1.6"); maskSuite(a) == maskSuite(c) {
		t.Error("a changed reduction column was masked away")
	}
	if strings.Contains(maskSuite(a), "completed in") || !strings.Contains(maskSuite(a), "mysql  6") {
		t.Errorf("mask dropped the wrong lines:\n%s", maskSuite(a))
	}
}

// TestMetricsMatchBenchmarkJSON checks the metric names and caps, and
// that the code reports exactly the metrics BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, caps are 16 and 128", len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !valid.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is invalid or repeated", d.Name)
		}
		seen[d.Name] = true
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(bj.EndToEnd) != fmt.Sprint(endToEnd) || fmt.Sprint(bj.PerLayer) != fmt.Sprint(perLayer) {
		t.Errorf("BENCHMARK.json metrics differ from the code's:\n%v\n%v\nvs\n%v\n%v", bj.EndToEnd, bj.PerLayer, endToEnd, perLayer)
	}
	var names, want []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	for _, w := range workloads() {
		want = append(want, w.name)
	}
	sort.Strings(names)
	sort.Strings(want)
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Errorf("BENCHMARK.json workloads %v, code registers %v", names, want)
	}
}

// TestReplayResultEqualsReal is the Phase B contract: pipeline.Run over
// the replayed predictions produces the real run's Result exactly.
func TestReplayResultEqualsReal(t *testing.T) {
	e := testEnv(t, 1, time.Second, false)
	app := whisper.AppByName("mysql")
	in := flowInput{app: app, train: 0, eval: 1, records: 30_000}
	opt := pipeline.Options{Config: pipeline.DefaultConfig(), WarmupRecords: 9_000}
	want := pipeline.Run(app.Stream(1, in.records), whisper.NewTageSCL(64), opt)
	m := map[string]float64{"pipeline.batched_ns_per_rec": 1}
	measurePhases(e, 0, in, opt, want, m)
	if len(e.problems) > 0 {
		t.Fatal(e.problems)
	}
	if want.CondMisp == 0 || m["pipeline.phase_a_ns_per_rec"] <= 0 || m["pipeline.phase_b_ns_per_rec"] <= 0 {
		t.Errorf("degenerate measurement: %+v %v", want, m)
	}
	// A wrong replay is caught.
	want.CondMisp++
	measurePhases(e, 0, in, opt, want, m)
	if len(e.problems) != 1 {
		t.Errorf("a differing Result was not reported: %v", e.problems)
	}
}

func TestSelfTimesSubtractChildren(t *testing.T) {
	r := newRecorder()
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	r.spans = []span{
		{Name: "flow", Start: at(0), Dur: 100 * time.Millisecond},
		{Name: "a", Start: at(10), Dur: 30 * time.Millisecond, Parent: 1},
		{Name: "b", Start: at(30), Dur: 20 * time.Millisecond, Parent: 1}, // overlaps a by 10ms
		{Name: "c", Start: at(35), Dur: 5 * time.Millisecond, Parent: 3},
	}
	got := r.selfTimes(0)
	want := map[string]time.Duration{"flow": 60 * time.Millisecond, "a": 30 * time.Millisecond, "b": 15 * time.Millisecond, "c": 5 * time.Millisecond}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

func TestUnknownNamesExitTwo(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-workload", "nope"}, &out, &errb); code != 2 || out.Len() != 0 {
		t.Errorf("unknown workload: exit %d, stdout %q", code, out.String())
	}
	e := testEnv(t, 1, time.Second, false)
	for _, w := range []func(*env) error{
		oneshot{app: "nope"}.run,
		suite{apps: []string{"nope"}}.run,
		serve{apps: []string{"nope"}}.run,
	} {
		if err := w(e); err == nil || !strings.Contains(err.Error(), "usage") {
			t.Errorf("unknown app: %v, want a usage error", err)
		}
	}
}

// TestWorkloadsAtToySize runs every workload, untraced and traced, at
// toy size and checks that it reports every metric and passes its checks.
func TestWorkloadsAtToySize(t *testing.T) {
	toy := map[string]func(*env) error{
		"oneshot": oneshot{app: "kafka", records: 20_000, setupRecords: 5_000, setups: 1, minFlows: 2, slo: time.Minute}.run,
		"suite":   suite{apps: []string{"kafka"}, records: 2_000, workers: 2, setups: 1, slo: time.Minute, probeReps: 1}.run,
		"serve": serve{switchEvery: []int{1, 0}, shardRecords: 4_000, postRate: 20, getRate: 100,
			apps: []string{"kafka", "mysql"}, setups: 1, postSLO: time.Second, getSLO: time.Second}.run,
	}
	for name, w := range toy {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/traced=%v", name, traced), func(t *testing.T) {
				e := testEnv(t, 3, time.Second, traced)
				if err := e.measure(w); err != nil {
					t.Fatal(err)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				res := e.result(defs)
				if !res.Correct || res.Attempted == 0 {
					t.Fatalf("not correct (%d/%d failed): %v", res.Failed, res.Attempted, e.problems)
				}
				if !traced {
					for _, d := range endToEnd {
						if res.Metrics[d.Name].Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, res.Metrics[d.Name].Value)
						}
					}
				}
				if traced {
					path := filepath.Join(e.work, "trace.json")
					if err := e.spans.writeChrome(path); err != nil {
						t.Fatal(err)
					}
					var doc struct{ TraceEvents []map[string]any }
					data, _ := os.ReadFile(path)
					if err := json.Unmarshal(data, &doc); err != nil || len(doc.TraceEvents) == 0 {
						t.Errorf("Chrome trace: %d events, %v", len(doc.TraceEvents), err)
					}
				}
			})
		}
	}
}

// TestUpdateReferences regenerates the committed output references:
//
//	go test -run TestUpdateReferences -update -timeout 30m
//
// oneshot digests for every input pair of both apps, the serve
// workload's (version, ETag) sequences for seeds 1-3 at 25 s, and the
// suite's masked stdout.
func TestUpdateReferences(t *testing.T) {
	if !*update {
		t.Skip("run with -update to regenerate the references")
	}
	saved := references
	references = map[string]string{}
	defer func() { references = saved }()
	refs := map[string]string{}
	for _, o := range []oneshot{defaultOneshotTrain(), defaultOneshotSim()} {
		app := whisper.AppByName(o.app)
		for tr := 0; tr < app.Inputs(); tr++ {
			ev := (tr + 1) % app.Inputs()
			b, err := whisper.Optimize(app, whisper.WithRecords(o.records), whisper.WithTrainInput(tr))
			if err != nil {
				t.Fatal(err)
			}
			d, err := flowDigest(b.Train, b.Evaluate(ev, 0))
			if err != nil {
				t.Fatal(err)
			}
			refs[o.flowKey(tr, ev)] = d
		}
	}
	for seed := int64(1); seed <= 3; seed++ {
		e := testEnv(t, seed, 25*time.Second, false)
		if err := defaultServe().run(e); err != nil || len(e.problems) > 0 {
			t.Fatalf("serve seed %d: %v %v", seed, err, e.problems)
		}
		for k, v := range e.seen {
			refs[k] = v
		}
	}
	data, err := json.MarshalIndent(refs, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("testdata/references.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}

	s := defaultSuite()
	c, err := startChild(context.Background(), filepath.Join(binDir, "experiments"), s.flags()...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.wait(childLimit); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("testdata/suite-tiny.txt", []byte(maskSuite(c.stdout.String())), 0o644); err != nil {
		t.Fatal(err)
	}
}
