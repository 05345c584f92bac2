package telemetry

import (
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// swap installs r for the test and restores the previous default.
func swap(t *testing.T, r *Registry) *Registry {
	t.Helper()
	prev := Default()
	Install(r)
	t.Cleanup(func() { Install(prev) })
	return r
}

func TestCounterNilAndValue(t *testing.T) {
	var nilC *Counter
	nilC.Add(7) // must not panic
	nilC.Inc()
	if got := nilC.Value(); got != 0 {
		t.Fatalf("nil counter value = %d", got)
	}
	c := NewCounter()
	c.Add(3)
	c.Inc()
	if got := c.Value(); got != 4 {
		t.Fatalf("counter value = %d, want 4", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	c := NewCounter()
	const goroutines, per = 16, 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*per {
		t.Fatalf("concurrent counter = %d, want %d", got, goroutines*per)
	}
}

func TestGauge(t *testing.T) {
	var nilG *Gauge
	nilG.Set(4)
	nilG.Add(-1)
	if nilG.Value() != 0 {
		t.Fatal("nil gauge not zero")
	}
	g := NewGauge()
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	var nilH *Histogram
	nilH.Observe(9)
	if nilH.Count() != 0 || nilH.Sum() != 0 {
		t.Fatal("nil histogram not empty")
	}
	h := NewHistogram()
	for _, v := range []uint64{0, 1, 2, 3, 1000} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("count = %d, want 5", got)
	}
	if got := h.Sum(); got != 1006 {
		t.Fatalf("sum = %d, want 1006", got)
	}
	if h.buckets[0].Load() != 1 { // v == 0
		t.Fatal("zero bucket miscounted")
	}
	if h.buckets[2].Load() != 2 { // v in [2,3]
		t.Fatal("bucket [2,3] miscounted")
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("same name returned distinct counters")
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Fatal("same name returned distinct gauges")
	}
	if r.Histogram("h") != r.Histogram("h") {
		t.Fatal("same name returned distinct histograms")
	}
	own := NewCounter()
	own.Add(5)
	r.SetCounter("a", own)
	if r.Counter("a").Value() != 5 {
		t.Fatal("SetCounter did not replace the registration")
	}
}

func TestNilRegistryLookups(t *testing.T) {
	var r *Registry
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x") != nil {
		t.Fatal("nil registry returned a live instrument")
	}
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot not nil")
	}
	r.WritePrometheus(&strings.Builder{}) // must not panic
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("whisper_a_total").Add(3)
	r.Counter(`whisper_l_total{class="capacity"}`).Add(2)
	r.Counter(`whisper_l_total{class="conflict"}`).Add(1)
	r.Gauge("whisper_g").Set(-4)
	r.DurationHistogram(`whisper_phase_duration_seconds{phase="train"}`).Observe(1500) // 1.5us

	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE whisper_a_total counter",
		"whisper_a_total 3",
		`whisper_l_total{class="capacity"} 2`,
		`whisper_l_total{class="conflict"} 1`,
		"# TYPE whisper_g gauge",
		"whisper_g -4",
		"# TYPE whisper_phase_duration_seconds histogram",
		`whisper_phase_duration_seconds_bucket{phase="train",le="+Inf"} 1`,
		`whisper_phase_duration_seconds_count{phase="train"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// The labeled family's TYPE line must appear exactly once.
	if strings.Count(out, "# TYPE whisper_l_total counter") != 1 {
		t.Fatalf("family TYPE line duplicated:\n%s", out)
	}
}

func TestInstallEnableDefault(t *testing.T) {
	swap(t, nil)
	if Default() != nil {
		t.Fatal("expected disabled default")
	}
	r := Install(NewRegistry())
	if r == nil || Default() != r {
		t.Fatal("Install did not install a registry")
	}
	fresh := Install(NewRegistry())
	if Default() != fresh || fresh == r {
		t.Fatal("Install did not replace the default")
	}
	Install(nil)
	if Default() != nil {
		t.Fatal("Install(nil) did not disable telemetry")
	}
}

func TestSpan(t *testing.T) {
	swap(t, nil)
	StartSpan("train").End() // disabled: inert
	r := swap(t, NewRegistry())
	sp := StartSpan("train")
	time.Sleep(time.Millisecond)
	sp.End()
	h := r.DurationHistogram(PhaseSeconds + `{phase="train"}`)
	if h.Count() != 1 {
		t.Fatalf("span count = %d, want 1", h.Count())
	}
	if h.ScaledSum() <= 0 {
		t.Fatal("span recorded no duration")
	}
}

func TestDisabledPathAllocs(t *testing.T) {
	swap(t, nil)
	var c *Counter
	if n := testing.AllocsPerRun(1000, func() { c.Add(1) }); n != 0 {
		t.Fatalf("nil counter Add allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		if r := Default(); r != nil {
			r.Counter("whisper_x_total").Inc()
		}
	}); n != 0 {
		t.Fatalf("disabled registry guard allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { StartSpan("simulate").End() }); n != 0 {
		t.Fatalf("disabled span allocates %v/op", n)
	}
}

func TestDebugServer(t *testing.T) {
	r := swap(t, NewRegistry())
	r.Counter("whisper_sim_instructions_total").Add(42)
	s, err := ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	get := func(path string) string {
		resp, err := http.Get("http://" + s.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		var b strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			b.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return b.String()
	}
	if out := get("/metrics"); !strings.Contains(out, "whisper_sim_instructions_total 42") {
		t.Fatalf("/metrics missing counter:\n%s", out)
	}
	if out := get("/debug/vars"); !strings.Contains(out, "whisper_sim_instructions_total") {
		t.Fatalf("/debug/vars missing registry:\n%s", out)
	}
	if out := get("/debug/pprof/cmdline"); out == "" {
		t.Fatal("/debug/pprof/cmdline empty")
	}
}
