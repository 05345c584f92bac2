package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/whisper-sim/whisper"
	"github.com/whisper-sim/whisper/internal/store"
	"github.com/whisper-sim/whisper/internal/trace"
	"github.com/whisper-sim/whisper/internal/traceio"
)

// serve is the hint daemon (`whisper serve`) under an open loop from this
// process: tenants stream trace shards in (the write path: ingest,
// profile, drift, retrain, store) while clients poll for bundles with
// conditional GETs (the read path). Shard POSTs arrive at a fixed rate
// and bundle GETs as a seeded Poisson process, each kind on its own
// connection; latency is timed from each request's due time, so a
// stalled daemon delays the requests queued behind the stall too.
//
// POSTs are evenly spaced because with Poisson arrivals a retraining
// shard queued behind the previous POST for a seed-dependent share of
// the run: the median retraining latency of one seed run eight times
// spread by 0.07 (interquartile range ÷ median), that of ten seeds by
// 0.12–0.17.
type serve struct {
	// switchEvery has one entry per tenant: how many shards the tenant
	// streams before switching to its next app (0: never switches).
	switchEvery  []int
	shardRecords int
	// postRate and getRate are the arrival rates per second, summed
	// over tenants.
	postRate, getRate float64
	// apps is the pool the tenants draw their apps from, in a seeded
	// order.
	apps []string
	// setups is how many daemon set-ups a run times.
	setups int
	// postSLO and getSLO are the latency limits of the two request kinds.
	postSLO, getSLO time.Duration
}

// defaultServe streams 20k-record shards at 2 POSTs/s and polls at 100
// GETs/s for two tenants: one switches app on every shard, so each of
// its shards drifts and retrains on a one-shard window, and one never
// switches, so its shards take the ingest path without retraining. Every
// retrain then costs alike; longer switch periods make the daemon retrain
// on windows of up to 18 shards at irregular points, and a run's median
// retraining latency would depend on the seed more than on the code. The app
// pool holds the Table I apps whose training cost on a shard is alike
// (0.13–0.17 s), and 2 POSTs/s keeps the retraining tenant's lock busy
// about a quarter of the time, below saturation.
func defaultServe() serve {
	return serve{
		switchEvery: []int{1, 0}, shardRecords: 20_000, postRate: 2, getRate: 100,
		apps:   []string{"cassandra", "mediawiki", "mysql", "postgres", "tomcat", "wordpress"},
		setups: 5, postSLO: time.Second, getSLO: 50 * time.Millisecond,
	}
}

// request is one scheduled request and, after the run, its outcome.
// Times are offsets from the start of the measured loop.
type request struct {
	post   bool
	tenant int
	shard  int // POST: the tenant's shard index
	id     int

	// See drive for ready.
	due, ready, sent, done time.Duration
	status                 int
	version                int
	etag                   string
	retrained              bool
	err                    error
}

// latency is the request's time from due to done without the
// generator's own lateness: its service time plus any wait behind the
// previous request on its connection (see drive).
func (q *request) latency() time.Duration { return q.done - q.sent + q.ready - q.due }
func (q *request) ok() bool {
	return q.err == nil && (q.status == http.StatusOK || q.status == http.StatusNotModified)
}

// plan is a run's seeded input: each tenant's shard sequence and the two
// arrival schedules.
type plan struct {
	tenantApps [][]string // app order per tenant
	inputOff   []int      // per-tenant input offset
	posts      []request
	gets       []request
	bodies     map[string][]byte // encoded shard per app/input
}

func (s serve) plan(seed int64, seconds time.Duration) (*plan, error) {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(s.apps))
	p := &plan{bodies: map[string][]byte{}}
	tenants := len(s.switchEvery)
	for t := 0; t < tenants; t++ {
		var seq []string
		for j := range s.apps {
			seq = append(seq, s.apps[perm[(t*len(s.apps)/tenants+j)%len(s.apps)]])
		}
		p.tenantApps = append(p.tenantApps, seq)
		p.inputOff = append(p.inputOff, rng.Intn(6))
	}
	for i, due := range evenly(s.postRate, seconds) {
		p.posts = append(p.posts, request{post: true, tenant: i % tenants, shard: 1 + i/tenants, id: i + 1, due: due})
	}
	getRng := rand.New(rand.NewSource(seed ^ 0x5DEECE66D))
	for i, due := range poisson(getRng, s.getRate, seconds) {
		p.gets = append(p.gets, request{tenant: i % tenants, id: len(p.posts) + i + 1, due: due})
	}
	// Shard 0 of every tenant is posted during set-up.
	for t := 0; t < tenants; t++ {
		if _, err := p.body(s, t, 0); err != nil {
			return nil, err
		}
	}
	for i := range p.posts {
		if _, err := p.body(s, p.posts[i].tenant, p.posts[i].shard); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// poisson returns the arrival offsets of a Poisson process of rate per
// second over [0, length).
func poisson(rng *rand.Rand, rate float64, length time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= length {
			return out
		}
		out = append(out, d)
	}
}

// evenly returns the arrival offsets of rate arrivals per second over
// [0, length), the first one period in.
func evenly(rate float64, length time.Duration) []time.Duration {
	var out []time.Duration
	for i := 1; ; i++ {
		d := time.Duration(float64(i) / rate * float64(time.Second))
		if d >= length {
			return out
		}
		out = append(out, d)
	}
}

// shardApp names the app and input of a tenant's k-th shard.
func (p *plan) shardApp(s serve, tenant, k int) (string, int) {
	seq, app := p.tenantApps[tenant], 0
	if every := s.switchEvery[tenant]; every > 0 {
		app = k / every % len(seq)
	}
	return seq[app], (k + p.inputOff[tenant]) % 6
}

// body returns a tenant's k-th shard as WSPT bytes, generating it once.
func (p *plan) body(s serve, tenant, k int) ([]byte, error) {
	name, input := p.shardApp(s, tenant, k)
	key := fmt.Sprintf("%s/%d", name, input)
	if b, ok := p.bodies[key]; ok {
		return b, nil
	}
	app := whisper.AppByName(name)
	var buf bytes.Buffer
	if err := traceio.WriteAll(&buf, traceio.FormatBinary, trace.Collect(app.Stream(input%app.Inputs(), s.shardRecords), s.shardRecords)); err != nil {
		return nil, err
	}
	p.bodies[key] = buf.Bytes()
	return buf.Bytes(), nil
}

// daemon is a running `whisper serve` child.
type daemon struct {
	*child
	base    string // http://host:port
	debug   string // debug endpoint host:port (traced daemons)
	journal string
	chrome  string
}

func (s serve) startDaemon(e *env, i int, traced bool) (*daemon, error) {
	d := &daemon{}
	args := []string{"serve", "-addr", "127.0.0.1:0", "-dir", filepath.Join(e.work, fmt.Sprintf("serve-%d", i))}
	if traced {
		d.journal = filepath.Join(e.work, fmt.Sprintf("serve-%d.jsonl", i))
		d.chrome = filepath.Join(e.work, fmt.Sprintf("serve-%d-chrome.json", i))
		args = append(args, "-journal", d.journal, "-chrome-trace", d.chrome, "-debug-addr", "127.0.0.1:0")
	}
	c, err := startChild(e.ctx, filepath.Join(e.bin, "whisper"), args...)
	if err != nil {
		return nil, err
	}
	d.child = c
	addr, err := c.announced(c.stdout, "whisper serve: listening on http://", 30*time.Second)
	if err == nil && traced {
		d.debug, err = c.announced(c.stderr, "debug endpoint: http://", 30*time.Second)
		d.debug = strings.TrimSuffix(d.debug, "/metrics")
	}
	if err != nil {
		_ = c.stop(time.Second) // the daemon failed already; its exit status adds nothing
		return nil, err
	}
	d.base = "http://" + addr
	return d, nil
}

// client is one HTTP connection's client: the open loop keeps one for
// POSTs and one for GETs.
func newClient() *http.Client {
	return &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}
}

// post uploads one shard and decodes the daemon's reply into q.
func post(c *http.Client, base string, q *request, body []byte) {
	resp, err := c.Post(fmt.Sprintf("%s/v1/tenants/tenant-%02d/shards?format=binary", base, q.tenant),
		"application/octet-stream", bytes.NewReader(body))
	if err != nil {
		q.err = err
		return
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	q.status = resp.StatusCode
	if err != nil {
		q.err = err
		return
	}
	if q.status != http.StatusOK {
		q.err = fmt.Errorf("POST shard: %s: %s", resp.Status, lastLines(string(data), 1))
		return
	}
	var sr struct {
		Retrained     bool   `json:"retrained"`
		BundleVersion int    `json:"bundle_version"`
		ETag          string `json:"etag"`
	}
	if err := json.Unmarshal(data, &sr); err != nil {
		q.err = fmt.Errorf("decoding shard response: %w", err)
		return
	}
	q.retrained, q.version, q.etag = sr.Retrained, sr.BundleVersion, sr.ETag
}

// get polls a tenant's bundle with If-None-Match etag. A 200 body must
// decode as a WSPA artifact whose SHA-256 is the ETag.
func get(c *http.Client, base string, q *request, etag string) {
	req, err := http.NewRequest(http.MethodGet, fmt.Sprintf("%s/v1/tenants/tenant-%02d/bundle", base, q.tenant), nil)
	if err != nil {
		q.err = err
		return
	}
	if etag != "" {
		req.Header.Set("If-None-Match", `"`+etag+`"`)
	}
	resp, err := c.Do(req)
	if err != nil {
		q.err = err
		return
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	q.status = resp.StatusCode
	if err != nil {
		q.err = err
		return
	}
	q.version, _ = strconv.Atoi(resp.Header.Get("X-Whisper-Bundle-Version"))
	q.etag = strings.Trim(resp.Header.Get("ETag"), `"`)
	switch q.status {
	case http.StatusNotModified:
		q.etag = etag
	case http.StatusOK:
		if _, err := store.Decode(data); err != nil {
			q.err = fmt.Errorf("bundle v%d does not decode: %w", q.version, err)
		} else if digest := digestString(string(data)); digest != q.etag {
			q.err = fmt.Errorf("bundle v%d: ETag %s is not the body's SHA-256 %s", q.version, q.etag, digest)
		}
	default:
		q.err = fmt.Errorf("GET bundle: %s: %s", resp.Status, lastLines(string(data), 1))
	}
}

// setUp posts every tenant's first shard to a fresh daemon and fetches
// the first bundles; it returns the time from exec until both were served
// and the v1 ETags.
func (s serve) setUp(e *env, p *plan, d *daemon) (time.Duration, []string, error) {
	c := newClient()
	defer c.CloseIdleConnections()
	etags := make([]string, len(s.switchEvery))
	for t := range s.switchEvery {
		body, _ := p.body(s, t, 0) // generated by plan
		q := request{post: true, tenant: t}
		post(c, d.base, &q, body)
		e.op(q.err == nil)
		if q.err != nil {
			return 0, nil, q.err
		}
		if !q.retrained || q.version != 1 {
			return 0, nil, fmt.Errorf("tenant %d: first shard gave version %d (retrained %v), want a trained v1", t, q.version, q.retrained)
		}
	}
	for t := range s.switchEvery {
		q := request{tenant: t}
		get(c, d.base, &q, "")
		e.op(q.err == nil)
		if q.err != nil {
			return 0, nil, q.err
		}
		etags[t] = q.etag
	}
	return time.Since(d.start), etags, nil
}

func (s serve) run(e *env) error {
	for _, a := range s.apps {
		if whisper.AppByName(a) == nil {
			return fmt.Errorf("%w: unknown app %q", errUsage, a)
		}
	}
	p, err := s.plan(e.seed, e.seconds)
	if err != nil {
		return err
	}

	// Set-up: daemon exec until both tenants' first bundles are served,
	// several times; the median is setup_s. The traced run alternates
	// untraced and traced daemons for trace.overhead_frac and keeps the
	// last, traced one.
	n := s.setups
	if e.traced && n%2 == 1 {
		n++
	}
	var setups, tracedSetups []float64
	var d *daemon
	var firstETags []string
	for i := 0; i < n; i++ {
		traced := e.traced && (n-1-i)%2 == 0
		if d, err = s.startDaemon(e, i, traced); err != nil {
			return err
		}
		took, etags, err := s.setUp(e, p, d)
		if err != nil {
			_ = d.stop(30 * time.Second) // reporting the set-up failure instead
			return err
		}
		if traced {
			tracedSetups = append(tracedSetups, took.Seconds())
		} else {
			setups = append(setups, took.Seconds())
		}
		e.sampleHost()
		if firstETags == nil {
			firstETags = etags
		} else if strings.Join(etags, ",") != strings.Join(firstETags, ",") {
			e.fail("daemon set-up %d served v1 ETags %v, set-up 0 served %v", i, etags, firstETags)
		}
		if i < n-1 {
			if err := d.stop(30 * time.Second); err != nil {
				e.fail("set-up daemon %d: %v", i, err)
			}
		}
	}
	defer d.stop(30 * time.Second) //nolint:errcheck // stopped and checked below on success

	var before scrape
	if e.traced {
		before = scrapeDaemon(d)
	}
	loopStart := time.Now()
	root := e.spans.begin(span{Name: "open loop", Lane: laneBench})
	s.openLoop(e, p, d, loopStart, root)
	e.spans.end(root)
	wall := time.Since(loopStart)
	var after scrape
	if e.traced {
		after = scrapeDaemon(d)
	}
	if err := d.stop(30 * time.Second); err != nil {
		e.fail("daemon shutdown: %v", err)
	}
	ru := d.rusage()

	st := s.analyze(e, p, firstETags)
	if !e.traced {
		e.set("setup_s", median(setups))
		e.set("result_s", median(st.retrainPosts))
		e.set("request_p50_ms", median(st.all)*1000)
		e.set("slo_frac", ratio(float64(st.met), float64(len(p.posts)+len(p.gets))))
		e.set("max_rss_mb", maxRSSMB(ru))
		return nil
	}

	if err := e.spans.addChildTrace(d.chrome, d.start, "whisper serve"); err != nil {
		e.fail("reading the daemon's Chrome trace: %v", err)
	}
	if _, err := journalSnapshot(d.journal); err != nil {
		e.fail("daemon journal: %v", err)
	}
	results := float64(st.retrains)
	delta := func(name string) float64 { return after.metrics[name] - before.metrics[name] }
	phase := func(p string) float64 { return delta(`whisper_phase_duration_seconds_sum{phase="` + p + `"}`) }
	e.set("phase.profile_s", ratio(phase("profile"), results))
	e.set("phase.train_s", ratio(phase("train"), results))
	reconcile(e, "layers.reconcile_ratio", ratio(phase("serve.ingest"), st.postService))
	setRequests(e, st.all)
	e.set("go.alloc_mb", ratio(float64(after.mem.TotalAlloc-before.mem.TotalAlloc)/1e6, results))
	e.set("gc.cycles", ratio(float64(after.mem.NumGC-before.mem.NumGC), results))
	e.set("gc.cpu_frac", after.mem.GCCPUFraction)
	e.set("proc.cpu_frac", cpuSeconds(ru)/time.Since(d.start).Seconds())
	e.set("trace.overhead_frac", ratio(median(tracedSetups), median(setups))-1)
	e.set("server.posts", float64(len(p.posts)))
	e.set("server.gets", float64(len(p.gets)))
	e.set("server.retrains", results)
	e.set("server.not_modified_ratio", ratio(float64(st.notModified), float64(len(p.gets))))
	hits, misses := after.metrics["whisper_server_bundle_cache_hits"], after.metrics["whisper_server_bundle_cache_misses"]
	e.set("server.cache_hit_ratio", ratio(hits, hits+misses))
	e.set("server.get_in_retrain_ratio", ratio(median(st.getsInRetrain), median(st.getsOther)))
	e.set("gen.late_frac", st.lateFrac)
	setZero(e, runnerMetrics...)
	e.note("open_loop_s", wall.Seconds())

	var probes []map[string]float64
	for t := range s.switchEvery {
		for k := 0; k < 2; k++ {
			name, input := p.shardApp(s, t, k)
			app := whisper.AppByName(name)
			lf, err := runLayerFlow(e, 0, flowInput{app: app, train: input % app.Inputs(), eval: (input + 1) % app.Inputs(), records: s.shardRecords})
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

// openLoop issues the scheduled POSTs and GETs, each kind on its own
// connection from its own goroutine, and fills in their outcomes. Beside
// them, the host reference kernel runs once a second, so that
// host.ref_ms samples the host while the daemon works, not only between
// set-ups.
func (s serve) openLoop(e *env, p *plan, d *daemon, start time.Time, root int) {
	stop, sampled := make(chan struct{}), make(chan struct{})
	var refs []float64
	go func() {
		defer close(sampled)
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				refs = append(refs, hostRef())
			}
		}
	}()
	defer func() {
		close(stop)
		<-sampled
		e.refs = append(e.refs, refs...)
	}()

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		c := newClient()
		defer c.CloseIdleConnections()
		drive(e.ctx, start, p.posts, func(q *request) {
			body, _ := p.body(s, q.tenant, q.shard) // generated by plan
			id := e.spans.begin(span{Name: "POST shard", Parent: root, Req: q.id, Lane: lanePost})
			post(c, d.base, q, body)
			e.spans.end(id)
		})
	}()
	go func() {
		defer wg.Done()
		c := newClient()
		defer c.CloseIdleConnections()
		etags := make([]string, len(s.switchEvery))
		drive(e.ctx, start, p.gets, func(q *request) {
			id := e.spans.begin(span{Name: "GET bundle", Parent: root, Req: q.id, Lane: laneGet})
			get(c, d.base, q, etags[q.tenant])
			e.spans.end(id)
			if q.ok() {
				etags[q.tenant] = q.etag
			}
		})
	}()
	wg.Wait()
}

// drive sends reqs in order over one connection, each no earlier than
// its due time (an offset from start), and records when each became
// ready, was sent and was done. A request is ready at its due time or
// when the previous one finished, whichever is later, so sent − ready
// is the generator's own lateness, while done − due also counts the wait
// behind a slow predecessor.
func drive(ctx context.Context, start time.Time, reqs []request, send func(*request)) {
	var prev time.Duration
	for i := range reqs {
		q := &reqs[i]
		if !sleepUntil(ctx, start.Add(q.due)) {
			return
		}
		q.ready, q.sent = max(q.due, prev), time.Since(start)
		send(q)
		q.done = time.Since(start)
		prev = q.done
	}
}

// sleepUntil waits for t; false means the run was cancelled.
func sleepUntil(ctx context.Context, t time.Time) bool {
	d := time.Until(t)
	if d <= 0 {
		return ctx.Err() == nil
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-timer.C:
		return true
	}
}

// serveStats is the open loop's outcome, in seconds. retrainPosts are
// the latencies of the POSTs that retrained: the time from a
// behaviour-changing shard's due time until its new bundle is published.
type serveStats struct {
	all, retrainPosts          []float64
	getsInRetrain, getsOther   []float64
	met, retrains, notModified int
	postService, lateFrac      float64
}

// analyze checks every request and derives the run's statistics.
func (s serve) analyze(e *env, p *plan, firstETags []string) serveStats {
	var st serveStats
	var lateness, posts, gets []float64
	seqs := make([][]string, len(s.switchEvery))
	for t := range seqs {
		seqs[t] = []string{"1:" + firstETags[t]}
	}
	reqs := append(append([]request(nil), p.posts...), p.gets...)
	for i := range reqs {
		q := &reqs[i]
		e.op(q.ok())
		if !q.ok() {
			e.fail("request %d (tenant %d): status %d: %v", q.id, q.tenant, q.status, q.err)
			continue
		}
		lat := q.latency().Seconds()
		st.all = append(st.all, lat)
		lateness = append(lateness, (q.sent - q.ready).Seconds())
		limit := s.getSLO
		if q.post {
			limit = s.postSLO
			posts = append(posts, lat)
			st.postService += (q.done - q.sent).Seconds()
			if q.retrained {
				st.retrains++
				seqs[q.tenant] = append(seqs[q.tenant], fmt.Sprintf("%d:%s", q.version, q.etag))
				st.retrainPosts = append(st.retrainPosts, lat)
			}
		} else {
			gets = append(gets, lat)
			if q.status == http.StatusNotModified {
				st.notModified++
			}
			if duringRetrain(q, p.posts) {
				st.getsInRetrain = append(st.getsInRetrain, lat)
			} else {
				st.getsOther = append(st.getsOther, lat)
			}
		}
		if q.latency() <= limit {
			st.met++
		}
	}
	for t, seq := range seqs {
		e.expect(fmt.Sprintf("serve/%s/seed%d/%ds/tenant-%02d", s.key(), e.seed, int(e.seconds.Seconds()), t), strings.Join(seq, ","))
	}
	// The generator counts as late beyond 2 ms, twice the sleep
	// granularity it shows on an idle 2-vCPU host.
	late := 0
	for _, l := range lateness {
		if l > 0.002 {
			late++
		}
	}
	st.lateFrac = ratio(float64(late), float64(len(lateness)))
	_, getTail, _ := tail(gets)
	e.note("shard_p50_ms", median(posts)*1000)
	e.note("get_p50_ms", median(gets)*1000)
	e.note("get_tail_ms", getTail*1000)
	e.note("retrains", float64(st.retrains))
	e.note("gen_late_p99_ms", percentile(lateness, 99)*1000)
	e.note("gen_late_max_ms", percentile(lateness, 100)*1000)
	return st
}

// key identifies the workload configuration in reference keys.
func (s serve) key() string {
	return fmt.Sprintf("s%v-r%d-p%g-g%g-%s", s.switchEvery, s.shardRecords, s.postRate, s.getRate, strings.Join(s.apps, "+"))
}

// duringRetrain reports whether GET g overlapped a retraining POST of
// its tenant.
func duringRetrain(g *request, posts []request) bool {
	for i := range posts {
		q := &posts[i]
		if q.retrained && q.tenant == g.tenant && g.sent < q.done && q.sent < g.done {
			return true
		}
	}
	return false
}

// scrape is a traced daemon's /metrics series and memstats at one moment.
type scrape struct {
	metrics map[string]float64
	mem     memStats
}

func scrapeDaemon(d *daemon) scrape {
	sc := scrape{metrics: map[string]float64{}}
	client := &http.Client{Timeout: 10 * time.Second}
	if resp, err := client.Get(d.base + "/metrics"); err == nil {
		lines := bufio.NewScanner(resp.Body)
		for lines.Scan() {
			line := lines.Text()
			i := strings.LastIndexByte(line, ' ')
			if strings.HasPrefix(line, "#") || i < 0 {
				continue
			}
			if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
				sc.metrics[line[:i]] = v
			}
		}
		resp.Body.Close()
	}
	sc.mem, _ = getMemStats(client, d.debug) // zero stats read as no allocation
	return sc
}
