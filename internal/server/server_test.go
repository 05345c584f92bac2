package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/whisper-sim/whisper/internal/cfg"
	"github.com/whisper-sim/whisper/internal/core"
	"github.com/whisper-sim/whisper/internal/pipeline"
	"github.com/whisper-sim/whisper/internal/profiler"
	"github.com/whisper-sim/whisper/internal/sim"
	"github.com/whisper-sim/whisper/internal/store"
	"github.com/whisper-sim/whisper/internal/trace"
	"github.com/whisper-sim/whisper/internal/traceio"
	"github.com/whisper-sim/whisper/internal/workload"
)

// testConfig is the fast-test daemon shape: tiny windows, a threshold
// the measured cross-app drift (≈0.98) clears but same-app input drift
// at these sizes (≈0.6) does not thrash excessively against.
func testConfig(t *testing.T) Config {
	t.Helper()
	return Config{
		Dir:               t.TempDir(),
		DriftThreshold:    0.9,
		MinRetrainRecords: 1000,
	}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// appRecords draws one shard from the workload catalog.
func appRecords(t testing.TB, app string, input, n int) []trace.Record {
	t.Helper()
	a := workload.AppByName(app)
	if a == nil {
		t.Fatalf("unknown app %q", app)
	}
	st := a.Stream(input%a.Inputs(), n)
	var recs []trace.Record
	var rec trace.Record
	for st.Next(&rec) {
		recs = append(recs, rec)
	}
	return recs
}

func encodeShard(t testing.TB, recs []trace.Record, f traceio.Format) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := traceio.WriteAll(&buf, f, recs); err != nil {
		t.Fatalf("encoding shard: %v", err)
	}
	return buf.Bytes()
}

// postShard uploads a shard and decodes the response, asserting status.
func postShard(t *testing.T, ts *httptest.Server, tenant string, body []byte, wantStatus int) *ShardResponse {
	t.Helper()
	resp, err := ts.Client().Post(
		ts.URL+"/v1/tenants/"+tenant+"/shards", "application/octet-stream",
		bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST shard: %v", err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST shard: got %s want %d: %s", resp.Status, wantStatus, data)
	}
	if wantStatus != http.StatusOK {
		return nil
	}
	var sr ShardResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatalf("decoding shard response: %v", err)
	}
	return &sr
}

// getBundle fetches the bundle with an optional If-None-Match tag.
func getBundle(t *testing.T, ts *httptest.Server, tenant, inm string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/tenants/"+tenant+"/bundle", nil)
	if err != nil {
		t.Fatal(err)
	}
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatalf("GET bundle: %v", err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp, data
}

// TestServeEndToEnd is the acceptance pin for the daemon: streamed
// shards drift-trigger a retrain with a new bundle version, a client
// hot-reloads it via ETag polling, and the reloaded bundle — bytes and
// post-reload simulated MPKI — matches the offline profile→train→apply
// pipeline run on the same records.
func TestServeEndToEnd(t *testing.T) {
	const shardLen = 20000
	conf := testConfig(t)
	_, ts := newTestServer(t, conf)

	// Shard 1 (clang): first shard always trains v1.
	clang0 := appRecords(t, "clang", 0, shardLen)
	sr1 := postShard(t, ts, "edge", encodeShard(t, clang0, traceio.FormatBinary), http.StatusOK)
	if !sr1.Retrained || sr1.BundleVersion != 1 || sr1.ETag == "" {
		t.Fatalf("first shard: want retrain to v1 with etag, got %+v", sr1)
	}

	// Client hot-reload round 1.
	resp, body1 := getBundle(t, ts, "edge", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET bundle: %s", resp.Status)
	}
	etag1 := resp.Header.Get("ETag")
	if etag1 != `"`+sr1.ETag+`"` {
		t.Fatalf("ETag header %q does not match ingest etag %q", etag1, sr1.ETag)
	}
	if want := fmt.Sprintf(`"%x"`, sha256.Sum256(body1)); etag1 != want {
		t.Fatalf("ETag %s is not the SHA-256 of the bundle bytes (%s)", etag1, want)
	}
	if v := resp.Header.Get("X-Whisper-Bundle-Version"); v != "1" {
		t.Fatalf("bundle version header = %q, want 1", v)
	}

	// Unchanged fingerprint ⇒ 304, no bytes.
	resp, data := getBundle(t, ts, "edge", etag1)
	if resp.StatusCode != http.StatusNotModified || len(data) != 0 {
		t.Fatalf("conditional GET: got %s with %d bytes, want 304 empty", resp.Status, len(data))
	}

	// Shard 2 (python): the workload changed; measured drift ≈0.99
	// crosses the threshold once the window holds MinRetrainRecords.
	python0 := appRecords(t, "python", 0, shardLen)
	sr2 := postShard(t, ts, "edge", encodeShard(t, python0, traceio.FormatBinary), http.StatusOK)
	if sr2.Drift <= conf.DriftThreshold {
		t.Fatalf("cross-app drift = %v, want > %v", sr2.Drift, conf.DriftThreshold)
	}
	if !sr2.Retrained || sr2.BundleVersion != 2 {
		t.Fatalf("drifted shard: want retrain to v2, got %+v", sr2)
	}
	if sr2.ETag == sr1.ETag {
		t.Fatal("retrained bundle kept the old fingerprint")
	}

	// Changed fingerprint ⇒ 200 with new bytes under the stale tag.
	resp, body2 := getBundle(t, ts, "edge", etag1)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET after retrain: %s, want 200", resp.Status)
	}
	if bytes.Equal(body1, body2) {
		t.Fatal("bundle bytes unchanged across retrain")
	}
	etag2 := resp.Header.Get("ETag")
	if resp, _ := getBundle(t, ts, "edge", etag2); resp.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional GET v2: %s, want 304", resp.Status)
	}

	// Offline parity. v2 trained on the window accumulated since v1:
	// exactly shard 2. Rebuild it with the offline pipeline.
	shard := sim.TraceWindow("python0", "", python0)
	prof, err := sim.Profile(shard, sim.Tage64KB, profiler.DefaultOptions())
	if err != nil {
		t.Fatalf("offline profile: %v", err)
	}
	tr, err := core.Train(prof, core.DefaultParams())
	if err != nil {
		t.Fatalf("offline train: %v", err)
	}
	// The daemon serves duration-free bundles (content-pure bytes).
	tr.Duration = 0
	offline := &store.Artifact{
		Meta: store.Meta{
			App:     "tenant:edge",
			Records: shardLen,
			Key:     "serve:edge:v2",
		},
		Train:        tr,
		WindowInstrs: prof.Instrs,
	}
	offlineBytes, err := store.Encode(offline)
	if err != nil {
		t.Fatalf("offline encode: %v", err)
	}
	if !bytes.Equal(offlineBytes, body2) {
		t.Fatalf("served bundle (%d bytes) is not bit-identical to the offline pipeline's (%d bytes)",
			len(body2), len(offlineBytes))
	}

	// And the simulated outcome a client gets after hot-reloading the
	// served bundle matches offline apply on the same records.
	served, err := store.Decode(body2)
	if err != nil {
		t.Fatalf("decoding served bundle: %v", err)
	}
	popt := pipeline.Options{}
	g := cfg.Build(shard.Open())
	servedRes, _ := sim.Inject(shard, served.Train, g, served.WindowInstrs).Run(shard, sim.Tage64KB(), popt)
	offlineRes, _ := sim.Inject(shard, tr, g, prof.Instrs).Run(shard, sim.Tage64KB(), popt)
	if got, want := math.Round(servedRes.MPKI()*1e4), math.Round(offlineRes.MPKI()*1e4); got != want {
		t.Fatalf("post-reload MPKI %.4f != offline MPKI %.4f", servedRes.MPKI(), offlineRes.MPKI())
	}
	base := pipeline.Run(shard.Open(), sim.Tage64KB(), popt)
	if servedRes.MPKI() > base.MPKI() {
		t.Errorf("served hints raised MPKI: %.4f > baseline %.4f", servedRes.MPKI(), base.MPKI())
	}
}

// TestSameAppInputChangeDoesNotRetrain pins the drift policy's other
// half: a new input of the same application stays under the threshold.
func TestSameAppInputChangeDoesNotRetrain(t *testing.T) {
	const shardLen = 20000
	cfg := testConfig(t)
	cfg.DriftThreshold = 0.5
	_, ts := newTestServer(t, cfg)
	body := encodeShard(t, appRecords(t, "clang", 0, shardLen), traceio.FormatBinary)
	postShard(t, ts, "web", body, http.StatusOK)
	sr := postShard(t, ts, "web",
		encodeShard(t, appRecords(t, "clang", 1, shardLen), traceio.FormatBinary), http.StatusOK)
	if sr.Retrained {
		t.Fatalf("same-app input change retrained (drift %v)", sr.Drift)
	}
	if sr.Drift <= 0 || sr.Drift >= cfg.DriftThreshold {
		t.Fatalf("same-app drift = %v, want in (0, %v)", sr.Drift, cfg.DriftThreshold)
	}
	if sr.BundleVersion != 1 {
		t.Fatalf("bundle version = %d, want 1 (unchanged)", sr.BundleVersion)
	}
}

// TestWindowAccumulatesAcrossShards checks shards merge until the
// retrain bar, then the window resets.
func TestWindowAccumulatesAcrossShards(t *testing.T) {
	cfg := testConfig(t)
	cfg.MinRetrainRecords = 5000
	_, ts := newTestServer(t, cfg)
	// Shard 1 trains v1 on 2000 records and resets the window.
	sr := postShard(t, ts, "acc",
		encodeShard(t, appRecords(t, "kafka", 0, 2000), traceio.FormatBinary), http.StatusOK)
	if !sr.Retrained || sr.WindowRecords != 2000 {
		t.Fatalf("first shard: %+v", sr)
	}
	// The next drifted shard is under MinRetrainRecords: no retrain,
	// window accumulates.
	sr = postShard(t, ts, "acc",
		encodeShard(t, appRecords(t, "python", 0, 2000), traceio.FormatBinary), http.StatusOK)
	if sr.Retrained || sr.WindowRecords != 2000 {
		t.Fatalf("under-min shard: %+v", sr)
	}
	// Crossing the bar with drift still high retrains on the merged
	// 4000-record window.
	sr = postShard(t, ts, "acc",
		encodeShard(t, appRecords(t, "python", 1, 3500), traceio.FormatBinary), http.StatusOK)
	if !sr.Retrained || sr.BundleVersion != 2 {
		t.Fatalf("over-min drifted shard: %+v", sr)
	}
	if sr.WindowRecords != 5500 {
		t.Fatalf("window at retrain = %d records, want 5500", sr.WindowRecords)
	}
}

func TestShardFormatsAndQueryParam(t *testing.T) {
	_, ts := newTestServer(t, testConfig(t))
	recs := appRecords(t, "kafka", 0, 1500)
	for _, tc := range []struct {
		format traceio.Format
		query  string
	}{
		{traceio.FormatText, ""},   // sniffed
		{traceio.FormatBinary, ""}, // sniffed
		{traceio.FormatText, "?format=text"},
		{traceio.FormatBinary, "?format=binary"},
	} {
		resp, err := ts.Client().Post(
			ts.URL+"/v1/tenants/fmt/shards"+tc.query, "application/octet-stream",
			bytes.NewReader(encodeShard(t, recs, tc.format)))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s upload (%q): %s", tc.format, tc.query, resp.Status)
		}
	}
	// A format the daemon does not know is rejected up front.
	resp, err := ts.Client().Post(ts.URL+"/v1/tenants/fmt/shards?format=protobuf",
		"application/octet-stream", bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown format: %s, want 400", resp.Status)
	}
}

func TestShardRejections(t *testing.T) {
	cfg := testConfig(t)
	cfg.MaxBodyBytes = 512
	_, ts := newTestServer(t, cfg)

	// Oversized shard → 413.
	big := encodeShard(t, appRecords(t, "kafka", 0, 4000), traceio.FormatBinary)
	if len(big) <= 512 {
		t.Fatalf("test shard too small to trip the limit: %d bytes", len(big))
	}
	postShard(t, ts, "rej", big, http.StatusRequestEntityTooLarge)

	// Empty window → 400 with the typed message.
	resp, err := ts.Client().Post(ts.URL+"/v1/tenants/rej/shards?format=text",
		"text/plain", strings.NewReader("# comment only\n"))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), "contains no records") {
		t.Fatalf("empty shard: %s %s", resp.Status, data)
	}

	// Corrupt binary → 400.
	postShard(t, ts, "rej", []byte("WSPT\xff\xff\xff\xff"), http.StatusBadRequest)

	// Invalid tenant ids → 400.
	for _, id := range []string{"no*stars", strings.Repeat("x", 65), "sp ace"} {
		postShard(t, ts, id, big[:100], http.StatusBadRequest)
	}
}

func TestAdmissionControl(t *testing.T) {
	cfg := testConfig(t)
	cfg.MaxInflight = 1
	s, ts := newTestServer(t, cfg)

	// Occupy the tenant's only slot directly, then observe load shed.
	tn, _ := s.tenantFor("busy", true)
	tn.sem <- struct{}{}
	body := encodeShard(t, appRecords(t, "kafka", 0, 1500), traceio.FormatBinary)
	resp, err := ts.Client().Post(ts.URL+"/v1/tenants/busy/shards",
		"application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("busy tenant: %s, want 429", resp.Status)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	// Other tenants are unaffected — admission is per tenant.
	postShard(t, ts, "idle", body, http.StatusOK)
	// Releasing the slot readmits.
	<-tn.sem
	postShard(t, ts, "busy", body, http.StatusOK)
}

func TestMaxTenants(t *testing.T) {
	cfg := testConfig(t)
	cfg.MaxTenants = 1
	_, ts := newTestServer(t, cfg)
	body := encodeShard(t, appRecords(t, "kafka", 0, 1500), traceio.FormatBinary)
	postShard(t, ts, "first", body, http.StatusOK)
	postShard(t, ts, "second", body, http.StatusTooManyRequests)
	// The admitted tenant keeps working.
	postShard(t, ts, "first", body, http.StatusOK)
}

func TestUnknownTenantAndBundle(t *testing.T) {
	_, ts := newTestServer(t, testConfig(t))
	if resp, _ := getBundle(t, ts, "ghost", ""); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown tenant bundle: %d, want 404", resp.StatusCode)
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/tenants/ghost")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown tenant status: %s, want 404", resp.Status)
	}
}

func TestTenantListingAndStatus(t *testing.T) {
	_, ts := newTestServer(t, testConfig(t))
	body := encodeShard(t, appRecords(t, "kafka", 0, 1500), traceio.FormatBinary)
	postShard(t, ts, "bravo", body, http.StatusOK)
	postShard(t, ts, "alpha", body, http.StatusOK)

	resp, err := ts.Client().Get(ts.URL + "/v1/tenants")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got []TenantStatus
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].ID != "alpha" || got[1].ID != "bravo" {
		t.Fatalf("listing = %+v, want [alpha bravo]", got)
	}
	for _, st := range got {
		if st.Shards != 1 || st.Retrains != 1 || st.BundleVersion != 1 || st.BundleETag == "" {
			t.Fatalf("tenant status %+v", st)
		}
	}
}

// TestBundleCacheFallsBackToDisk checks that the artifact file written
// at retrain time is the durable copy of what the daemon serves: GETs,
// concurrent ones included, return exactly that file's bytes, under the
// ETag in the file name.
func TestBundleCacheFallsBackToDisk(t *testing.T) {
	cfg := testConfig(t)
	_, ts := newTestServer(t, cfg)
	body := encodeShard(t, appRecords(t, "kafka", 0, 1500), traceio.FormatBinary)
	sr := postShard(t, ts, "cache", body, http.StatusOK)

	// Concurrent responses share the tenant's one immutable slice.
	const gets = 8
	served := make([][]byte, gets)
	var wg sync.WaitGroup
	for i := range served {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := ts.Client().Get(ts.URL + "/v1/tenants/cache/bundle")
			if err != nil {
				t.Errorf("GET bundle: %v", err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("GET bundle: %s", resp.Status)
			}
			served[i], _ = io.ReadAll(resp.Body)
		}(i)
	}
	wg.Wait()

	files, err := filepath.Glob(filepath.Join(cfg.Dir, "bundle-cache-v1-*.wspa"))
	if err != nil || len(files) != 1 {
		t.Fatalf("artifact files %v (err %v), want one", files, err)
	}
	if want := fmt.Sprintf("bundle-cache-v1-%s.wspa", sr.ETag[:12]); filepath.Base(files[0]) != want {
		t.Fatalf("artifact file %s, want %s", filepath.Base(files[0]), want)
	}
	onDisk, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range served {
		if !bytes.Equal(got, onDisk) {
			t.Fatalf("GET %d served %d bytes that differ from the %d-byte artifact file", i, len(got), len(onDisk))
		}
	}
}

func TestETagMatching(t *testing.T) {
	for _, tc := range []struct {
		header string
		want   bool
	}{
		{"", false},
		{"*", true},
		{`"abc"`, true},
		{`W/"abc"`, true},
		{`"zzz", "abc"`, true},
		{`"zzz" , W/"abc"`, true},
		{`"zzz"`, false},
		{`abc`, true},
	} {
		if got := matchesETag(tc.header, "abc"); got != tc.want {
			t.Errorf("matchesETag(%q) = %v, want %v", tc.header, got, tc.want)
		}
	}
}

func TestHealthAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, testConfig(t))
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %s", resp.Status)
	}
	resp, err = ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %s", resp.Status)
	}
}

// TestGracefulShutdown starts the real listener, parks a request whose
// body trickles in, and checks Shutdown lets it finish while refusing
// new connections.
func TestGracefulShutdown(t *testing.T) {
	s, err := NewServer(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	addrCh := make(chan net.Addr, 1)
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.ListenAndServe("127.0.0.1:0", func(a net.Addr) { addrCh <- a }) }()
	addr := (<-addrCh).String()

	body := encodeShard(t, appRecords(t, "kafka", 0, 1500), traceio.FormatBinary)
	pr, pw := io.Pipe()
	type result struct {
		status int
		err    error
	}
	inflight := make(chan result, 1)
	go func() {
		resp, err := http.Post("http://"+addr+"/v1/tenants/slow/shards", "application/octet-stream", pr)
		if err != nil {
			inflight <- result{err: err}
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		inflight <- result{status: resp.StatusCode}
	}()
	// First half of the shard, then shut down mid-request. The write
	// returning only means the client sent it: wait until the handler has
	// the request (it registers the tenant before reading the body), or
	// Shutdown may close the listener with the connection still waiting
	// to be accepted.
	if _, err := pw.Write(body[:len(body)/2]); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, ok := s.tenantFor("slow", false); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the upload never reached its handler")
		}
	}
	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr <- s.Shutdown(ctx)
	}()
	// Shutdown must wait for the in-flight upload, not kill it.
	time.Sleep(50 * time.Millisecond)
	if _, err := pw.Write(body[len(body)/2:]); err != nil {
		t.Fatal(err)
	}
	pw.Close()

	res := <-inflight
	if res.err != nil || res.status != http.StatusOK {
		t.Fatalf("in-flight request during shutdown: status=%d err=%v", res.status, res.err)
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("ListenAndServe: %v", err)
	}
	if _, err := http.Get(fmt.Sprintf("http://%s/healthz", addr)); err == nil {
		t.Fatal("listener still accepting after shutdown")
	}
}

func TestNewServerValidation(t *testing.T) {
	if _, err := NewServer(Config{}); err == nil {
		t.Fatal("NewServer accepted empty Dir")
	}
	s, err := NewServer(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if s.cfg.Params != core.DefaultParams() {
		t.Fatal("zero Params not defaulted")
	}
	if s.cfg.DriftThreshold != 0.5 || s.cfg.MinRetrainRecords != 20000 {
		t.Fatalf("drift defaults: %v/%d", s.cfg.DriftThreshold, s.cfg.MinRetrainRecords)
	}
}

// TestNewServerRejectsNegativeLimits: a negative limit is an invalid
// config, not a server that refuses, drops or never retrains every
// request; a negative RequestTimeout still disables the deadline.
func TestNewServerRejectsNegativeLimits(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(*Config)
	}{
		{"MinRetrainRecords", func(c *Config) { c.MinRetrainRecords = -1 }},
		{"MaxInflight", func(c *Config) { c.MaxInflight = -1 }},
		{"MaxBodyBytes", func(c *Config) { c.MaxBodyBytes = -1 }},
		{"MaxTenants", func(c *Config) { c.MaxTenants = -1 }},
	} {
		cfg := Config{Dir: filepath.Join(t.TempDir(), "bundles")}
		tc.set(&cfg)
		_, err := NewServer(cfg)
		if !errors.Is(err, ErrInvalidConfig) || !strings.Contains(err.Error(), tc.name+" -1") {
			t.Errorf("%s -1: err = %v, want ErrInvalidConfig naming the field", tc.name, err)
		}
		if _, statErr := os.Stat(cfg.Dir); !os.IsNotExist(statErr) {
			t.Errorf("%s -1: NewServer created the artifact dir before rejecting", tc.name)
		}
	}
	s, err := NewServer(Config{Dir: t.TempDir(), RequestTimeout: -1})
	if err != nil {
		t.Fatalf("RequestTimeout -1: %v", err)
	}
	if s.cfg.RequestTimeout != -1 {
		t.Fatalf("RequestTimeout -1 became %v", s.cfg.RequestTimeout)
	}
}

func TestDriftProperties(t *testing.T) {
	mk := func(pcs map[uint64]uint64) *profiler.Profile {
		p := &profiler.Profile{Stats: map[uint64]*profiler.BranchStats{}}
		for pc, execs := range pcs {
			p.Stats[pc] = &profiler.BranchStats{Execs: execs}
			p.CondExecs += execs
		}
		return p
	}
	a := mk(map[uint64]uint64{1: 50, 2: 50})
	if d := Drift(a, a); d != 0 {
		t.Fatalf("self drift = %v, want 0", d)
	}
	b := mk(map[uint64]uint64{3: 100})
	if d := Drift(a, b); d != 1 {
		t.Fatalf("disjoint drift = %v, want 1", d)
	}
	half := mk(map[uint64]uint64{1: 50, 3: 50})
	if d := Drift(a, half); math.Abs(d-0.5) > 1e-12 {
		t.Fatalf("half-overlap drift = %v, want 0.5", d)
	}
	if d := Drift(a, half); d != Drift(half, a) {
		t.Fatal("drift is not symmetric")
	}
	if d := Drift(nil, a); d != 1 {
		t.Fatalf("nil drift = %v, want 1", d)
	}
}
