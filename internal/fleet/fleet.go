// Package fleet is the client-side load driver for the Whisper hint
// daemon (internal/server): it simulates a fleet of tenants streaming
// trace shards from the workload catalog and hot-reloading bundles the
// way a deployed agent would — POST a shard, then poll the bundle
// endpoint with If-None-Match so only a genuinely new version costs a
// transfer. Driven by `whisper fleet` against a live daemon and by the
// package tests against an httptest server; the Run loop is the
// benchmark body for the serving-path benchmarks.
package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"github.com/whisper-sim/whisper/internal/runner"
	"github.com/whisper-sim/whisper/internal/store"
	"github.com/whisper-sim/whisper/internal/trace"
	"github.com/whisper-sim/whisper/internal/traceio"
	"github.com/whisper-sim/whisper/internal/workload"
)

// Config parameterizes a fleet run.
type Config struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:9180".
	BaseURL string
	// Client is the HTTP client (http.DefaultClient when nil; tests
	// pass the httptest server's).
	Client *http.Client
	// Tenants is the number of simulated tenants (default 4).
	Tenants int
	// Shards is how many shards each tenant streams (default 8).
	Shards int
	// ShardRecords is the trace length of each shard (default 20000).
	ShardRecords int
	// Apps names the catalog applications the tenants draw traces
	// from, assigned round-robin (default: the data-center Table I
	// set). Each tenant switches to the next catalog app at SwitchAt,
	// which moves its branch working set and drives drift past the
	// server's retrain threshold — the fleet-level analogue of the
	// staleness study's input drift.
	Apps []string
	// SwitchAt is the shard index where each tenant swaps application
	// (default half-way; <0 never switches).
	SwitchAt int
	// Format is the shard wire format (default binary WSPT).
	Format traceio.Format
	// Retries bounds per-shard retries after a 429 (default 50).
	Retries int
	// RetryDelay is the pause between 429 retries (default 20ms).
	RetryDelay time.Duration
	// Logf, when non-nil, receives one progress line per tenant.
	Logf func(format string, args ...any)
}

// TenantReport is one simulated tenant's client-side accounting.
type TenantReport struct {
	Tenant        string `json:"tenant"`
	Shards        int    `json:"shards"`
	Records       int    `json:"records"`
	Retrains      int    `json:"retrains"`
	Reloads       int    `json:"reloads"`
	NotModified   int    `json:"not_modified"`
	Rejected      int    `json:"rejected"`
	FinalVersion  int    `json:"final_version"`
	FinalETag     string `json:"final_etag"`
	FinalHints    int    `json:"final_hints"`
	FinalAppHints string `json:"final_app,omitempty"`
}

// Report aggregates a run.
type Report struct {
	Tenants     []TenantReport `json:"tenants"`
	Shards      int            `json:"shards"`
	Records     int            `json:"records"`
	Retrains    int            `json:"retrains"`
	Reloads     int            `json:"reloads"`
	NotModified int            `json:"not_modified"`
	Rejected    int            `json:"rejected"`
}

func (c *Config) withDefaults() (Config, error) {
	cfg := *c
	if cfg.BaseURL == "" {
		return cfg, errors.New("fleet: BaseURL is required")
	}
	if cfg.Client == nil {
		cfg.Client = http.DefaultClient
	}
	if cfg.Tenants == 0 {
		cfg.Tenants = 4
	}
	if cfg.Shards == 0 {
		cfg.Shards = 8
	}
	if cfg.ShardRecords == 0 {
		cfg.ShardRecords = 20000
	}
	if len(cfg.Apps) == 0 {
		for _, spec := range workload.DataCenterSpecs() {
			cfg.Apps = append(cfg.Apps, spec.Config.Name)
		}
	}
	for _, name := range cfg.Apps {
		if workload.AppByName(name) == nil {
			return cfg, fmt.Errorf("fleet: unknown app %q", name)
		}
	}
	if cfg.SwitchAt == 0 {
		cfg.SwitchAt = cfg.Shards / 2
	}
	if cfg.Format == traceio.FormatAuto {
		cfg.Format = traceio.FormatBinary
	}
	if cfg.Retries == 0 {
		cfg.Retries = 50
	}
	if cfg.RetryDelay == 0 {
		cfg.RetryDelay = 20 * time.Millisecond
	}
	return cfg, nil
}

// Run streams every tenant concurrently, one runner.Pool worker each,
// and aggregates their reports. A tenant failing (non-retryable HTTP
// status, transport error, corrupt bundle) fails the run.
func Run(c Config) (*Report, error) {
	cfg, err := c.withDefaults()
	if err != nil {
		return nil, err
	}
	pool := runner.Pool{Workers: cfg.Tenants}
	reports, err := runner.Map(&pool, cfg.Tenants, func(i int, _ *runner.Unit) (TenantReport, error) {
		return runTenant(&cfg, i)
	})
	if err != nil {
		return nil, err
	}
	rep := &Report{Tenants: reports}
	for i := range reports {
		t := &reports[i]
		rep.Shards += t.Shards
		rep.Records += t.Records
		rep.Retrains += t.Retrains
		rep.Reloads += t.Reloads
		rep.NotModified += t.NotModified
		rep.Rejected += t.Rejected
	}
	return rep, nil
}

// shardResponse mirrors server.ShardResponse (decoded client-side; the
// daemon is the contract owner).
type shardResponse struct {
	Retrained     bool   `json:"retrained"`
	BundleVersion int    `json:"bundle_version"`
	ETag          string `json:"etag"`
}

// runTenant streams one tenant's shards: generate from the catalog,
// upload (retrying 429s), and poll the bundle endpoint with the last
// seen ETag, hot-reloading on every 200.
func runTenant(cfg *Config, idx int) (TenantReport, error) {
	rep := TenantReport{Tenant: fmt.Sprintf("tenant-%02d", idx)}
	appIdx := idx % len(cfg.Apps)
	var bundle *store.Artifact

	for shard := 0; shard < cfg.Shards; shard++ {
		if cfg.SwitchAt > 0 && shard == cfg.SwitchAt {
			appIdx = (appIdx + 1) % len(cfg.Apps)
		}
		app := workload.AppByName(cfg.Apps[appIdx])
		// Vary the input per shard so consecutive windows are
		// different draws of the same behaviour, like production
		// sampling windows.
		recs := collect(app.Stream(shard%app.Inputs(), cfg.ShardRecords))
		var body bytes.Buffer
		if err := traceio.WriteAll(&body, cfg.Format, recs); err != nil {
			return rep, fmt.Errorf("%s: encoding shard %d: %w", rep.Tenant, shard, err)
		}

		sr, rejected, err := postShard(cfg, rep.Tenant, body.Bytes())
		if err != nil {
			return rep, fmt.Errorf("%s: shard %d: %w", rep.Tenant, shard, err)
		}
		rep.Rejected += rejected
		rep.Shards++
		rep.Records += len(recs)
		if sr.Retrained {
			rep.Retrains++
		}

		art, etag, version, reloaded, err := fetchBundle(cfg, rep.Tenant, rep.FinalETag)
		if err != nil {
			return rep, fmt.Errorf("%s: after shard %d: %w", rep.Tenant, shard, err)
		}
		if reloaded {
			bundle = art
			rep.Reloads++
			rep.FinalETag = etag
			rep.FinalVersion = version
		} else {
			rep.NotModified++
		}
	}
	if bundle != nil {
		rep.FinalHints = len(bundle.Train.Hints)
		rep.FinalAppHints = bundle.Meta.App
	}
	if cfg.Logf != nil {
		cfg.Logf("%s: %d shards, %d retrains, %d reloads, %d not-modified, %d hints @ v%d",
			rep.Tenant, rep.Shards, rep.Retrains, rep.Reloads, rep.NotModified,
			rep.FinalHints, rep.FinalVersion)
	}
	return rep, nil
}

// collect drains a trace stream into memory.
func collect(s trace.Stream) []trace.Record {
	var recs []trace.Record
	var rec trace.Record
	for s.Next(&rec) {
		recs = append(recs, rec)
	}
	return recs
}

// postShard uploads one shard, retrying while the daemon sheds load
// with 429. Returns the decoded response and how many rejections were
// absorbed.
func postShard(cfg *Config, tenant string, body []byte) (*shardResponse, int, error) {
	url := fmt.Sprintf("%s/v1/tenants/%s/shards?format=%s", cfg.BaseURL, tenant, cfg.Format)
	rejected := 0
	for attempt := 0; ; attempt++ {
		resp, err := cfg.Client.Post(url, "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			return nil, rejected, err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, rejected, err
		}
		switch resp.StatusCode {
		case http.StatusOK:
			var sr shardResponse
			if err := json.Unmarshal(data, &sr); err != nil {
				return nil, rejected, fmt.Errorf("decoding shard response: %w", err)
			}
			return &sr, rejected, nil
		case http.StatusTooManyRequests:
			rejected++
			if attempt >= cfg.Retries {
				return nil, rejected, fmt.Errorf("still throttled after %d retries", cfg.Retries)
			}
			time.Sleep(cfg.RetryDelay)
		default:
			return nil, rejected, fmt.Errorf("POST shard: %s: %s", resp.Status, firstLine(data))
		}
	}
}

// fetchBundle polls the bundle endpoint with the last seen ETag. On 200
// it decodes (hot-reloads) the new bundle; on 304 it reports the cached
// one is still current.
func fetchBundle(cfg *Config, tenant, etag string) (art *store.Artifact, newETag string, version int, reloaded bool, err error) {
	req, err := http.NewRequest(http.MethodGet,
		fmt.Sprintf("%s/v1/tenants/%s/bundle", cfg.BaseURL, tenant), nil)
	if err != nil {
		return nil, "", 0, false, err
	}
	if etag != "" {
		req.Header.Set("If-None-Match", `"`+etag+`"`)
	}
	resp, err := cfg.Client.Do(req)
	if err != nil {
		return nil, "", 0, false, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", 0, false, err
	}
	switch resp.StatusCode {
	case http.StatusNotModified:
		return nil, etag, 0, false, nil
	case http.StatusOK:
		art, err := store.Decode(data)
		if err != nil {
			return nil, "", 0, false, fmt.Errorf("decoding bundle: %w", err)
		}
		tag := strippedETag(resp.Header.Get("ETag"))
		var v int
		fmt.Sscanf(resp.Header.Get("X-Whisper-Bundle-Version"), "%d", &v)
		return art, tag, v, true, nil
	default:
		return nil, "", 0, false, fmt.Errorf("GET bundle: %s: %s", resp.Status, firstLine(data))
	}
}

// strippedETag removes the quotes of a strong ETag header value.
func strippedETag(s string) string {
	if len(s) >= 2 && s[0] == '"' && s[len(s)-1] == '"' {
		return s[1 : len(s)-1]
	}
	return s
}

// firstLine truncates an error body for message embedding.
func firstLine(data []byte) string {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		data = data[:i]
	}
	if len(data) > 200 {
		data = data[:200]
	}
	return string(data)
}
