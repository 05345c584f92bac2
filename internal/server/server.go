// Package server is the Whisper hint daemon: a multi-tenant HTTP
// service that ingests streamed branch-trace shards, maintains a
// rolling profile per tenant, retrains when the profile drifts from the
// one the live bundle was trained on, and serves the resulting WSPA
// bundles with content-fingerprint ETags so fleets of clients can poll
// cheaply (If-None-Match → 304) and hot-reload only real changes.
//
// The pipeline behind each endpoint is the offline one — sim.Profile →
// profiler.Merge → core.Train → store.Bundle, the encoder `whisper
// train` also writes through. So the hint section of a bundle trained
// on one shard equals the one `whisper profile` → `train` writes from
// the same records and params, and only the META section differs: it
// names the tenant and the bundle version. The end-to-end tests here
// and in cmd/whisper pin that parity, MPKI included. The drift trigger
// is the complement of the dynamic branch overlap (profiler.Overlap)
// the cross-workload transfer study reports; see Drift.
//
// See docs/serving.md for the endpoint contract, versioning and ETag
// semantics, the retrain policy, and the ops runbook.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/whisper-sim/whisper/internal/core"
	"github.com/whisper-sim/whisper/internal/telemetry"
	"github.com/whisper-sim/whisper/internal/traceio"
)

// Config parameterizes a Server. The zero value is usable after
// NewServer fills defaults; only Dir is required.
type Config struct {
	// Dir is the artifact directory where every bundle version is
	// persisted as a WSPA file (bundle-<tenant>-v<N>-<etag12>.wspa).
	Dir string
	// Params are the training parameters (core.DefaultParams when zero).
	Params core.Params
	// DriftThreshold is the Drift value above which an accumulated
	// window forces retraining. The default 0.50 separates the two
	// regimes measured on the workload catalog at ~20k-record windows:
	// a new input of the same application drifts ≈0.35 (hints still
	// valid — the staleness study shows same-app hints transfer), while
	// an application or phase change drifts ≥0.97.
	DriftThreshold float64
	// MinRetrainRecords is the minimum window size (trace records since
	// the last training) before drift may trigger a retrain, so one
	// unrepresentative micro-shard cannot thrash the trainer: small
	// windows read as drifted from sampling noise alone (a 4k-record
	// window of the same app drifts ≈0.6). Default 20000.
	MinRetrainRecords int
	// MaxInflight bounds concurrently processed shard ingests per
	// tenant; excess requests get 429 (default 2).
	MaxInflight int
	// MaxBodyBytes bounds a shard upload's size; larger bodies get 413
	// (default 64 MiB).
	MaxBodyBytes int64
	// MaxTenants bounds the tenant table; creating more gets 429
	// (default 256).
	MaxTenants int
	// RequestTimeout bounds each request's handler time (default 60s;
	// <0 disables).
	RequestTimeout time.Duration
	// Journal, when non-nil, receives a unit line per retrain. The
	// caller owns the manifest/snapshot framing.
	Journal *telemetry.Journal
}

// Server is the daemon. Construct with NewServer, mount via Handler
// (httptest) or run with ListenAndServe/Shutdown.
type Server struct {
	cfg Config

	mu      sync.Mutex
	tenants map[string]*tenant

	httpSrv *http.Server
}

// NewServer validates cfg, fills defaults, and creates the artifact
// directory.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Dir == "" {
		return nil, errors.New("server: Config.Dir is required")
	}
	if cfg.Params == (core.Params{}) {
		cfg.Params = core.DefaultParams()
	}
	if cfg.DriftThreshold == 0 {
		cfg.DriftThreshold = 0.50
	}
	if cfg.MinRetrainRecords == 0 {
		cfg.MinRetrainRecords = 20000
	}
	if cfg.MaxInflight == 0 {
		cfg.MaxInflight = 2
	}
	if cfg.MaxBodyBytes == 0 {
		cfg.MaxBodyBytes = 64 << 20
	}
	if cfg.MaxTenants == 0 {
		cfg.MaxTenants = 256
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 60 * time.Second
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("server: creating artifact dir: %w", err)
	}
	return &Server{
		cfg:     cfg,
		tenants: make(map[string]*tenant),
	}, nil
}

func (s *Server) reg() *telemetry.Registry { return telemetry.Default() }

// counter is the nil-tolerant lookup used on hot paths (same pattern as
// internal/store).
func counter(r *telemetry.Registry, name string) *telemetry.Counter { return r.Counter(name) }

// tenantGauge returns the per-tenant gauge whisper_server_tenant_<what>
// labelled with the tenant id.
func (s *Server) tenantGauge(id, what string) *telemetry.Gauge {
	return s.reg().Gauge(fmt.Sprintf("whisper_server_tenant_%s{tenant=%q}", what, id))
}

// validTenantID enforces the id charset ([A-Za-z0-9._-], 1..64). Ids
// appear in bundle filenames, so the charset doubles as path safety.
func validTenantID(id string) bool {
	if len(id) == 0 || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// tenantFor returns the named tenant, creating it if the table has
// room. The bool reports whether the tenant exists (or was created).
func (s *Server) tenantFor(id string, create bool) (*tenant, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tenants[id]
	if ok {
		return t, true
	}
	if !create || len(s.tenants) >= s.cfg.MaxTenants {
		return nil, false
	}
	t = &tenant{id: id, sem: make(chan struct{}, s.cfg.MaxInflight)}
	s.tenants[id] = t
	s.reg().Gauge("whisper_server_tenants").Set(int64(len(s.tenants)))
	return t, true
}

// snapshot returns every tenant's status sorted by id.
func (s *Server) snapshot() []TenantStatus {
	s.mu.Lock()
	tenants := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		tenants = append(tenants, t)
	}
	s.mu.Unlock()
	out := make([]TenantStatus, 0, len(tenants))
	for _, t := range tenants {
		out = append(out, t.status())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// errorBody is every non-2xx JSON response.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, r *telemetry.Registry, code int, reason, msg string) {
	counter(r, fmt.Sprintf("whisper_server_errors_total{reason=%q}", reason)).Inc()
	writeJSON(w, code, errorBody{Error: msg})
}

// Handler returns the daemon's full route set, wrapped in the request
// timeout. Mountable directly under httptest.NewServer.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/tenants/{tenant}/shards", s.handleShard)
	mux.HandleFunc("GET /v1/tenants/{tenant}/bundle", s.handleBundle)
	mux.HandleFunc("GET /v1/tenants/{tenant}", s.handleTenant)
	mux.HandleFunc("GET /v1/tenants", s.handleTenants)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		s.reg().WritePrometheus(w)
	})
	var h http.Handler = mux
	if s.cfg.RequestTimeout > 0 {
		h = http.TimeoutHandler(h, s.cfg.RequestTimeout, `{"error":"request timed out"}`)
	}
	return h
}

// handleShard is POST /v1/tenants/{tenant}/shards: decode → admission →
// profile → merge → maybe retrain.
func (s *Server) handleShard(w http.ResponseWriter, r *http.Request) {
	reg := s.reg()
	counter(reg, "whisper_server_requests_total").Inc()
	id := r.PathValue("tenant")
	if !validTenantID(id) {
		writeError(w, reg, http.StatusBadRequest, "bad-tenant",
			fmt.Sprintf("invalid tenant id %q: want 1-64 chars of [A-Za-z0-9._-]", id))
		return
	}
	format := traceio.FormatAuto
	if fs := r.URL.Query().Get("format"); fs != "" {
		var err error
		if format, err = traceio.ParseFormat(fs); err != nil {
			writeError(w, reg, http.StatusBadRequest, "bad-format", err.Error())
			return
		}
	}
	t, ok := s.tenantFor(id, true)
	if !ok {
		writeError(w, reg, http.StatusTooManyRequests, "tenant-table-full",
			fmt.Sprintf("tenant table full (%d tenants)", s.cfg.MaxTenants))
		return
	}
	// Per-tenant admission: never queue more decodes than MaxInflight.
	select {
	case t.sem <- struct{}{}:
		defer func() { <-t.sem }()
	default:
		w.Header().Set("Retry-After", "1")
		writeError(w, reg, http.StatusTooManyRequests, "tenant-busy",
			fmt.Sprintf("tenant %s has %d shards in flight; retry later", id, s.cfg.MaxInflight))
		return
	}

	// Read the body before decoding so the size limit surfaces as 413
	// rather than as a decoder truncation error.
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, reg, http.StatusRequestEntityTooLarge, "shard-too-large",
				fmt.Sprintf("shard exceeds the %d-byte limit", s.cfg.MaxBodyBytes))
			return
		}
		writeError(w, reg, http.StatusBadRequest, "bad-body",
			fmt.Sprintf("reading shard body: %v", err))
		return
	}
	recs, _, err := traceio.ReadAll(bytes.NewReader(raw), format)
	if err != nil {
		writeError(w, reg, http.StatusBadRequest, "bad-shard",
			fmt.Sprintf("decoding shard: %v", err))
		return
	}
	if err := traceio.CheckRecords("", recs); err != nil {
		writeError(w, reg, http.StatusBadRequest, "useless-shard", err.Error())
		return
	}

	resp, err := s.ingest(t, recs)
	if err != nil {
		writeError(w, reg, http.StatusInternalServerError, "ingest", err.Error())
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleBundle is GET /v1/tenants/{tenant}/bundle: serve the current
// bundle bytes with a strong ETag, honouring If-None-Match.
func (s *Server) handleBundle(w http.ResponseWriter, r *http.Request) {
	reg := s.reg()
	counter(reg, "whisper_server_requests_total").Inc()
	id := r.PathValue("tenant")
	t, ok := s.tenantFor(id, false)
	if !ok {
		writeError(w, reg, http.StatusNotFound, "no-tenant",
			fmt.Sprintf("unknown tenant %q", id))
		return
	}
	t.mu.Lock()
	ref := t.bundle
	t.mu.Unlock()
	if ref == nil {
		writeError(w, reg, http.StatusNotFound, "no-bundle",
			fmt.Sprintf("tenant %s has no trained bundle yet", id))
		return
	}

	etag := `"` + ref.ETag + `"`
	w.Header().Set("ETag", etag)
	w.Header().Set("X-Whisper-Bundle-Version", fmt.Sprint(ref.Version))
	if matchesETag(r.Header.Get("If-None-Match"), ref.ETag) {
		counter(reg, "whisper_server_bundle_not_modified_total").Inc()
		w.WriteHeader(http.StatusNotModified)
		return
	}

	counter(reg, "whisper_server_bundle_serves_total").Inc()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", fmt.Sprint(len(ref.Data)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(ref.Data)
}

// matchesETag reports whether an If-None-Match header value matches the
// bundle's strong ETag: "*", or any listed entity tag whose opaque part
// equals etag (weak prefixes compare equal under the weak comparison
// the 304 path uses).
func matchesETag(header, etag string) bool {
	if header == "" {
		return false
	}
	if header == "*" {
		return true
	}
	for _, part := range splitETags(header) {
		if part == etag {
			return true
		}
	}
	return false
}

// splitETags extracts the opaque tags from a comma-separated
// If-None-Match list, stripping W/ prefixes and quotes.
func splitETags(header string) []string {
	var tags []string
	for _, field := range strings.Split(header, ",") {
		field = strings.TrimSpace(field)
		field = strings.TrimPrefix(field, "W/")
		field = strings.Trim(field, `"`)
		if field != "" {
			tags = append(tags, field)
		}
	}
	return tags
}

// handleTenant is GET /v1/tenants/{tenant}.
func (s *Server) handleTenant(w http.ResponseWriter, r *http.Request) {
	reg := s.reg()
	counter(reg, "whisper_server_requests_total").Inc()
	id := r.PathValue("tenant")
	t, ok := s.tenantFor(id, false)
	if !ok {
		writeError(w, reg, http.StatusNotFound, "no-tenant",
			fmt.Sprintf("unknown tenant %q", id))
		return
	}
	writeJSON(w, http.StatusOK, t.status())
}

// handleTenants is GET /v1/tenants.
func (s *Server) handleTenants(w http.ResponseWriter, r *http.Request) {
	counter(s.reg(), "whisper_server_requests_total").Inc()
	writeJSON(w, http.StatusOK, s.snapshot())
}

// ListenAndServe binds addr and serves until Shutdown (or a listener
// error). It reports the bound address through ready (useful with
// addr ":0") before blocking in Serve.
func (s *Server) ListenAndServe(addr string, ready func(net.Addr)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.httpSrv = &http.Server{Handler: s.Handler()}
	if ready != nil {
		ready(ln.Addr())
	}
	if err := s.httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// Shutdown gracefully drains in-flight requests, then stops the
// listener. In-flight shard ingests complete (and may retrain);
// new connections are refused.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.httpSrv == nil {
		return nil
	}
	return s.httpSrv.Shutdown(ctx)
}
