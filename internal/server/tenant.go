package server

import (
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"github.com/whisper-sim/whisper/internal/core"
	"github.com/whisper-sim/whisper/internal/profiler"
	"github.com/whisper-sim/whisper/internal/sim"
	"github.com/whisper-sim/whisper/internal/store"
	"github.com/whisper-sim/whisper/internal/telemetry"
	"github.com/whisper-sim/whisper/internal/trace"
)

// tenant is one application's server-side state: the rolling profile of
// the shards received since the last retraining, the profile the live
// bundle was trained on, and the bundle itself. All fields behind mu;
// sem is the per-tenant admission gate (ingests beyond its capacity are
// turned away with 429 instead of queueing unboundedly).
type tenant struct {
	id  string
	sem chan struct{}

	mu sync.Mutex
	// window accumulates the shards profiled since the last retrain
	// (profile.Merge); trained is the snapshot the live bundle's
	// training consumed. Drift compares the two.
	window  *profiler.Profile
	trained *profiler.Profile
	// windowRecords counts trace records merged into window.
	windowRecords uint64
	shards        uint64
	retrains      uint64
	lastDrift     float64
	bundle        *bundleRef
}

// bundleRef describes one immutable bundle version. GETs serve Data;
// the artifact file written at retrain time is the durable copy.
type bundleRef struct {
	Version int
	// ETag is the bundle's content fingerprint (SHA-256 of the encoded
	// artifact), served as a strong HTTP ETag.
	ETag string
	// Data is the encoded bundle. It is never mutated, so concurrent
	// responses share it.
	Data []byte
	// Hints counts trained hints; Records the window the training saw.
	Hints   int
	Records uint64
}

// TenantStatus is the ops-facing snapshot of one tenant, served on
// GET /v1/tenants[/{id}].
type TenantStatus struct {
	ID            string  `json:"id"`
	Shards        uint64  `json:"shards"`
	WindowRecords uint64  `json:"window_records"`
	Retrains      uint64  `json:"retrains"`
	LastDrift     float64 `json:"last_drift"`
	BundleVersion int     `json:"bundle_version,omitempty"`
	BundleETag    string  `json:"bundle_etag,omitempty"`
	BundleHints   int     `json:"bundle_hints,omitempty"`
}

// ShardResponse is the body of a successful shard ingest.
type ShardResponse struct {
	Tenant        string  `json:"tenant"`
	ShardRecords  int     `json:"shard_records"`
	WindowRecords uint64  `json:"window_records"`
	Drift         float64 `json:"drift"`
	Retrained     bool    `json:"retrained"`
	BundleVersion int     `json:"bundle_version"`
	ETag          string  `json:"etag,omitempty"`
}

// status snapshots the tenant under its lock.
func (t *tenant) status() TenantStatus {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := TenantStatus{
		ID:            t.id,
		Shards:        t.shards,
		WindowRecords: t.windowRecords,
		Retrains:      t.retrains,
		LastDrift:     t.lastDrift,
	}
	if t.bundle != nil {
		st.BundleVersion = t.bundle.Version
		st.BundleETag = t.bundle.ETag
		st.BundleHints = t.bundle.Hints
	}
	return st
}

// ingest merges one decoded shard into the tenant's rolling profile and
// applies the retraining policy: the first shard always trains (there
// is no bundle to serve without it), later shards retrain when at least
// MinRetrainRecords have accumulated since the last training AND the
// drift against the trained profile crosses DriftThreshold. It returns
// the response body for the POST.
func (s *Server) ingest(t *tenant, recs []trace.Record) (*ShardResponse, error) {
	sp := telemetry.StartSpan("serve.ingest")
	defer sp.End()

	// The shard window needs no fingerprint: ingest keys no cache on it.
	prof, err := sim.Profile(sim.TraceWindow(t.id, "", recs), sim.Tage64KB, profiler.DefaultOptions())
	if err != nil {
		return nil, fmt.Errorf("profiling shard: %w", err)
	}

	t.mu.Lock()
	defer t.mu.Unlock()
	if t.window == nil {
		t.window = prof
	} else if err := t.window.Merge(prof); err != nil {
		return nil, fmt.Errorf("merging shard profile: %w", err)
	}
	t.windowRecords += uint64(len(recs))
	t.shards++
	counter(s.reg(), "whisper_server_shards_total").Inc()
	counter(s.reg(), "whisper_server_shard_records_total").Add(uint64(len(recs)))

	// The drift the decision sees: 1 while nothing is trained yet (the
	// whole window is "new" behaviour), the overlap complement after.
	drift := 1.0
	if t.trained != nil {
		drift = Drift(t.trained, t.window)
	}
	t.lastDrift = drift
	s.tenantGauge(t.id, "window_records").Set(int64(t.windowRecords))
	s.tenantGauge(t.id, "drift_millis").Set(int64(drift * 1000))

	resp := &ShardResponse{
		Tenant:        t.id,
		ShardRecords:  len(recs),
		WindowRecords: t.windowRecords,
		Drift:         drift,
	}
	needTrain := t.bundle == nil ||
		(t.windowRecords >= uint64(s.cfg.MinRetrainRecords) && drift > s.cfg.DriftThreshold)
	if needTrain {
		if err := s.retrainLocked(t); err != nil {
			return nil, err
		}
		resp.Retrained = true
	}
	if t.bundle != nil {
		resp.BundleVersion = t.bundle.Version
		resp.ETag = t.bundle.ETag
	}
	return resp, nil
}

// retrainLocked trains a new bundle from the tenant's accumulated
// window, persists it as a versioned artifact in the store directory,
// and rolls the window into the trained snapshot.
// Called with t.mu held.
func (s *Server) retrainLocked(t *tenant) error {
	sp := telemetry.StartSpan("serve.retrain")
	defer sp.End()
	start := time.Now()

	tr, err := core.Train(t.window, s.cfg.Params)
	if err != nil {
		return fmt.Errorf("training %s: %w", t.id, err)
	}
	version := 1
	if t.bundle != nil {
		version = t.bundle.Version + 1
	}
	// store.Bundle leaves the wall-clock training time out, so a retrain
	// that lands on identical hints re-produces the identical bundle and
	// ETag, and clients keep their 304.
	meta := store.Meta{
		App:     "tenant:" + t.id,
		Records: int(t.windowRecords),
		Key:     fmt.Sprintf("serve:%s:v%d", t.id, version),
	}
	data, etag, err := store.Bundle(meta, tr, t.window.Instrs)
	if err != nil {
		return fmt.Errorf("encoding bundle for %s: %w", t.id, err)
	}
	path := filepath.Join(s.cfg.Dir, fmt.Sprintf("bundle-%s-v%d-%s.wspa", t.id, version, etag[:12]))
	if err := store.WriteBytes(path, data); err != nil {
		return fmt.Errorf("persisting bundle for %s: %w", t.id, err)
	}
	t.bundle = &bundleRef{
		Version: version,
		ETag:    etag,
		Data:    data,
		Hints:   len(tr.Hints),
		Records: t.windowRecords,
	}
	t.retrains++
	trainedRecords := t.windowRecords
	trainedInstrs := t.window.Instrs
	t.trained = t.window
	t.window = nil
	t.windowRecords = 0

	counter(s.reg(), "whisper_server_retrains_total").Inc()
	s.tenantGauge(t.id, "bundle_version").Set(int64(version))
	s.tenantGauge(t.id, "window_records").Set(0)
	if r := s.reg(); r != nil {
		r.DurationHistogram("whisper_server_retrain_seconds").Observe(uint64(time.Since(start)))
	}
	s.cfg.Journal.WriteUnit(fmt.Sprintf("serve/%s/retrain/v%d", t.id, version),
		time.Since(start), trainedInstrs, trainedRecords)
	return nil
}
