package experiments

import (
	"reflect"
	"testing"

	"github.com/whisper-sim/whisper/internal/spec"
	"github.com/whisper-sim/whisper/internal/store"
)

// loadScenario re-parses and re-compiles a spec from source, giving
// each pass a fresh *Scenario identity so the in-memory memos (keyed on
// that identity) start cold.
func loadScenario(t *testing.T, src string) *spec.Scenario {
	t.Helper()
	s, err := spec.Parse([]byte(src), "yaml")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := spec.Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

const cacheSpecYAML = `
name: cache-check
seed: 11
records: 30000
mix:
  - app: mysql
    weight: 2
  - app: kafka
phases:
  - name: a
  - name: b
    input: 1
staleness:
  cadences: [0, 1]
`

// TestSpecDiskCacheWarmRerun extends the store's cross-process
// guarantee to spec-driven runs: because profiles are keyed by the
// spec's content hash (not the file path or the Scenario identity), a
// second process re-parsing the same spec performs zero profiling and
// zero training work, and reproduces the staleness tables exactly.
func TestSpecDiskCacheWarmRerun(t *testing.T) {
	dir := t.TempDir()
	pass := func() (store.CacheStats, *SpecPhasesResult, *StalenessResult) {
		resetMemos()
		cache, err := store.OpenCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		sc := loadScenario(t, cacheSpecYAML)
		opt := Options{Parallelism: 2, Cache: cache}
		ph, err := SpecPhases(opt, sc)
		if err != nil {
			t.Fatal(err)
		}
		st, err := Staleness(opt, sc)
		if err != nil {
			t.Fatal(err)
		}
		return cache.Stats(), ph, st
	}

	coldStats, coldPh, coldSt := pass()
	// One profile and one training per phase: the staleness cadences
	// {0, 1} over two phases only ever train at phases 0 and 1, which
	// the per-phase driver already computed.
	if coldStats.ProfileMisses != 2 || coldStats.TrainMisses != 2 {
		t.Fatalf("cold pass should miss once per phase: %+v", coldStats)
	}

	warmStats, warmPh, warmSt := pass()
	if warmStats.ProfileMisses != 0 || warmStats.TrainMisses != 0 {
		t.Fatalf("warm pass recomputed work: %+v", warmStats)
	}
	if warmStats.ProfileHits == 0 {
		t.Fatalf("warm pass never consulted the cache: %+v", warmStats)
	}
	if !reflect.DeepEqual(warmPh, coldPh) || !reflect.DeepEqual(warmSt, coldSt) {
		t.Fatal("warm results differ from cold results")
	}
}

// TestStalenessAnchors pins the driver's semantics: cadence 0 and 1 are
// always evaluated even when the spec requests neither, phase 0 is
// identical under every cadence (nothing is stale yet), and cadence 1
// matches the per-phase driver's fresh-trained MPKI on every phase.
func TestStalenessAnchors(t *testing.T) {
	sc := loadScenario(t, cacheSpecYAML)
	opt := Options{Parallelism: 2}
	st, err := Staleness(opt, sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Cadences) < 2 || st.Cadences[0] != 0 || st.Cadences[1] != 1 {
		t.Fatalf("cadences missing anchors: %v", st.Cadences)
	}
	for _, c := range st.Cadences {
		if st.MPKI[c][0] != st.MPKI[0][0] {
			t.Fatalf("phase 0 differs between cadences: %v", st.MPKI)
		}
	}
	ph, err := SpecPhases(opt, sc)
	if err != nil {
		t.Fatal(err)
	}
	for p := range ph.Phases {
		if st.MPKI[1][p] != ph.WhisperMPKI[p] {
			t.Fatalf("cadence-1 MPKI %v != fresh per-phase MPKI %v", st.MPKI[1], ph.WhisperMPKI)
		}
	}
	if st.Recovery[1] != 1 {
		t.Fatalf("fresh cadence must recover 100%%, got %v", st.Recovery[1])
	}
}
