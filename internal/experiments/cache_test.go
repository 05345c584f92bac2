package experiments

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/whisper-sim/whisper/internal/store"
	"github.com/whisper-sim/whisper/internal/workload"
)

// TestDiskCacheWarmRerun is the store's cross-process guarantee: a second
// run against a warm cache directory performs zero profiling and zero
// training work (every request is a disk hit), produces identical tables,
// and finishes in well under half the cold wall-clock. Fresh app
// instances and a memo reset between passes make the in-memory layer
// cold both times, so only the disk cache separates the two passes.
// Each side is timed as the best of three passes, each cold pass in a
// fresh cache directory, so one pass slowed by other load on the host
// does not decide the ratio.
func TestDiskCacheWarmRerun(t *testing.T) {
	pass := func(dir string) (time.Duration, store.CacheStats, *Fig7Result, *Fig19Result) {
		resetMemos()
		cache, err := store.OpenCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		opt := Options{
			Records: 20000,
			Apps: []*workload.App{
				workload.DataCenterApp("mysql"),
				workload.DataCenterApp("kafka"),
			},
			Parallelism: 2,
			Cache:       cache,
		}
		start := time.Now()
		f7, err := Fig7(opt)
		if err != nil {
			t.Fatal(err)
		}
		f19, err := Fig19(opt)
		if err != nil {
			t.Fatal(err)
		}
		return time.Since(start), cache.Stats(), f7, f19
	}

	var cold, warm [3]time.Duration
	for k := range cold {
		dir := t.TempDir()
		coldDur, coldStats, coldF7, coldF19 := pass(dir)
		if coldStats.ProfileMisses != 2 || coldStats.TrainMisses != 2 {
			t.Fatalf("cold pass should miss once per app: %+v", coldStats)
		}
		if coldStats.Rejected != 0 {
			t.Fatalf("cold pass rejected entries: %+v", coldStats)
		}

		warmDur, warmStats, warmF7, warmF19 := pass(dir)
		if warmStats.ProfileMisses != 0 || warmStats.TrainMisses != 0 {
			t.Fatalf("warm pass recomputed work: %+v", warmStats)
		}
		if warmStats.ProfileHits == 0 || warmStats.TrainHits == 0 {
			t.Fatalf("warm pass never consulted the cache: %+v", warmStats)
		}
		if !reflect.DeepEqual(warmF7, coldF7) || !reflect.DeepEqual(warmF19, coldF19) {
			t.Fatal("warm results differ from cold results")
		}
		cold[k], warm[k] = coldDur, warmDur
	}
	// The cached pass skips all profiling and formula search; only stream
	// replay for hint placement remains. 2x is a conservative floor (the
	// observed ratio is far larger), kept loose for noisy CI machines.
	t.Logf("cold=%v warm=%v", cold, warm)
	bestCold, bestWarm := slices.Min(cold[:]), slices.Min(warm[:])
	if bestWarm*2 > bestCold {
		t.Fatalf("warm pass too slow: best cold=%v best warm=%v", bestCold, bestWarm)
	}
}
