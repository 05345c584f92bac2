package experiments

import (
	"reflect"
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
func TestDiskCacheWarmRerun(t *testing.T) {
	dir := t.TempDir()
	pass := func() (time.Duration, store.CacheStats, *Fig7Result, *Fig19Result) {
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

	coldDur, coldStats, coldF7, coldF19 := pass()
	if coldStats.ProfileMisses != 2 || coldStats.TrainMisses != 2 {
		t.Fatalf("cold pass should miss once per app: %+v", coldStats)
	}
	if coldStats.Rejected != 0 {
		t.Fatalf("cold pass rejected entries: %+v", coldStats)
	}

	warmDur, warmStats, warmF7, warmF19 := pass()
	if warmStats.ProfileMisses != 0 || warmStats.TrainMisses != 0 {
		t.Fatalf("warm pass recomputed work: %+v", warmStats)
	}
	if warmStats.ProfileHits == 0 || warmStats.TrainHits == 0 {
		t.Fatalf("warm pass never consulted the cache: %+v", warmStats)
	}
	if !reflect.DeepEqual(warmF7, coldF7) || !reflect.DeepEqual(warmF19, coldF19) {
		t.Fatal("warm results differ from cold results")
	}
	// The cached pass skips all profiling and formula search; only stream
	// replay for hint placement remains. 2x is a conservative floor (the
	// observed ratio is far larger), kept loose for noisy CI machines.
	t.Logf("cold=%v warm=%v", coldDur, warmDur)
	if warmDur*2 > coldDur {
		t.Fatalf("warm pass too slow: cold=%v warm=%v", coldDur, warmDur)
	}
}
