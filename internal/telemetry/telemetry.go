// Package telemetry is the process-wide observability layer: a metrics
// registry of sharded-atomic counters, gauges, and log-bucketed
// histograms; a span API for timing named phases (profile, train,
// simulate, cache.read, cache.write); a structured JSONL run journal;
// and a debug HTTP endpoint serving Prometheus text, expvar, and pprof.
//
// The layer is opt-in and free when off. Telemetry is disabled until a
// registry is installed (Install); while disabled every instrument
// handle is nil, and every method on a nil instrument is a no-op — the
// fast path is a single nil check with no allocation and no atomic
// traffic (bench_test.go pins this at 0 B/op). Instrumented
// packages therefore guard with one atomic load:
//
//	if r := telemetry.Default(); r != nil {
//		r.Counter("whisper_sim_instructions_total").Add(res.Instrs)
//	}
//
// Instruments are cheap enough to update from unit-completion and
// run-epilogue granularity everywhere; hot per-record loops accumulate
// locally (as pipeline.Run always has) and flush once per run.
package telemetry

import (
	"sync"
	"sync/atomic"
	"unsafe"
)

// numShards spreads concurrent counter writers across cache lines. A
// small power of two keeps Value() summation trivial while removing the
// worst contention of a -j 32 sweep bumping one hot counter.
const numShards = 8

// shard is a padded atomic cell; the padding keeps two shards from
// false-sharing one 64-byte cache line.
type shard struct {
	v atomic.Uint64
	_ [56]byte
}

// Counter is a monotonically increasing sharded-atomic counter. A nil
// *Counter is a valid no-op sink: the disabled-telemetry path costs one
// nil check.
type Counter struct {
	shards [numShards]shard
}

// NewCounter returns a standalone counter, usable with or without a
// registry (runner.Monitor owns its instruments this way and registers
// them only when telemetry is enabled).
func NewCounter() *Counter { return new(Counter) }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.shards[shardIndex()].v.Add(n)
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value sums the shards. Concurrent Adds may or may not be visible; the
// value is exact once writers are quiescent (e.g. after a pool's
// Run returns).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	var sum uint64
	for i := range c.shards {
		sum += c.shards[i].v.Load()
	}
	return sum
}

// shardIndex derives a shard from the goroutine's stack address:
// distinct goroutines occupy distinct stacks, so concurrent writers
// spread across shards without any per-goroutine registration.
func shardIndex() int {
	var probe byte
	return int((uintptr(unsafe.Pointer(&probe)) >> 10) % numShards)
}

// Gauge is an instantaneous value (e.g. in-flight units). A nil *Gauge
// is a no-op sink.
type Gauge struct {
	v atomic.Int64
}

// NewGauge returns a standalone gauge.
func NewGauge() *Gauge { return new(Gauge) }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add moves the gauge by d (negative to decrement).
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v.Add(d)
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// --- process-wide default registry ------------------------------------

var global atomic.Pointer[Registry]

// Default returns the installed process-wide registry, or nil while
// telemetry is disabled. The nil result is itself usable: every lookup
// on a nil *Registry returns a nil instrument.
func Default() *Registry { return global.Load() }

// Install makes r the process-wide registry (nil disables telemetry
// again) and returns r. CLIs install a fresh registry per run so a
// journal snapshot covers exactly that run, even when several runs
// share a test process.
func Install(r *Registry) *Registry {
	global.Store(r)
	return r
}

// expvarOnce guards the one-time expvar publication in debug.go.
var expvarOnce sync.Once
