// Package runner is the repository's one fan-out engine: a bounded
// worker pool runs independent units across cores while results stay
// indexed by unit, never by completion order, so a parallel run's output
// is byte-identical to a sequential one. Its units are the experiment
// suite's simulations, core.Train's hard branches, the two halves of
// the one-shot flow (sim.Build, sim.Evaluate) and the fleet driver's
// tenants. The package also carries the suite's observability —
// per-unit wall-time and instruction-throughput accounting with a live
// progress/ETA line (monitor.go) — and a cross-driver memo for repeated
// deterministic computations (memo.go).
package runner

import (
	"sync"
	"sync/atomic"
	"time"
)

// Unit is the per-unit context a work function receives: its stable
// index, a label for progress/timing reports, and an instruction counter
// feeding the engine's throughput accounting.
type Unit struct {
	// Index is the unit's position in the Run's [0, n) order.
	Index int
	// Label names the unit in progress and timing reports
	// (e.g. "fig13/mysql").
	Label string
	// Worker is the index, in [0, Workers), of the worker running the
	// unit. A worker runs one unit at a time, so units may share
	// per-worker scratch state keyed on it.
	Worker int

	instrs  uint64
	records uint64
}

// AddInstrs credits simulated instructions to the unit for MIPS
// accounting. Memoized results count too: the reported throughput is the
// effective simulation rate, so cache hits show up as speedup.
func (u *Unit) AddInstrs(n uint64) { u.instrs += n }

// AddRecords credits simulated branch records to the unit. Records are
// the unit BenchmarkPipelineRun reports ns/record in, so crediting them
// here makes the -timing records/sec figure comparable to it.
func (u *Unit) AddRecords(n uint64) { u.records += n }

// Pool executes independent units with bounded parallelism. The zero
// value runs sequentially with no observer.
type Pool struct {
	// Workers bounds how many units run concurrently; values below 1
	// mean sequential execution.
	Workers int
	// Monitor, when non-nil, observes unit completions.
	Monitor *Monitor
}

// Run executes fn for every index in [0, n). Units may run concurrently
// and complete in any order; callers must write results into pre-sized
// slices indexed by unit, which keeps output independent of scheduling.
// Run returns only once every unit it started has finished, so no
// goroutine outlives the call. A unit fails by returning an error or by
// panicking; after a failure no new units start. After the join, the
// panic of the lowest-index unit that panicked is raised again on the
// caller's goroutine; failing that, the error of the lowest-index failed
// unit is returned.
func (p *Pool) Run(n int, fn func(i int, u *Unit) error) error {
	if n <= 0 {
		return nil
	}
	workers := p.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	if p.Monitor != nil {
		p.Monitor.expect(n, workers)
	}
	fails := make([]failure, n)
	var next atomic.Int64
	var failed atomic.Bool
	work := func(worker int) {
		for {
			i := int(next.Add(1)) - 1
			if i >= n || failed.Load() {
				return
			}
			if f := p.runUnit(i, worker, fn); f.err != nil || f.panicked != nil {
				fails[i] = f
				failed.Store(true)
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	work(0)
	wg.Wait()
	for _, f := range fails {
		if f.panicked != nil {
			panic(f.panicked)
		}
	}
	for _, f := range fails {
		if f.err != nil {
			return f.err
		}
	}
	return nil
}

// failure is how one unit failed: the error it returned, or the value
// it panicked with (never nil for a panic since Go 1.21, which turns
// panic(nil) into a *runtime.PanicNilError).
type failure struct {
	err      error
	panicked any
}

// runUnit runs one unit on the given worker, times it and reports it to
// the monitor. A panic in the unit is recovered into the failure, so
// the worker's goroutine survives it and Run can join every worker
// before raising it again.
func (p *Pool) runUnit(i, worker int, fn func(int, *Unit) error) (f failure) {
	u := &Unit{Index: i, Worker: worker}
	if p.Monitor != nil {
		p.Monitor.begin()
	}
	start := time.Now()
	defer func() { f.panicked = recover() }()
	f.err = fn(i, u)
	if p.Monitor != nil {
		p.Monitor.finish(UnitStat{Label: u.Label, Wall: time.Since(start), Instrs: u.instrs, Records: u.records})
	}
	return f
}

// Map runs fn for every index in [0, n) on the pool and collects the
// results in index order.
func Map[T any](p *Pool, n int, fn func(i int, u *Unit) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := p.Run(n, func(i int, u *Unit) error {
		v, err := fn(i, u)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
