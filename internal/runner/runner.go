// Package runner is the parallel experiment execution engine: a bounded
// worker pool fans independent simulation units out across cores while
// results stay indexed by unit, never by completion order, so a parallel
// run's output is byte-identical to a sequential one. The package also
// carries the suite's observability — per-unit wall-time and
// instruction-throughput accounting with a live progress/ETA line
// (monitor.go) — and a cross-driver memo for repeated deterministic
// computations (memo.go).
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
// On failure no new units start and the error of the lowest-index failed
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
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n || failed.Load() {
				return
			}
			if err := p.runUnit(i, fn); err != nil {
				errs[i] = err
				failed.Store(true)
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runUnit times one unit and reports it to the monitor.
func (p *Pool) runUnit(i int, fn func(int, *Unit) error) error {
	u := &Unit{Index: i}
	if p.Monitor != nil {
		p.Monitor.begin()
	}
	start := time.Now()
	err := fn(i, u)
	if p.Monitor != nil {
		p.Monitor.finish(UnitStat{Label: u.Label, Wall: time.Since(start), Instrs: u.instrs, Records: u.records})
	}
	return err
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
