package runner

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolPreservesIndexOrder(t *testing.T) {
	for _, workers := range []int{0, 1, 4, 32} {
		p := &Pool{Workers: workers}
		out, err := Map(p, 100, func(i int, u *Unit) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
	}
}

func TestPoolBoundsConcurrency(t *testing.T) {
	const workers = 3
	var inFlight, peak atomic.Int64
	p := &Pool{Workers: workers}
	err := p.Run(64, func(i int, u *Unit) error {
		n := inFlight.Add(1)
		for {
			old := peak.Load()
			if n <= old || peak.CompareAndSwap(old, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		inFlight.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got > workers {
		t.Fatalf("peak concurrency %d exceeds %d workers", got, workers)
	}
}

func TestPoolReturnsLowestIndexError(t *testing.T) {
	// Sequential: execution stops at the first failure, which is also the
	// lowest index.
	p := &Pool{Workers: 1}
	err := p.Run(16, func(i int, u *Unit) error {
		if i == 5 || i == 11 {
			return fmt.Errorf("unit %d failed", i)
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "unit 5 failed") {
		t.Fatalf("sequential: got %v", err)
	}

	// Parallel: all units rendezvous before two of them fail, so both
	// errors are recorded and the lowest index wins.
	const n = 8
	var barrier sync.WaitGroup
	barrier.Add(n)
	p = &Pool{Workers: n}
	err = p.Run(n, func(i int, u *Unit) error {
		barrier.Done()
		barrier.Wait()
		if i == 3 || i == 4 {
			return fmt.Errorf("unit %d failed", i)
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "unit 3 failed") {
		t.Fatalf("parallel: got %v", err)
	}
}

func TestPoolStopsSchedulingAfterError(t *testing.T) {
	var ran atomic.Int64
	p := &Pool{Workers: 1}
	err := p.Run(100, func(i int, u *Unit) error {
		ran.Add(1)
		if i == 2 {
			return errors.New("stop")
		}
		return nil
	})
	if err == nil {
		t.Fatal("no error")
	}
	if n := ran.Load(); n != 3 {
		t.Fatalf("ran %d units after early failure", n)
	}
}

// recovered runs f and returns the value it panicked with, or nil.
func recovered(f func()) (p any) {
	defer func() { p = recover() }()
	f()
	return nil
}

// waitGoroutines waits until at most n goroutines are left. A goroutine
// that has signalled its end may still be exiting, so the count is
// polled for a bounded time.
func waitGoroutines(t *testing.T, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > n; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left, want at most %d", runtime.NumGoroutine(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPoolJoinsAndReraises: Run returns or panics only after every unit
// it started has finished, and a unit's panic reaches the caller's
// goroutine, the lowest index's first. Each case runs two units on two
// workers; worker 0 is the caller's goroutine, and units that meet
// first run on different workers.
func TestPoolJoinsAndReraises(t *testing.T) {
	boom, other := errors.New("boom"), errors.New("other")
	before := runtime.NumGoroutine()
	run := func(unit func(i int, u *Unit) error) error {
		return (&Pool{Workers: 2}).Run(2, unit)
	}
	var meet sync.WaitGroup

	// A panic on the other worker reaches the caller.
	meet.Add(2)
	done := false
	p := recovered(func() {
		_ = run(func(_ int, u *Unit) error {
			meet.Done()
			meet.Wait()
			if u.Worker == 1 {
				panic(boom)
			}
			done = true
			return nil
		})
	})
	if p != boom || !done {
		t.Errorf("other worker panics: recovered %v (caller's unit finished %v), want %v after it finished", p, done, boom)
	}

	// A panic on the caller's worker waits for the other unit, which
	// finishes only later: a caller that sees done set joined it. The
	// sleep only widens the window in which a Run that did not join
	// would return.
	started := make(chan struct{})
	done = false
	p = recovered(func() {
		_ = run(func(_ int, u *Unit) error {
			if u.Worker == 0 {
				<-started
				panic(other)
			}
			close(started)
			time.Sleep(10 * time.Millisecond)
			done = true
			return nil
		})
	})
	if p != other || !done {
		t.Errorf("caller's worker panics: recovered %v (other unit finished %v), want %v after it finished", p, done, other)
	}

	// Both units panic, in either order in time; unit 0's panic wins.
	meet.Add(2)
	p = recovered(func() {
		_ = run(func(i int, _ *Unit) error {
			meet.Done()
			meet.Wait()
			panic([]error{boom, other}[i])
		})
	})
	if p != boom {
		t.Errorf("both panic: recovered %v, want unit 0's %v", p, boom)
	}

	// A panic outranks an error at a lower index.
	meet.Add(2)
	p = recovered(func() {
		_ = run(func(i int, _ *Unit) error {
			meet.Done()
			meet.Wait()
			if i == 0 {
				return boom
			}
			panic(other)
		})
	})
	if p != other {
		t.Errorf("error and panic: recovered %v, want unit 1's panic %v", p, other)
	}

	var got [2]int
	var err error
	p = recovered(func() {
		err = run(func(i int, _ *Unit) error { got[i] = i + 1; return nil })
	})
	if p != nil || err != nil || got != [2]int{1, 2} {
		t.Errorf("no panic: recovered %v, error %v, results %v", p, err, got)
	}
	waitGoroutines(t, before)
}

func TestMonitorAccounting(t *testing.T) {
	var sb strings.Builder
	m := NewMonitor(&sb)
	p := &Pool{Workers: 4, Monitor: m}
	err := p.Run(10, func(i int, u *Unit) error {
		u.Label = fmt.Sprintf("unit/%d", i)
		u.AddInstrs(1000)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	done, total, instrs, wall := m.Snapshot()
	if done != 10 || total != 10 {
		t.Fatalf("done %d / total %d", done, total)
	}
	if instrs != 10000 {
		t.Fatalf("instrs %d", instrs)
	}
	if wall <= 0 {
		t.Fatalf("wall %v", wall)
	}
	if !strings.Contains(sb.String(), "[10/10 units]") {
		t.Fatalf("progress output missing final count: %q", sb.String())
	}
	if s := m.Summary(); !strings.Contains(s, "10 units") || !strings.Contains(s, "unit/") {
		t.Fatalf("summary %q", s)
	}
	m.Done()
	if !strings.HasSuffix(sb.String(), "\r\x1b[K") {
		t.Fatal("Done did not clear the progress line")
	}
}

func TestMonitorAccumulatesAcrossPools(t *testing.T) {
	m := NewMonitor(nil)
	for k := 0; k < 3; k++ {
		p := &Pool{Workers: 2, Monitor: m}
		if err := p.Run(4, func(i int, u *Unit) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	done, total, _, _ := m.Snapshot()
	if done != 12 || total != 12 {
		t.Fatalf("done %d / total %d", done, total)
	}
}

func TestMemoComputesOncePerKey(t *testing.T) {
	var m Memo[int, int]
	var calls atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 10; k++ {
				v := m.Do(k, func() int {
					calls.Add(1)
					return k * 7
				})
				if v != k*7 {
					t.Errorf("Do(%d) = %d", k, v)
				}
			}
		}()
	}
	wg.Wait()
	if n := calls.Load(); n != 10 {
		t.Fatalf("compute ran %d times for 10 keys", n)
	}
	hits, misses := m.Stats()
	if misses != 10 || hits != 70 {
		t.Fatalf("hits %d misses %d", hits, misses)
	}
	if m.Len() != 10 {
		t.Fatalf("len %d", m.Len())
	}
}

// TestMemoLookup: Lookup finds only finished computations, never
// computes, and leaves the hit and miss counts alone.
func TestMemoLookup(t *testing.T) {
	var m Memo[string, int]
	if _, ok := m.Lookup("a"); ok {
		t.Fatal("Lookup found a key no Do stored")
	}
	started, release := make(chan struct{}), make(chan struct{})
	go m.Do("slow", func() int {
		close(started)
		<-release
		return 2
	})
	<-started
	if _, ok := m.Lookup("slow"); ok {
		t.Fatal("Lookup returned a computation still in flight")
	}
	close(release)
	if v := m.Do("slow", func() int { return -1 }); v != 2 {
		t.Fatalf("Do after the flight = %d", v)
	}
	m.Do("a", func() int { return 1 })
	for key, want := range map[string]int{"a": 1, "slow": 2} {
		if v, ok := m.Lookup(key); !ok || v != want {
			t.Fatalf("Lookup(%q) = %d, %v", key, v, ok)
		}
	}
	if hits, misses := m.Stats(); hits != 1 || misses != 2 {
		t.Fatalf("hits %d misses %d, want 1 and 2", hits, misses)
	}
}
