package main

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// median returns the middle of xs (the mean of the two middle values for
// an even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	return s[min(max(rank(p, len(s))-1, 0), len(s)-1)]
}

// rank is the 1-based nearest rank of the p-th percentile of n samples,
// ceil(p·n/100), with the product's rounding error ignored.
func rank(p float64, n int) int { return int(math.Ceil(p*float64(n)/100 - 1e-9)) }

// tailPercentiles are the candidates tail reports, highest first.
var tailPercentiles = []float64{99.9, 99, 90}

// tail reports a timing's tail as the highest percentile that leaves at
// least ten samples beyond it, with the sample count. With fewer than 20
// samples no tail percentile qualifies and it reports the median (p50).
func tail(xs []float64) (pct, v float64, n int) {
	n = len(xs)
	for _, p := range tailPercentiles {
		if n-rank(p, n) >= 10 {
			return p, percentile(xs, p), n
		}
	}
	return 50, median(xs), n
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// seedMod is (seed + k) mod n, non-negative for any seed.
func seedMod(seed int64, k, n int) int {
	m := (seed + int64(k)) % int64(n)
	if m < 0 {
		m += int64(n)
	}
	return int(m)
}

// digestString is the hex SHA-256 of s.
func digestString(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// refTables are the host reference kernel's predictor tables (256 KiB);
// refHits keeps its result live.
var (
	refTables [8][1 << 14]uint16
	refHits   int
)

// hostRef times one run of a frozen CPU kernel, in milliseconds: a
// TAGE-like predictor over a synthetic branch stream, with
// history-hashed table lookups, data-dependent branches and a map
// lookup per branch. No code of the repository runs in it, so a change
// in host.ref_ms between runs is host drift, not a code change. Its mix
// is deliberate: on a shared 2-vCPU host, where neighbours slow the
// flows by up to 1.6× for seconds to minutes, its time over a run
// tracked the flows' time closely enough to cut the spread of run
// medians by about 30%, while pure-ALU, cache-resident and DRAM-latency
// kernels tracked it worse or not at all (README.md).
func hostRef() float64 {
	t := time.Now()
	refTables = [8][1 << 14]uint16{}
	x, hist, hits := uint64(0x9E3779B97F4A7C15), uint64(0), 0
	for i := 0; i < 1<<18; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		pc := x >> 20 & 1023
		taken := (pc*7+hist)&3 != 0
		if x&15 == 0 {
			taken = !taken
		}
		for k := 0; k < len(refTables); k++ {
			e := &refTables[k][(pc^hist>>uint(k*3)^uint64(k)*0x9E37)&(1<<14-1)]
			if *e&3 != 0 {
				if (*e&4 != 0) == taken {
					hits++
					if *e&3 < 3 {
						*e++
					}
				} else {
					*e--
				}
				break
			}
			if x>>uint(40+k)&1 == 0 {
				*e = 1
				if taken {
					*e |= 4
				}
			}
		}
		hist = hist<<1 | map[bool]uint64{false: 0, true: 1}[taken]
	}
	refHits += hits
	return float64(time.Since(t)) / float64(time.Millisecond)
}

// goStats is a runtime/metrics reading of this process. totalCPU is
// the CPU time available to it (GOMAXPROCS × wall time), the base of
// expvar's GCCPUFraction too.
type goStats struct {
	allocBytes, gcCycles uint64
	gcCPU, totalCPU      float64
}

func readGoStats() goStats {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	var g goStats
	if s[0].Value.Kind() == metrics.KindUint64 {
		g.allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		g.gcCycles = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		g.gcCPU = s[2].Value.Float64()
	}
	if s[3].Value.Kind() == metrics.KindFloat64 {
		g.totalCPU = s[3].Value.Float64()
	}
	return g
}

// cpuSeconds is a rusage's user plus system time.
func cpuSeconds(ru *syscall.Rusage) float64 {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// maxRSSMB is a rusage's peak resident set (Linux reports KiB) in MB.
func maxRSSMB(ru *syscall.Rusage) float64 { return float64(ru.Maxrss) * 1024 / 1e6 }

func selfRusage() *syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // RUSAGE_SELF cannot fail
	return &ru
}
