package server

import "github.com/whisper-sim/whisper/internal/profiler"

// Drift quantifies how far a tenant's recent behaviour has moved from
// the profile its live bundle was trained on: the complement of the
// dynamic branch overlap (profiler.Overlap) the cross-workload transfer
// study reports. The hint-staleness study (docs/staleness.md) shows MPKI
// recovers when retraining follows the workload's phase changes;
// overlap is the online signal for exactly those changes — two windows
// dominated by the same branches at the same frequencies overlap near 1
// (drift near 0), while a phase change or workload swap collapses the
// overlap.
//
// drift(trained, window) = 1 - Σ_pc min(fT(pc), fW(pc))
//
// where f is each profile's per-PC share of dynamic conditional
// executions.
func Drift(trained, window *profiler.Profile) float64 {
	d := 1 - profiler.Overlap(trained, window)
	// Float accumulation can push the overlap of two identical profiles
	// a few ulps past 1; clamp so callers can rely on [0, 1].
	return max(0, min(1, d))
}
