package pipeline

// RunReference exposes the per-record reference loop to the external benchmarks.
var RunReference = runScalar
