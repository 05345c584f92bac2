package bpu

// Bimodal is a classic PC-indexed table of 2-bit saturating counters,
// the history-free baseline the predictor tests compare against.
type Bimodal struct {
	table []Counter
	mask  uint64
}

// NewBimodal returns a bimodal predictor with 2^logSize entries.
func NewBimodal(logSize int) *Bimodal {
	if logSize < 1 || logSize > 24 {
		panic("bpu: bimodal logSize out of range")
	}
	n := 1 << uint(logSize)
	t := make([]Counter, n)
	for i := range t {
		t[i] = NewCounter(2)
	}
	return &Bimodal{table: t, mask: uint64(n - 1)}
}

// Name implements Predictor.
func (b *Bimodal) Name() string { return "bimodal" }

func (b *Bimodal) idx(pc uint64) uint64 { return (pc >> 2) & b.mask }

// Predict implements Predictor.
func (b *Bimodal) Predict(pc uint64) bool { return b.table[b.idx(pc)].Taken() }

// Update implements Predictor.
func (b *Bimodal) Update(pc uint64, taken bool) { b.table[b.idx(pc)].Update(taken) }

// Oracle is the ideal direction predictor of the paper's limit study
// (§II-B): only the direction is ideal. The simulator primes it with the
// resolved outcome before each Predict.
type Oracle struct {
	next bool
}

// Name implements Predictor.
func (o *Oracle) Name() string { return "ideal" }

// Prime implements OraclePrimer.
func (o *Oracle) Prime(taken bool) { o.next = taken }

// Predict implements Predictor.
func (o *Oracle) Predict(uint64) bool { return o.next }

// Update implements Predictor.
func (o *Oracle) Update(uint64, bool) {}

// Static always predicts a fixed direction; useful in tests and as a
// degenerate baseline.
type Static struct {
	Taken bool
}

// Name implements Predictor.
func (s *Static) Name() string {
	if s.Taken {
		return "static-taken"
	}
	return "static-not-taken"
}

// Predict implements Predictor.
func (s *Static) Predict(uint64) bool { return s.Taken }

// Update implements Predictor.
func (s *Static) Update(uint64, bool) {}
