// Package bpu defines the branch-prediction plumbing shared by every
// direction predictor in the repository: the Predictor interface the
// simulator drives, n-bit saturating counters, and the global history
// register with the chunked XOR folding Whisper uses to hash long
// histories down to 8 bits (paper §III-A).
package bpu

// Predictor is a conditional-branch direction predictor.
//
// The simulator calls Predict immediately followed by Update for each
// retired conditional branch; implementations may carry prediction
// metadata between the two calls (the harness is single-threaded per
// simulation). Update is also where a predictor advances any internal
// history it keeps — the trace-driven harness models perfect history
// repair on mispredictions, the standard practice for trace simulation.
type Predictor interface {
	// Name identifies the predictor in result tables.
	Name() string
	// Predict returns the predicted direction for the branch at pc.
	Predict(pc uint64) bool
	// Update trains the predictor with the resolved direction.
	Update(pc uint64, taken bool)
}

// OraclePrimer is implemented by predictors that need the resolved
// outcome before Predict (the ideal direction predictor). The simulator
// type-asserts for it and calls Prime before each Predict.
type OraclePrimer interface {
	Prime(taken bool)
}

// Counter is an n-bit saturating up/down counter.
type Counter struct {
	v    int16
	max  int16
	init int16
}

// NewCounter returns an n-bit counter (2 <= n <= 8) initialized to the
// weak-taken value 2^(n-1).
func NewCounter(nbits int) Counter {
	if nbits < 1 || nbits > 8 {
		panic("bpu: counter width out of range")
	}
	max := int16(1<<uint(nbits) - 1)
	return Counter{v: (max + 1) / 2, max: max, init: (max + 1) / 2}
}

// Value returns the raw counter value.
func (c *Counter) Value() int16 { return c.v }

// Taken reports the predicted direction (counter in the upper half).
func (c *Counter) Taken() bool { return c.v > c.max/2 }

// Confident reports whether the counter is saturated at either extreme.
func (c *Counter) Confident() bool { return c.v == 0 || c.v == c.max }

// Update moves the counter toward the outcome, saturating.
func (c *Counter) Update(taken bool) {
	if taken {
		if c.v < c.max {
			c.v++
		}
	} else if c.v > 0 {
		c.v--
	}
}

// Reset returns the counter to its initial weak state.
func (c *Counter) Reset() { c.v = c.init }

// HistoryCapacity is the depth of the global history register: the
// maximum correlation length Whisper considers (paper Table III).
const HistoryCapacity = 1024

const historyWords = HistoryCapacity / 64

// History is a 1024-deep global branch-history register. Bit 0 is the
// most recently retired branch outcome (1 = taken).
//
// Fold implements Whisper's hashed-history mechanism: the most recent L
// outcomes are split into 8-bit chunks and XOR-folded into a single byte,
// the "hashed history" every Boolean formula evaluates on.
type History struct {
	w     [historyWords]uint64
	count uint64 // total pushes, for tests and warm-up logic
}

// Push records a branch outcome as the new most-recent history bit.
func (h *History) Push(taken bool) {
	carry := uint64(0)
	if taken {
		carry = 1
	}
	for i := 0; i < historyWords; i++ {
		next := h.w[i] >> 63
		h.w[i] = h.w[i]<<1 | carry
		carry = next
	}
	h.count++
}

// Len returns the number of outcomes pushed so far (not capped).
func (h *History) Len() uint64 { return h.count }

// Bit returns the outcome of the i-th most recent branch (0-based).
// It panics if i >= HistoryCapacity.
func (h *History) Bit(i int) bool {
	if i < 0 || i >= HistoryCapacity {
		panic("bpu: history index out of range")
	}
	return h.w[i>>6]&(1<<(uint(i)&63)) != 0
}

// extract returns n (<= 16) history bits starting at position pos, with
// the bit at pos in the least-significant position.
func (h *History) extract(pos, n int) uint64 {
	word := pos >> 6
	shift := uint(pos) & 63
	v := h.w[word] >> shift
	if shift+uint(n) > 64 && word+1 < historyWords {
		v |= h.w[word+1] << (64 - shift)
	}
	return v & (1<<uint(n) - 1)
}

// Raw returns the most recent n (<= 16) outcomes as an integer, bit i
// being the i-th most recent outcome. This is the raw history view the
// ROMBF baseline predicts on.
func (h *History) Raw(n int) uint16 {
	if n < 1 || n > 16 {
		panic("bpu: Raw supports 1..16 bits")
	}
	return uint16(h.extract(0, n))
}

// Fold hashes the most recent length outcomes into 8 bits by XOR-folding
// consecutive 8-bit chunks (paper §III-A "history hashing"). A trailing
// partial chunk participates unshifted. length must be in
// [1, HistoryCapacity].
//
// Chunk k sits at bits 8(k mod 8) of history word k/8, so XORing the
// whole words (the last one masked to the length) lines every chunk up
// on its byte lane, and folding the 64-bit result down to a byte XORs
// the lanes together.
func (h *History) Fold(length int) uint8 {
	if length < 1 || length > HistoryCapacity {
		panic("bpu: fold length out of range")
	}
	full := length >> 6
	var x uint64
	for _, w := range h.w[:full] {
		x ^= w
	}
	if rem := length & 63; rem != 0 {
		x ^= h.w[full] & (1<<uint(rem) - 1)
	}
	return foldWord(x)
}

// FoldPlanned computes Fold(lengths[i]) into out[i] for the plan's
// lengths, XORing each shared whole-word prefix once for all of them.
func (h *History) FoldPlanned(p *HashPlan, out []uint8) {
	var prefix [historyWords + 1]uint64
	for k := 0; k < p.maxWords; k++ {
		prefix[k+1] = prefix[k] ^ h.w[k]
	}
	for i, full := range p.full {
		x := prefix[full]
		if m := p.mask[i]; m != 0 {
			x ^= h.w[full] & m
		}
		out[i] = foldWord(x)
	}
}

// foldWord XORs the eight byte lanes of x together.
func foldWord(x uint64) uint8 {
	x ^= x >> 32
	x ^= x >> 16
	x ^= x >> 8
	return uint8(x)
}

// hashMix is HashPlanned's chunk-combining step; Hash, the reference,
// spells the same step out inline.
func hashMix(x, chunk uint64) uint64 {
	return x ^ (chunk + 0x9E3779B97F4A7C15 + (x << 6) + (x >> 2))
}

// HashPlan precompiles a fixed set of history lengths: the full-word
// count and tail mask of every length, and the deepest shared prefix.
// The table-indexed predictors build one plan per length set at
// construction and hash through History.HashPlanned in every Predict;
// the profiler and the classifier fold their candidate lengths through
// History.FoldPlanned the same way.
type HashPlan struct {
	maxWords int
	full     []int
	mask     []uint64 // tail mask; 0 = length is word-aligned, no tail
}

// MakeHashPlan compiles lengths (each in [1, HistoryCapacity]).
func MakeHashPlan(lengths []int) *HashPlan {
	p := &HashPlan{
		full: make([]int, len(lengths)),
		mask: make([]uint64, len(lengths)),
	}
	for i, l := range lengths {
		if l < 1 || l > HistoryCapacity {
			panic("bpu: hash length out of range")
		}
		p.full[i] = l >> 6
		if rem := l & 63; rem != 0 {
			p.mask[i] = 1<<uint(rem) - 1
		}
		if p.full[i] > p.maxWords {
			p.maxWords = p.full[i]
		}
	}
	return p
}

// HashPlanned computes every length of a precompiled plan in one pass:
// out[i] receives Hash(pc, lengths[i]) for the plan's i-th length, bit
// for bit. The mix state after k whole history words is the same for
// every length >= 64k, so each shared prefix is mixed once.
func (h *History) HashPlanned(pc uint64, p *HashPlan, out []uint64) {
	var prefix [historyWords + 1]uint64
	prefix[0] = pc * 0x9E3779B97F4A7C15
	for k := 0; k < p.maxWords; k++ {
		prefix[k+1] = hashMix(prefix[k], h.w[k])
	}
	for i, full := range p.full {
		x := prefix[full]
		if m := p.mask[i]; m != 0 {
			x = hashMix(x, h.w[full]&m)
		}
		out[i] = x
	}
}

// Hash mixes the most recent length outcomes with a PC into a uint64,
// one length at a time. It is the readable reference HashPlanned must
// equal (TestHashPlannedMatchesHash and the predictors' oracle tests).
func (h *History) Hash(pc uint64, length int) uint64 {
	if length < 1 || length > HistoryCapacity {
		panic("bpu: hash length out of range")
	}
	x := pc * 0x9E3779B97F4A7C15
	for off := 0; off < length; off += 64 {
		n := length - off
		if n > 64 {
			n = 64
		}
		var chunk uint64
		if n <= 16 {
			chunk = h.extract(off, n)
		} else {
			// Assemble from 16-bit extracts to reuse the bounds-checked
			// primitive.
			for k := 0; k < n; k += 16 {
				m := n - k
				if m > 16 {
					m = 16
				}
				chunk |= h.extract(off+k, m) << uint(k)
			}
		}
		x ^= chunk + 0x9E3779B97F4A7C15 + (x << 6) + (x >> 2)
	}
	return x
}
