// Package classify reproduces the paper's misprediction taxonomy (§II-C,
// Fig 3): every misprediction of the profiled predictor is attributed to
// one of four classes by analyzing consecutive accesses of branch
// substreams — combinations of the branch PC with hashed histories of
// different lengths, exactly the contexts a geometric-history predictor
// could index.
//
// For each retired conditional branch we maintain, per candidate history
// length, the substream keyed by the XOR-folded hashed history at that
// length, with a small majority counter recording the direction the
// substream has produced before. The classification of a misprediction:
//
//   - Compulsory: the static branch is being predicted for the first
//     time.
//   - Conditional-on-data: every known substream of the branch (at every
//     length) is established (seen repeatedly) yet none of their
//     majorities matches the actual outcome — the direction is not a
//     function of history, so no history-based predictor can learn it.
//   - Conflict: some substream determined the outcome *and* was resident
//     in a fully-associative LRU model of the predictor's capacity — the
//     information was retainable but the real predictor's
//     indexing/replacement lost it.
//   - Capacity: some substream determines (or will determine) the
//     outcome, but it was evicted from — or has never fit into — the
//     capacity model: its reuse distance exceeds what the predictor can
//     hold. This is the class the paper finds dominant (76.4%).
package classify

import (
	"github.com/whisper-sim/whisper/internal/bpu"
	"github.com/whisper-sim/whisper/internal/telemetry"
	"github.com/whisper-sim/whisper/internal/trace"
)

// Class is a misprediction class.
type Class int

// The four classes of the paper's Fig 3.
const (
	Compulsory Class = iota
	Capacity
	Conflict
	DataDependent

	numClasses
)

// Counts aggregates classified mispredictions.
type Counts struct {
	ByClass [numClasses]uint64
	// Total is the number of classified mispredictions.
	Total uint64
	// CondExecs and Instrs describe the analyzed window.
	CondExecs, Instrs uint64
	// Branches holds per-branch class counts when the classifier's
	// TrackBranches is set (nil otherwise). Bounded drop-new like
	// attrib.Collector: once the map is full, further new PCs go
	// untracked, so the contents are deterministic in trace order.
	Branches map[uint64]*BranchClasses
}

// BranchClasses is one static branch's per-class misprediction counts.
type BranchClasses [numClasses]uint64

// Dominant returns the branch's most frequent misprediction class and
// its count; ties resolve to the lower class index (the paper's class
// order), so the answer is deterministic.
func (b *BranchClasses) Dominant() (Class, uint64) {
	best := Compulsory
	for cl := Compulsory + 1; cl < numClasses; cl++ {
		if b[cl] > b[best] {
			best = cl
		}
	}
	return best, b[best]
}

// DominantLabels flattens Branches into branch PC → dominant class
// label ("capacity", "conflict", ...) — the form the attribution report
// consumes. Branches with no classified misprediction are skipped.
func (c *Counts) DominantLabels() map[uint64]string {
	if len(c.Branches) == 0 {
		return nil
	}
	out := make(map[uint64]string, len(c.Branches))
	for pc, bc := range c.Branches {
		if cl, n := bc.Dominant(); n > 0 {
			out[pc] = cl.Label()
		}
	}
	return out
}

// Fraction returns the share of class cl among all mispredictions.
func (c *Counts) Fraction(cl Class) float64 {
	if c.Total == 0 {
		return 0
	}
	return float64(c.ByClass[cl]) / float64(c.Total)
}

// MPKI returns mispredictions per kilo-instruction of the analyzed window.
func (c *Counts) MPKI() float64 {
	if c.Instrs == 0 {
		return 0
	}
	return float64(c.Total) / float64(c.Instrs) * 1000
}

// substream tracks one (branch, length, fold) context.
type substream struct {
	seen  uint32
	taken uint32
	// lruPos is the node index in the capacity model, or -1 if evicted.
	lruPos int32
}

// direction returns the substream's majority direction and whether the
// substream is "established and pure": seen often enough, with a strong
// majority. Random (data-dependent) outcomes hover near 50% purity and
// never establish.
func (s *substream) direction(minSeen uint32) (taken, determined bool) {
	if s.seen == 0 {
		return false, false
	}
	maj := s.taken*2 >= s.seen
	if s.seen < minSeen {
		return maj, false
	}
	agree := s.taken
	if !maj {
		agree = s.seen - s.taken
	}
	return maj, float64(agree)/float64(s.seen) >= 0.8
}

// branchState holds all substreams of one static branch.
type branchState struct {
	// subs maps (lengthIndex<<8 | fold) to substream state.
	subs map[uint32]*substream
}

// Classifier drives a predictor over a stream and classifies its
// mispredictions.
type Classifier struct {
	// Lengths are the candidate substream history lengths; defaults to
	// the Table III geometric series.
	Lengths []int
	// CapacityEntries sizes the fully-associative LRU model in substream
	// entries; it should approximate what the profiled predictor can
	// retain across all its components (≈16K tagged entries for the 64KB
	// TAGE-SC-L, one substream touched per length per retirement).
	CapacityEntries int
	// MinSeen is how often a substream must have been observed before
	// its majority is considered established (data-dependence test).
	MinSeen uint32
	// TrackBranches, when positive, records per-branch class counts in
	// Counts.Branches for up to that many static branch PCs (drop-new
	// beyond the bound, so memory stays bounded and the contents
	// deterministic).
	TrackBranches int
}

// DefaultClassifier matches the 64KB baseline.
func DefaultClassifier() *Classifier {
	return &Classifier{CapacityEntries: 16384 * len(bpu.DefaultGeomLengths), MinSeen: 8}
}

// lruModel is a fixed-capacity fully-associative LRU over substreams,
// implemented as an intrusive doubly-linked list over a node arena.
type lruModel struct {
	next, prev []int32
	ss         []*substream
	head, tail int32
	size, cap  int
	free       []int32
}

func newLRU(capacity int) *lruModel {
	return &lruModel{head: -1, tail: -1, cap: capacity}
}

func (l *lruModel) touch(ss *substream) {
	if ss.lruPos >= 0 {
		l.unlink(ss.lruPos)
		l.pushFront(ss.lruPos)
		return
	}
	var idx int32
	if n := len(l.free); n > 0 {
		idx = l.free[n-1]
		l.free = l.free[:n-1]
		l.ss[idx] = ss
	} else {
		idx = int32(len(l.ss))
		l.ss = append(l.ss, ss)
		l.next = append(l.next, -1)
		l.prev = append(l.prev, -1)
	}
	ss.lruPos = idx
	l.pushFront(idx)
	l.size++
	if l.size > l.cap {
		victim := l.tail
		l.unlink(victim)
		l.ss[victim].lruPos = -1
		l.ss[victim] = nil
		l.free = append(l.free, victim)
		l.size--
	}
}

func (l *lruModel) pushFront(idx int32) {
	l.prev[idx] = -1
	l.next[idx] = l.head
	if l.head >= 0 {
		l.prev[l.head] = idx
	}
	l.head = idx
	if l.tail < 0 {
		l.tail = idx
	}
}

func (l *lruModel) unlink(idx int32) {
	if l.prev[idx] >= 0 {
		l.next[l.prev[idx]] = l.next[idx]
	} else {
		l.head = l.next[idx]
	}
	if l.next[idx] >= 0 {
		l.prev[l.next[idx]] = l.prev[idx]
	} else {
		l.tail = l.prev[idx]
	}
}

// Run classifies every misprediction pred makes on s.
func (c *Classifier) Run(s trace.Stream, pred bpu.Predictor) Counts {
	if c.Lengths == nil {
		c.Lengths = bpu.DefaultGeomLengths
	}
	if c.CapacityEntries <= 0 {
		c.CapacityEntries = 16384 * len(c.Lengths)
	}
	if c.MinSeen == 0 {
		c.MinSeen = 8
	}
	var counts Counts
	if c.TrackBranches > 0 {
		counts.Branches = make(map[uint64]*BranchClasses)
	}
	var hist bpu.History
	branches := make(map[uint64]*branchState)
	lru := newLRU(c.CapacityEntries)
	plan := bpu.MakeHashPlan(c.Lengths)
	folds := make([]uint8, len(c.Lengths))

	// The predictor resolves each block's conditional records first (it
	// shares no state with the substream model), then the
	// classification replays them in order.
	cb := bpu.NewCondBlocks(s, pred)
	for cb.Next() {
		for _, n := range cb.Block.Instrs[:cb.Block.N] {
			counts.Instrs += uint64(n) + 1
		}
		counts.CondExecs += uint64(cb.N)
		for k, pc := range cb.PC[:cb.N] {
			taken := cb.Taken[k]
			bs := branches[pc]
			newPC := bs == nil
			if newPC {
				bs = &branchState{subs: make(map[uint32]*substream)}
				branches[pc] = bs
			}
			hist.FoldPlanned(plan, folds)

			if cb.Miss[k] {
				counts.Total++
				cl := Compulsory
				if !newPC {
					cl = c.classify(bs, folds, taken)
				}
				counts.ByClass[cl]++
				if c.TrackBranches > 0 {
					bc := counts.Branches[pc]
					if bc == nil && len(counts.Branches) < c.TrackBranches {
						bc = &BranchClasses{}
						counts.Branches[pc] = bc
					}
					if bc != nil {
						bc[cl]++
					}
				}
			}

			// Train and touch substreams after classification.
			for i, f := range folds {
				key := uint32(i)<<8 | uint32(f)
				ss := bs.subs[key]
				if ss == nil {
					ss = &substream{lruPos: -1}
					bs.subs[key] = ss
				}
				ss.seen++
				if taken {
					ss.taken++
				}
				lru.touch(ss)
			}
			hist.Push(taken)
		}
	}
	counts.emitTelemetry()
	return counts
}

// emitTelemetry flushes the classified window's per-cause breakdown into
// the process registry — the paper's Fig 3 attribution (capacity vs.
// history-length causes) as live whisper_classify_* series.
func (c *Counts) emitTelemetry() {
	r := telemetry.Default()
	if r == nil {
		return
	}
	r.Counter("whisper_classify_windows_total").Inc()
	for cl := Compulsory; cl < numClasses; cl++ {
		r.Counter(`whisper_classify_mispredictions_total{class="` + classLabel(cl) + `"}`).
			Add(c.ByClass[cl])
	}
}

// Label is the stable lower-case metric label of a class (the String
// form is the paper's legend and carries spaces/hyphens); it is the
// class vocabulary of metric label values and attribution reports.
func (cl Class) Label() string { return classLabel(cl) }

// classLabel is the stable lower-case metric label of a class (the
// String form is the paper's legend and carries spaces/hyphens).
func classLabel(cl Class) string {
	switch cl {
	case Compulsory:
		return "compulsory"
	case Capacity:
		return "capacity"
	case Conflict:
		return "conflict"
	case DataDependent:
		return "data_dependent"
	default:
		return "unknown"
	}
}

// classify attributes a misprediction of a known branch.
func (c *Classifier) classify(bs *branchState, folds []uint8, taken bool) Class {
	// Scan lengths from longest to shortest: a substream whose confident
	// majority matches the actual outcome shows the direction *is* a
	// function of history at that length.
	determinedResident := false
	determinedEvicted := false
	anyNewOrYoung := false
	for i := len(folds) - 1; i >= 0; i-- {
		key := uint32(i)<<8 | uint32(folds[i])
		ss := bs.subs[key]
		if ss == nil || ss.seen < c.MinSeen {
			anyNewOrYoung = true
			continue
		}
		maj, determined := ss.direction(c.MinSeen)
		if determined && maj == taken {
			if ss.lruPos >= 0 {
				determinedResident = true
			} else {
				determinedEvicted = true
			}
		}
	}
	switch {
	case determinedResident:
		return Conflict
	case determinedEvicted:
		return Capacity
	case anyNewOrYoung:
		// Some context this branch depends on has not recurred yet: its
		// reuse distance exceeds what the window (and the predictor)
		// holds.
		return Capacity
	default:
		return DataDependent
	}
}
