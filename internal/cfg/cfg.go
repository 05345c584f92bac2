// Package cfg reconstructs a dynamic control-flow graph from a retired
// branch trace and implements the conditional-probability predecessor
// correlation that Whisper uses to place brhint instructions at link time
// (paper §IV "hint injection", following the I-SPY/Ripple/Twig line of
// profile-guided injection).
//
// The graph's nodes are control-flow instruction PCs; an edge u→v counts
// how often v was the next retired control-flow instruction after u.
// For a branch B, a good hint host is a predecessor P with high
//
//	precision = count(P→B) / execs(P)   (hints rarely fire uselessly)
//	recall    = count(P→B) / execs(B)   (hints usually arrive in time)
//
// subject to the brhint PC-pointer range: the 12-bit offset field can only
// address branches within ±2KB of the hint (paper Fig 11), which is why
// the paper covers "the vast majority (>80%)" rather than all branches.
package cfg

import (
	"sort"

	"github.com/whisper-sim/whisper/internal/trace"
)

// OffsetRange is the reach of the brhint 12-bit PC pointer in bytes
// (signed 12-bit offset: ±2KB).
const OffsetRange = 2048

// Graph is a dynamic CFG with edge and node execution counts. Nodes are
// numbered densely in first-retirement order; each node keeps its
// incoming edges, the only adjacency hint placement reads.
type Graph struct {
	node  map[uint64]int32 // pc -> node number
	pcs   []uint64         // node number -> pc
	execs []uint64         // node number -> executions
	preds [][]edge         // node number -> every u with count(u→v) > 0
	total uint64
}

// edge is one incoming edge u→v of a node v.
type edge struct {
	from  uint64 // u's pc
	count uint64 // count(u→v)
}

// Build consumes a stream and returns its dynamic CFG. Records arrive a
// block at a time; each costs one node lookup and one count in a flat
// edge map keyed by the node-number pair, and the per-node edge lists
// are filled once per distinct edge at the end.
func Build(s trace.Stream) *Graph {
	g := &Graph{node: make(map[uint64]int32)}
	counts := make(map[uint64]uint64) // u<<32 | v (node numbers) -> count(u→v)
	blk := trace.NewBlock(0)
	prev := int32(-1)
	for trace.Fill(s, blk) > 0 {
		for _, pc := range blk.PC[:blk.N] {
			n, ok := g.node[pc]
			if !ok {
				n = int32(len(g.pcs))
				g.node[pc] = n
				g.pcs = append(g.pcs, pc)
				g.execs = append(g.execs, 0)
			}
			g.execs[n]++
			if prev >= 0 {
				counts[uint64(prev)<<32|uint64(n)]++
			}
			prev = n
		}
		g.total += uint64(blk.N)
	}
	g.preds = make([][]edge, len(g.pcs))
	for k, c := range counts {
		v := k & 0xFFFFFFFF
		g.preds[v] = append(g.preds[v], edge{from: g.pcs[k>>32], count: c})
	}
	return g
}

// Execs returns how many times pc retired.
func (g *Graph) Execs(pc uint64) uint64 {
	if n, ok := g.node[pc]; ok {
		return g.execs[n]
	}
	return 0
}

// TotalRecords returns the number of records consumed.
func (g *Graph) TotalRecords() uint64 { return g.total }

// Nodes returns all PCs in ascending order.
func (g *Graph) Nodes() []uint64 {
	out := append([]uint64(nil), g.pcs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// EdgeCount returns count(u→v).
func (g *Graph) EdgeCount(u, v uint64) uint64 {
	if n, ok := g.node[v]; ok {
		for _, e := range g.preds[n] {
			if e.from == u {
				return e.count
			}
		}
	}
	return 0
}

// Placement is a chosen hint host for a branch.
type Placement struct {
	// BranchPC is the hinted branch.
	BranchPC uint64
	// HostPC is the control-flow instruction after which the brhint
	// executes.
	HostPC uint64
	// Precision and Recall are the correlation scores of the host.
	Precision, Recall float64
	// HostExecs is how many times the host retires (each retirement
	// executes the hint: the dynamic instruction overhead).
	HostExecs uint64
}

// PlacementOptions tunes the correlation algorithm.
type PlacementOptions struct {
	// MinPrecision and MinRecall reject hosts with weak correlation.
	MinPrecision, MinRecall float64
	// MaxOffset restricts the host-to-branch distance in bytes
	// (default OffsetRange).
	MaxOffset uint64
	// AllowSelf permits hosting a hint in the branch's own block
	// (useful for loop branches whose strongest predecessor is
	// themselves).
	AllowSelf bool
}

// DefaultPlacementOptions mirror the paper's setup.
func DefaultPlacementOptions() PlacementOptions {
	return PlacementOptions{
		MinPrecision: 0.25,
		MinRecall:    0.25,
		MaxOffset:    OffsetRange,
		AllowSelf:    true,
	}
}

// Place selects the best hint host for branchPC, or ok=false when no
// predecessor satisfies the constraints (the branch then stays with the
// dynamic predictor).
func (g *Graph) Place(branchPC uint64, opt PlacementOptions) (Placement, bool) {
	if opt.MaxOffset == 0 {
		opt.MaxOffset = OffsetRange
	}
	n, ok := g.node[branchPC]
	if !ok {
		return Placement{}, false
	}
	bx := g.execs[n]
	var best Placement
	found := false
	// Edge order is arbitrary; the tie-break on HostPC makes the choice
	// independent of it.
	for _, e := range g.preds[n] {
		host, cnt := e.from, e.count
		if host == branchPC && !opt.AllowSelf {
			continue
		}
		var dist uint64
		if host > branchPC {
			dist = host - branchPC
		} else {
			dist = branchPC - host
		}
		if dist > opt.MaxOffset {
			continue
		}
		hx := g.Execs(host)
		prec := float64(cnt) / float64(hx)
		rec := float64(cnt) / float64(bx)
		if prec < opt.MinPrecision || rec < opt.MinRecall {
			continue
		}
		cand := Placement{
			BranchPC:  branchPC,
			HostPC:    host,
			Precision: prec,
			Recall:    rec,
			HostExecs: hx,
		}
		if !found || score(cand) > score(best) ||
			(score(cand) == score(best) && cand.HostPC < best.HostPC) {
			best = cand
			found = true
		}
	}
	return best, found
}

// score ranks placements by F1 (harmonic mean of precision and recall).
func score(p Placement) float64 {
	if p.Precision+p.Recall == 0 {
		return 0
	}
	return 2 * p.Precision * p.Recall / (p.Precision + p.Recall)
}
