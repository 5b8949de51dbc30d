package wsp

import (
	"cmp"
	"slices"

	"repro/internal/bfs"
	"repro/internal/graph"
)

// RepairSearch answers the same queries as Search for one fixed source by
// incrementally repairing the canonical base tree instead of searching
// from scratch. The observation (arXiv:1505.00692 §2, shared with
// the Gupta–Khan multi-source construction) is that under the isolation
// weight assignment the canonical tree is the union of the unique
// weight-minimal shortest paths, so a fault set can only change the answer
// for vertices in the subtrees hanging below faulted tree edges (plus the
// subtrees of disabled vertices). Everything outside that detached region R
// keeps its exact base (hops, tie, parent, parentE); vertices inside R are
// re-settled by the same settle loop as Search, restricted to R and seeded
// from the surviving boundary arcs, ranked once by their frozen offers.
// Because the optimum is unique per vertex, the repaired values are
// bit-identical to a from-scratch run — the repair changes the settle
// schedule, never the result.
//
// Contract: after a Run with a Target, accessors are valid for the target,
// every vertex on the target's path, and every vertex outside R (exactly
// the set the replace/multifail consumers query). After a Run without a
// Target, accessors are valid for all vertices. A RepairSearch is not safe
// for concurrent use; create one per goroutine.
type RepairSearch struct {
	// kernel is the live view: the base labels with the current repair
	// patched in, or a whole from-scratch run (full). undo restores the
	// base at the start of the next Run.
	kernel
	src     int32
	full    bool
	disable bool

	// Frozen base tree: hop depth, parent and children in base (whose
	// region is the per-Run detach), tie sums and parent edges alongside.
	base     *bfs.Tree
	bTie     []int64
	bParentE []int32

	// Ranked boundary candidates: rank[arcOff[x]:arcOff[x+1]] holds x's
	// arcs (the graph's own CSR spans, permuted) by ascending base offer
	// (bHops[u]+1, bTie[u]+w[e]) of the far end u, then edge ID. The base
	// is frozen, so the first arc that survives a fault set and leaves the
	// region is x's best crossing arc.
	arcOff []int32
	rank   []graph.Arc

	seeds []int64 // boundary seeds packed as hops<<32 | v, grouped by hops
	ties  int     // tie warnings across the base run, repairs and fallbacks
}

// NewRepairSearch builds the base canonical tree from src (one full
// search) and returns a repair engine bound to it. Accessors are
// immediately valid and reflect the fault-free base run.
func NewRepairSearch(g *graph.Graph, w *Assignment, src int) *RepairSearch {
	n := g.N()
	r := &RepairSearch{
		kernel:   newKernel(g, w),
		src:      int32(src),
		base:     bfs.NewTree(g),
		bTie:     make([]int64, n),
		bParentE: make([]int32, n),
	}
	r.ties = r.run(src, Options{Target: -1})
	for v := range n {
		if r.done[v] != r.ep {
			r.hops[v], r.tie[v], r.parent[v], r.parentE[v] = -1, 0, -1, -1
		}
	}
	r.base.Freeze(r.hops, r.parent)
	copy(r.bTie, r.tie)
	copy(r.bParentE, r.parentE)
	r.rankArcs()
	r.seeds = make([]int64, 0, n)
	return r
}

// rankArcs builds the ranked candidate lists from the frozen base labels.
// Arcs of base-unreachable vertices keep their order: such a vertex joins
// a region only as a disabled cut root, which repair never seeds.
func (r *RepairSearch) rankArcs() {
	off, arcs := r.g.ArcData()
	r.arcOff = off
	r.rank = slices.Clone(arcs)
	bHops, bTie, w := r.base.Dists(), r.bTie, r.w
	byOffer := func(a, b graph.Arc) int {
		if c := cmp.Compare(bHops[a.To], bHops[b.To]); c != 0 {
			return c
		}
		if c := cmp.Compare(bTie[a.To]+w[a.ID], bTie[b.To]+w[b.ID]); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	}
	for x, d := range bHops {
		if d >= 0 {
			slices.SortFunc(r.rank[off[x]:off[x+1]], byOffer)
		}
	}
}

// DisableRepair makes every subsequent Run search from scratch (the
// NoRepair build option; results are identical either way).
func (r *RepairSearch) DisableRepair() { r.disable = true }

// TieWarnings returns the residual equal-weight-path count accumulated
// across the base run, all repairs, and all fallback runs — the same
// evidence Search.TieWarnings carries that the assignment failed to
// isolate a unique shortest path.
func (r *RepairSearch) TieWarnings() int { return r.ties }

// Changed returns the detached region of the last Run — the only vertices
// whose (hops, tie, parent, parentE) may differ from the base tree — and
// ok=true when the run was served incrementally. ok=false means the run
// searched from scratch and every vertex may differ. Only meaningful after
// a Run without a Target; the slice is valid until the next Run.
func (r *RepairSearch) Changed() ([]int32, bool) {
	if r.full {
		return nil, false
	}
	return r.base.Region(), true
}

// Base returns the frozen fault-free tree (hop depths, parents, children
// in ascending vertex ID) and every vertex's base parent edge (-1 for the
// source and unreachable vertices). Callers must not mutate either.
func (r *RepairSearch) Base() (*bfs.Tree, []int32) { return r.base, r.bParentE }

// undo restores the live view to the base tree: every vertex after a
// from-scratch run, else the region of the previous repair.
func (r *RepairSearch) undo() {
	bHops, bParent := r.base.Dists(), r.base.Parents()
	if r.full {
		copy(r.hops, bHops)
		copy(r.tie, r.bTie)
		copy(r.parent, bParent)
		copy(r.parentE, r.bParentE)
		r.full = false
	} else {
		for _, v := range r.base.Region() {
			r.hops[v], r.tie[v] = bHops[v], r.bTie[v]
			r.parent[v], r.parentE[v] = bParent[v], r.bParentE[v]
		}
	}
	r.base.Reset()
}

// Run executes the query from src under the given restrictions, repairing
// the base tree when possible and searching from scratch otherwise.
// Results are valid until the next Run (see the type comment for which
// accessors are valid after a Target run).
func (r *RepairSearch) Run(src int, opt Options) {
	r.undo()
	if r.disable || int32(src) != r.src {
		r.full = true
		r.ties += r.run(src, opt)
		return
	}
	r.begin(opt)
	r.in = r.base
	// Detach the subtree of every disabled vertex (including the vertex
	// itself: it is masked and never re-settled) and of the child endpoint
	// of every faulted tree edge. Faulted non-tree edges detach nothing —
	// the canonical tree is the union of the unique canonical paths, so
	// removing a non-tree edge is an exact no-op.
	for _, v := range opt.DisabledVertices {
		r.base.Cut(v)
	}
	for _, id := range opt.DisabledEdges {
		e := r.g.EdgeAt(id)
		if int(r.bParentE[e.V]) == id {
			r.base.Cut(e.V)
		} else if int(r.bParentE[e.U]) == id {
			r.base.Cut(e.U)
		}
	}
	if !r.base.Detach() {
		r.full = true
		r.ties += r.run(src, opt)
		return
	}
	if len(r.base.Region()) == 0 {
		return // exact no-op: every fault missed the tree
	}
	if opt.Target >= 0 && !r.base.In(int32(opt.Target)) {
		// The target and its whole base path lie outside R: the base view
		// already answers everything the caller may ask.
		return
	}
	r.repair(opt.Target)
}

// repair re-settles the detached region: every vertex x in R is seeded
// with the best crossing arc from the (exact, surviving) outside, then the
// settle loop restricted to R finishes the job. By the last-crossing
// argument the canonical path of every x in R decomposes into an exact
// outside prefix, one crossing arc, and a suffix inside R, so the
// restricted search reproduces the unique optimum — and therefore the
// exact parent and parent edge — for every vertex it settles. R vertices
// left unsettled are exactly the ones unreachable under the fault set.
//
// The best crossing arc is the first of x's ranked candidates whose far
// end is outside R and whose edge is not faulted. Every later candidate
// with exactly the same offer is a second equal-weight path to x and
// counts one tie warning. A neighbour of a base-reachable vertex is
// itself base-reachable, so every candidate's offer is a real one.
//
//ftbfs:hotpath
func (r *RepairSearch) repair(target int) {
	ep, w, in := r.ep, r.w, r.base
	hops, tie, parent, parentE := r.hops, r.tie, r.parent, r.parentE
	seen, vOff, eOff := r.seen, r.vOff, r.eOff
	bHops, bTie := in.Dists(), r.bTie
	off, rank := r.arcOff, r.rank
	seeds := r.seeds[:0]
	for _, x := range in.Region() {
		if vOff[x] == ep {
			continue
		}
		cands := rank[off[x]:off[x+1]]
		for i, a := range cands {
			u, eid := a.To, a.ID
			if in.In(u) || eOff[eid] == ep {
				continue
			}
			nh, nt := bHops[u]+1, bTie[u]+w[eid]
			seen[x] = ep
			hops[x], tie[x] = nh, nt
			parent[x], parentE[x] = u, eid
			seeds = append(seeds, int64(nh)<<32|int64(x))
			for _, b := range cands[i+1:] {
				if bHops[b.To]+1 != nh || bTie[b.To]+w[b.ID] != nt {
					break
				}
				if !in.In(b.To) && eOff[b.ID] != ep {
					r.ties++
				}
			}
			break
		}
	}
	in.SortSeeds(seeds)
	r.seeds = seeds
	r.ties += r.settle(seeds, target)
}
