package bfs

import "repro/internal/graph"

// Repairer computes fault-restricted BFS distance tables by incrementally
// repairing a fault-free base table instead of re-running BFS from scratch.
// The invariant (arXiv:1505.00692 §2): a faulted non-tree edge changes no
// distance at all (the BFS tree path to every vertex survives), and a
// faulted tree edge can only change vertices in the subtree hanging below
// it. Run therefore classifies each fault, detaches the union R of the
// affected subtrees from its base Tree, seeds every vertex of R from its surviving boundary
// arcs (whose far endpoints keep their exact base distance), and repairs R
// level-synchronously. When R's arc volume exceeds the graph's — repairing
// would cost more than starting over — it falls back to the full Runner,
// which keeps PR 8's compact/bitset regime split; the base and fallback
// runs inherit that split too, so large graphs still scan via the bitset.
//
// Distances are the only output: BFS parent choice is discovery-order
// dependent and the repair schedule legitimately differs from scratch, so
// consumers that need paths (oracle routing) keep the Runner. Distance
// tables are bit-identical to a from-scratch run by construction.
//
// A Repairer is not safe for concurrent use; create one per goroutine and
// keep it — it amortizes its base table across every fault set sharing a
// source, and rebases automatically (one full BFS) when the source moves.
type Repairer struct {
	g    *graph.Graph
	r    *Runner // base runs + full-recompute fallback
	base *Tree

	src int // base source; -1 until the first Run

	// out is the live table: base distances with the current repair
	// patched in. Every patched vertex is in the base's region; undo
	// restores them.
	out []int32

	// Per-run stamps (epoch ep): done marks settled region vertices,
	// eMask the faulted edges.
	ep    uint32
	done  []uint32
	eMask []uint32

	seeds     []int64 // packed (level<<32 | vertex), grouped by level
	cur, next []int32

	full bool
}

// NewRepairer returns a repairer bound to g. The base table is built
// lazily on the first Run (it needs a source).
func NewRepairer(g *graph.Graph) *Repairer {
	n := g.N()
	return &Repairer{
		g:     g,
		r:     NewRunner(g),
		base:  NewTree(g),
		src:   -1,
		out:   make([]int32, n),
		done:  make([]uint32, n),
		eMask: make([]uint32, g.M()),
		seeds: make([]int64, 0, 64),
		cur:   make([]int32, 0, n),
		next:  make([]int32, 0, n),
	}
}

// undo restores the live table to the base for every vertex the previous
// repair detached, and starts a new region.
func (r *Repairer) undo() {
	bDist := r.base.Dists()
	for _, v := range r.base.Region() {
		r.out[v] = bDist[v]
	}
	r.base.Reset()
}

// Run computes the distance table from src with the given edges disabled
// (the edge-failure model; vertex faults go through the Runner). Results
// are valid until the next Run.
func (r *Repairer) Run(src int, disabledEdges []int) {
	if src != r.src {
		// Rebase: freeze the fault-free BFS from src.
		r.r.Run(src, nil, nil)
		r.base.Freeze(r.r.dist, r.r.parent)
		copy(r.out, r.r.dist)
		r.src = src
	}
	r.undo()
	r.full = false
	if len(disabledEdges) == 0 {
		return
	}
	r.ep++
	if r.ep == 0 { // wrapped; reset stamps
		clear(r.done)
		clear(r.eMask)
		r.ep = 1
	}
	for _, id := range disabledEdges {
		r.eMask[id] = r.ep
	}
	// Classify: a fault is a tree edge iff its deeper endpoint claims it
	// as the parent link; only those detach a subtree.
	bDist, bParent := r.base.Dists(), r.base.Parents()
	for _, id := range disabledEdges {
		e := r.g.EdgeAt(id)
		if bDist[e.V] > 0 && int(bParent[e.V]) == e.U && bDist[e.V] == bDist[e.U]+1 {
			r.base.Cut(e.V)
		} else if bDist[e.U] > 0 && int(bParent[e.U]) == e.V && bDist[e.U] == bDist[e.V]+1 {
			r.base.Cut(e.U)
		}
	}
	if len(r.base.Region()) == 0 {
		return // every fault is a non-tree edge: exact no-op
	}
	if !r.base.Detach() {
		r.full = true
		r.r.Run(src, disabledEdges, nil)
		return
	}
	r.repair()
}

// repair re-settles the detached region level-synchronously. Each x in R
// is seeded with min over surviving boundary arcs (u,x), u outside R, of
// bDist(u)+1 — exact because outside distances are unchanged — and the
// two-queue sweep admits seeds in level order, so every vertex settles at
// its true fault-restricted distance (last-crossing argument). Region
// vertices never reached stay Unreachable.
//
//ftbfs:hotpath
func (r *Repairer) repair() {
	ep, inEp := r.ep, r.base.ep
	inR, done, eMask := r.base.in, r.done, r.eMask
	bDist, out := r.base.dist, r.out
	r.seeds = r.seeds[:0]
	for _, x := range r.base.region {
		out[x] = Unreachable
		best := int32(-1)
		for _, a := range r.g.Arcs(int(x)) {
			if inR[a.To] == inEp || eMask[a.ID] == ep || bDist[a.To] < 0 {
				continue
			}
			if d := bDist[a.To] + 1; best < 0 || d < best {
				best = d
			}
		}
		if best >= 0 {
			r.seeds = append(r.seeds, int64(best)<<32|int64(x))
		}
	}
	if len(r.seeds) == 0 {
		return // region fully disconnected from the survivors
	}
	r.base.SortSeeds(r.seeds)
	cur, next := r.cur[:0], r.next[:0]
	si := 0
	d := int32(r.seeds[0] >> 32)
	for si < len(r.seeds) || len(cur) > 0 {
		if len(cur) == 0 && si < len(r.seeds) {
			if lv := int32(r.seeds[si] >> 32); lv > d {
				d = lv // jump over empty levels
			}
		}
		for si < len(r.seeds) && int32(r.seeds[si]>>32) == d {
			x := int32(r.seeds[si] & 0xffffffff)
			si++
			if done[x] != ep {
				cur = append(cur, x)
			}
		}
		next = next[:0]
		for _, x := range cur {
			if done[x] == ep {
				continue
			}
			done[x] = ep
			out[x] = d
			for _, a := range r.g.Arcs(int(x)) {
				if inR[a.To] != inEp || done[a.To] == ep || eMask[a.ID] == ep {
					continue
				}
				next = append(next, a.To)
			}
		}
		cur, next = next, cur
		d++
	}
	r.cur, r.next = cur[:0], next[:0]
}

// Dist returns the hop distance to v under the last Run, or Unreachable.
func (r *Repairer) Dist(v int) int32 {
	if r.full {
		return r.r.dist[v]
	}
	return r.out[v]
}

// Dists returns the distance table of the last Run. The slice is owned by
// the repairer and overwritten by the next Run.
func (r *Repairer) Dists() []int32 {
	if r.full {
		return r.r.dist
	}
	return r.out
}

// Changed returns the vertices whose distance may differ from the
// fault-free base table after the last Run, and ok=true when the run was
// served incrementally (possibly as a no-op: an empty slice means no
// distance changed). ok=false means a full recompute ran and every vertex
// may differ. The slice is valid until the next Run.
func (r *Repairer) Changed() ([]int32, bool) {
	if r.full {
		return nil, false
	}
	return r.base.Region(), true
}

// Base returns the fault-free distance table for the current source — the
// table deltas from Changed decode against. Faulted Runs never touch it
// (they patch out, or run the fallback Runner's own table), so it stays
// valid until the source moves and the repairer rebases; callers must not
// mutate it. Nil before the first Run.
func (r *Repairer) Base() []int32 {
	if r.src < 0 {
		return nil
	}
	return r.base.Dists()
}
