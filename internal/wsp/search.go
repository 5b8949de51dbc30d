package wsp

import (
	"cmp"
	"slices"

	"repro/internal/bfs"
	"repro/internal/graph"
	"repro/internal/path"
)

// Options restricts a search to a subgraph and optionally stops it early.
type Options struct {
	// Target, when ≥ 0, lets the search stop as soon as the target is
	// settled. Distances of vertices settled before the target remain
	// valid; others are reported unreachable.
	Target int
	// DisabledVertices are excluded from the search (their incident edges
	// become unusable). Disabling the source yields an all-unreachable
	// result.
	DisabledVertices []int
	// DisabledEdges are excluded from the search.
	DisabledEdges []int
}

// Search computes the unique shortest paths under a fixed weight
// assignment with per-run vertex/edge masks. It is a reusable scratch
// object: results of a Run are valid until the next Run. A Search is not
// safe for concurrent use; create one per goroutine.
type Search struct {
	kernel

	// TieWarnings counts relaxations that found two distinct equal-weight
	// paths to a vertex — evidence that the weight assignment failed to
	// isolate a unique shortest path. It accumulates across runs.
	TieWarnings int
}

// NewSearch returns a search scratch bound to g and the assignment w.
// The assignment must cover g's edges.
func NewSearch(g *graph.Graph, w *Assignment) *Search {
	return &Search{kernel: newKernel(g, w)}
}

// Run computes the shortest paths under W from src with the given
// restrictions.
func (s *Search) Run(src int, opt Options) { s.TieWarnings += s.run(src, opt) }

// kernel is the per-vertex state of one search under W, the settle loop
// over it, and the accessors reading it; Search and RepairSearch each own
// one.
//
// Every edge weighs exactly one hop and W compares hops first, so Dijkstra
// under W settles every vertex at hop distance d before any at d+1, and
// level d in (tie, id) order. When level d starts, every relaxation into
// it has come from level d-1, so its ties are final. settle therefore runs
// a BFS by levels and sorts each level by (tie, id) before settling it:
// every relaxation, parent choice, Target early exit and tie warning
// happens in the order a heap would produce, with no heap.
type kernel struct {
	g *graph.Graph
	w []int64 // per-edge tie-breakers

	hops    []int32
	tie     []int64
	parent  []int32
	parentE []int32
	seen    []uint32 // epoch when first labelled
	done    []uint32 // epoch when settled
	vOff    []uint32 // epoch when vertex disabled
	eOff    []uint32 // epoch when edge disabled
	ep      uint32

	// in is non-nil when the last run repaired in's base tree: settle
	// searched only its region, and vertices outside it keep their base
	// labels.
	in *bfs.Tree

	next  []int32 // vertices labelled for the level after the current one
	level []item  // the level being settled
}

// item is one vertex of the level being settled, with its final tie sum.
type item struct {
	tie int64
	v   int32
}

// byTieID orders a level the way Dijkstra under W settles it.
func byTieID(a, b item) int {
	if c := cmp.Compare(a.tie, b.tie); c != 0 {
		return c
	}
	return cmp.Compare(a.v, b.v)
}

func newKernel(g *graph.Graph, w *Assignment) kernel {
	n, m := g.N(), g.M()
	return kernel{
		g:       g,
		w:       w.tie,
		hops:    make([]int32, n),
		tie:     make([]int64, n),
		parent:  make([]int32, n),
		parentE: make([]int32, n),
		seen:    make([]uint32, n),
		done:    make([]uint32, n),
		vOff:    make([]uint32, n),
		eOff:    make([]uint32, m),
		next:    make([]int32, 0, n),
		level:   make([]item, 0, n),
	}
}

// begin starts a run: a new epoch, so no vertex is labelled or settled,
// with the given masks stamped.
func (k *kernel) begin(opt Options) {
	k.ep++
	if k.ep == 0 { // wrapped; reset stamps
		clear(k.seen)
		clear(k.done)
		clear(k.vOff)
		clear(k.eOff)
		k.ep = 1
	}
	for _, v := range opt.DisabledVertices {
		k.vOff[v] = k.ep
	}
	for _, e := range opt.DisabledEdges {
		k.eOff[e] = k.ep
	}
}

// run searches the whole graph from src and returns the tie warnings it
// observed.
func (k *kernel) run(src int, opt Options) int {
	k.in = nil
	k.begin(opt)
	if k.vOff[src] == k.ep {
		return 0
	}
	k.hops[src], k.tie[src] = 0, 0
	k.parent[src], k.parentE[src] = -1, -1
	k.seen[src] = k.ep
	seed := [1]int64{int64(src)}
	return k.settle(seed[:], opt.Target)
}

// settle runs the level-synchronous search. seeds are labelled vertices
// packed as hops<<32 | v and grouped by ascending hops (bfs.Tree.SortSeeds),
// not fully sorted: each joins the level of its hops, and every level is
// sorted by (tie, id) before it settles.
// When k.in is set, only its region is searched. The run stops once
// target (≥ 0) settles. settle returns the tie warnings it observed.
//
//ftbfs:hotpath
func (k *kernel) settle(seeds []int64, target int) int {
	ep, w, in := k.ep, k.w, k.in
	hops, tie, parent, parentE := k.hops, k.tie, k.parent, k.parentE
	seen, done, vOff, eOff := k.seen, k.done, k.vOff, k.eOff
	next, level := k.next[:0], k.level[:0]
	ties, si := 0, 0
	for d := int32(0); si < len(seeds) || len(next) > 0; d++ {
		if len(next) == 0 {
			d = max(d, int32(seeds[si]>>32)) // jump over empty levels
		}
		level = level[:0]
		for _, v := range next {
			level = append(level, item{tie[v], v})
		}
		for ; si < len(seeds) && int32(seeds[si]>>32) == d; si++ {
			// A seed reached on a shorter inside path settled earlier.
			if v := int32(seeds[si]); done[v] != ep {
				level = append(level, item{tie[v], v})
			}
		}
		slices.SortFunc(level, byTieID)
		next = next[:0]
		nh := d + 1
		for _, it := range level {
			v := it.v
			done[v] = ep
			if int(v) == target {
				k.next, k.level = next, level
				return ties
			}
			for _, a := range k.g.Arcs(int(v)) {
				u, eid := a.To, a.ID
				if done[u] == ep || vOff[u] == ep || eOff[eid] == ep || (in != nil && !in.In(u)) {
					continue
				}
				nt := it.tie + w[eid]
				switch {
				case seen[u] != ep || nh < hops[u]:
					// First label, or a seed reached on a shorter inside
					// path: u joins the next level.
					seen[u] = ep
					hops[u], tie[u] = nh, nt
					parent[u], parentE[u] = v, eid
					next = append(next, u)
				case nh == hops[u] && nt < tie[u]:
					tie[u] = nt
					parent[u], parentE[u] = v, eid
				case nh == hops[u] && nt == tie[u] && parent[u] != v:
					ties++
				}
			}
		}
	}
	k.next, k.level = next, level
	return ties
}

// Graph returns the graph the search is bound to.
func (k *kernel) Graph() *graph.Graph { return k.g }

// Reachable reports whether v is reachable under the last run's
// restrictions: settled, or outside a repaired region with a base label.
// With a Target option, only vertices settled before the target report
// true, plus, for RepairSearch, the vertices its repair kept.
func (k *kernel) Reachable(v int) bool {
	return k.done[v] == k.ep || (k.in != nil && !k.in.In(int32(v)) && k.hops[v] >= 0)
}

// HopDist returns the unweighted distance to v from the last run's source,
// or -1 when unreachable.
func (k *kernel) HopDist(v int) int32 {
	if !k.Reachable(v) {
		return -1
	}
	return k.hops[v]
}

// Dist returns the full weight to v and whether v is reachable.
func (k *kernel) Dist(v int) (Weight, bool) {
	if !k.Reachable(v) {
		return Weight{}, false
	}
	return Weight{Hops: k.hops[v], Tie: k.tie[v]}, true
}

// PathTo returns the unique shortest path from the source to v under W, or
// nil when v is unreachable.
func (k *kernel) PathTo(v int) path.Path {
	if !k.Reachable(v) {
		return nil
	}
	n := int(k.hops[v]) + 1
	p := make(path.Path, n)
	i := n - 1
	for u := v; u != -1; u = int(k.parent[u]) {
		p[i] = u
		i--
	}
	return p
}

// ParentOf returns the predecessor of v on its shortest path (-1 for the
// source or unreachable vertices).
func (k *kernel) ParentOf(v int) int {
	if !k.Reachable(v) {
		return -1
	}
	return int(k.parent[v])
}

// ParentEdgeOf returns the edge ID connecting v to its predecessor, or -1.
func (k *kernel) ParentEdgeOf(v int) int {
	if !k.Reachable(v) {
		return -1
	}
	return int(k.parentE[v])
}

// LastEdgeTo returns the final edge of the shortest path to v. ok is false
// when v is unreachable or is the source itself.
func (k *kernel) LastEdgeTo(v int) (graph.Edge, bool) {
	if !k.Reachable(v) || k.parent[v] < 0 {
		return graph.Edge{}, false
	}
	return graph.Edge{U: int(k.parent[v]), V: v}.Normalize(), true
}
