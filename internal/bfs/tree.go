package bfs

import "repro/internal/graph"

// Tree is a frozen base shortest-path tree of one source: the hop depth
// and parent of every vertex, the children in CSR form, and the subtree
// detach both repair kernels (Repairer here, wsp.RepairSearch for the
// tie-carrying search) run before they re-settle anything.
//
// A repair cuts the roots of the subtrees a fault set invalidates, then
// Detach collects their descendants into the region R — the only vertices
// whose answers may differ from the base. R doubles as the undo list: a
// caller that patched per-vertex arrays restores them from the base for
// every vertex of Region before the next Reset. Membership is
// epoch-stamped, so Reset costs O(1) and never clears an n-sized array
// (except once every 2^32 resets, when the epoch wraps).
//
// A Tree is not safe for concurrent use.
type Tree struct {
	g      *graph.Graph
	dist   []int32 // -1 for vertices unreachable from the source
	parent []int32 // -1 for the source and unreachable vertices
	// Children in CSR form, each list in ascending vertex ID:
	// kids[kidOff[v]:kidOff[v+1]].
	kidOff []int32
	kids   []int32

	ep     uint32
	in     []uint32 // in[v] == ep iff v is in the region
	region []int32

	// volLimit caps the arc volume (sum of degrees) of the region: past
	// it a from-scratch search is cheaper than a repair.
	volLimit int

	// SortSeeds scratch: one counter per seed level (sized by Freeze from
	// the maximum depth) and a copy of the seeds (at most one per vertex).
	levelCnt []int32
	seedTmp  []int64
}

// NewTree returns an empty tree bound to g; Freeze fills it.
func NewTree(g *graph.Graph) *Tree {
	n := g.N()
	return &Tree{
		g:        g,
		dist:     make([]int32, n),
		parent:   make([]int32, n),
		kidOff:   make([]int32, n+1),
		in:       make([]uint32, n),
		volLimit: max(g.M(), 256),
		seedTmp:  make([]int64, n),
	}
}

// Freeze copies a search result as the base tree and rebuilds the child
// CSR. dist holds hop distances (-1 unreachable); parent[v] is read only
// where dist[v] > 0. Any previous region is forgotten.
func (t *Tree) Freeze(dist, parent []int32) {
	copy(t.dist, dist)
	off := t.kidOff
	clear(off)
	depth := int32(0)
	for v, d := range t.dist {
		t.parent[v] = -1
		depth = max(depth, d)
		if d > 0 {
			t.parent[v] = parent[v]
			off[parent[v]+1]++
		}
	}
	n := len(t.dist)
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	if cap(t.kids) < int(off[n]) {
		t.kids = make([]int32, off[n])
	}
	t.kids = t.kids[:off[n]]
	// Fill with off[p] as p's cursor; afterwards off[p] has advanced to
	// the start of p+1, so shifting by one restores the offsets.
	for v, p := range t.parent {
		if p >= 0 {
			t.kids[off[p]] = int32(v)
			off[p]++
		}
	}
	copy(off[1:], off[:n])
	off[0] = 0
	// A seed's level is at most depth+1 (one hop past a base vertex);
	// SortSeeds needs one counter per level plus one.
	if cap(t.levelCnt) < int(depth)+3 {
		t.levelCnt = make([]int32, depth+3)
	}
	t.levelCnt = t.levelCnt[:depth+3]
	t.Reset()
}

// Dists returns the base distance table (-1 unreachable). Callers must not
// mutate it.
func (t *Tree) Dists() []int32 { return t.dist }

// Parents returns the base parent table (-1 for the source and unreachable
// vertices). Callers must not mutate it.
func (t *Tree) Parents() []int32 { return t.parent }

// Children returns v's children in ascending vertex ID. Callers must not
// mutate the slice.
func (t *Tree) Children(v int) []int32 { return t.kids[t.kidOff[v]:t.kidOff[v+1]] }

// Reset forgets the region of the previous repair. Callers that patched
// per-vertex state restore it from the base for every vertex of Region
// first.
func (t *Tree) Reset() {
	t.region = t.region[:0]
	t.ep++
	if t.ep == 0 { // wrapped; reset stamps
		clear(t.in)
		t.ep = 1
	}
}

// Cut adds v, and with Detach its whole subtree, to the region.
func (t *Tree) Cut(v int) {
	if t.in[v] != t.ep {
		t.in[v] = t.ep
		t.region = append(t.region, int32(v))
	}
}

// Detach expands the region to every base-tree descendant of the cut
// roots, accumulating arc volume. It reports false when the volume passes
// max(m, 256): repairing that much costs more than searching from scratch.
//
//ftbfs:hotpath
func (t *Tree) Detach() bool {
	ep, in := t.ep, t.in
	vol := 0
	for i := 0; i < len(t.region); i++ {
		v := t.region[i]
		vol += t.g.Degree(int(v))
		if vol > t.volLimit {
			return false
		}
		for _, c := range t.kids[t.kidOff[v]:t.kidOff[v+1]] {
			if in[c] != ep {
				in[c] = ep
				t.region = append(t.region, c)
			}
		}
	}
	return true
}

// SortSeeds groups repair seeds, packed as level<<32 | v, by ascending
// level with one counting-sort pass. Order within a level is unspecified:
// both repair sweeps only need the grouping (the WSP settle loop re-sorts
// each level by (tie, id) itself). Levels must lie in [0, depth+1] of the
// frozen tree, and there may be at most one seed per vertex.
//
//ftbfs:hotpath
func (t *Tree) SortSeeds(seeds []int64) {
	if len(seeds) < 2 {
		return
	}
	lo, hi := int32(seeds[0]>>32), int32(seeds[0]>>32)
	for _, s := range seeds[1:] {
		l := int32(s >> 32)
		lo, hi = min(lo, l), max(hi, l)
	}
	if lo == hi {
		return
	}
	// cnt[l-lo+1] counts level l; the prefix sums turn cnt[l-lo] into the
	// first slot of level l, advanced as the level fills.
	cnt := t.levelCnt[:hi-lo+2]
	clear(cnt)
	tmp := t.seedTmp[:len(seeds)]
	copy(tmp, seeds)
	for _, s := range tmp {
		cnt[int32(s>>32)-lo+1]++
	}
	for i := 1; i < len(cnt); i++ {
		cnt[i] += cnt[i-1]
	}
	for _, s := range tmp {
		l := int32(s>>32) - lo
		seeds[cnt[l]] = s
		cnt[l]++
	}
}

// In reports whether v is in the current region.
func (t *Tree) In(v int32) bool { return t.in[v] == t.ep }

// Region returns the current region: the cut roots and, after a
// successful Detach, all their descendants. Valid until the next Reset.
func (t *Tree) Region() []int32 { return t.region }
