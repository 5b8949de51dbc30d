package wsp

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// heapSearch is a binary-heap Dijkstra under W that settles in (hops, tie,
// id) order. It is the reference the level-synchronous settle loop must
// match exactly, including under exact weight ties.
type heapSearch struct {
	g       *graph.Graph
	w       []int64
	hops    []int32
	tie     []int64
	parent  []int32
	parentE []int32
	seen    []bool
	done    []bool
	vOff    []bool
	eOff    []bool
	heap    []heapItem
	ties    int
}

type heapItem struct {
	hops int32
	tie  int64
	v    int32
}

func (a heapItem) less(b heapItem) bool {
	if a.hops != b.hops {
		return a.hops < b.hops
	}
	if a.tie != b.tie {
		return a.tie < b.tie
	}
	return a.v < b.v
}

func (h *heapSearch) push(it heapItem) {
	h.heap = append(h.heap, it)
	for i := len(h.heap) - 1; i > 0; {
		p := (i - 1) / 2
		if !h.heap[i].less(h.heap[p]) {
			break
		}
		h.heap[i], h.heap[p] = h.heap[p], h.heap[i]
		i = p
	}
}

func (h *heapSearch) pop() heapItem {
	s := h.heap
	top, last := s[0], len(s)-1
	s[0] = s[last]
	s = s[:last]
	for i := 0; ; {
		m := i
		for _, c := range []int{2*i + 1, 2*i + 2} {
			if c < len(s) && s[c].less(s[m]) {
				m = c
			}
		}
		if m == i {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	h.heap = s
	return top
}

func runHeap(g *graph.Graph, w *Assignment, src int, opt Options) *heapSearch {
	n := g.N()
	h := &heapSearch{
		g: g, w: w.tie,
		hops: make([]int32, n), tie: make([]int64, n),
		parent: make([]int32, n), parentE: make([]int32, n),
		seen: make([]bool, n), done: make([]bool, n),
		vOff: make([]bool, n), eOff: make([]bool, g.M()),
	}
	for _, v := range opt.DisabledVertices {
		h.vOff[v] = true
	}
	for _, e := range opt.DisabledEdges {
		h.eOff[e] = true
	}
	if h.vOff[src] {
		return h
	}
	h.seen[src], h.parent[src], h.parentE[src] = true, -1, -1
	h.push(heapItem{v: int32(src)})
	for len(h.heap) > 0 {
		it := h.pop()
		v := int(it.v)
		if h.done[v] || it.hops != h.hops[v] || it.tie != h.tie[v] {
			continue // settled, or a stale entry
		}
		h.done[v] = true
		if v == opt.Target {
			return h
		}
		for _, a := range g.Arcs(v) {
			u, eid := a.To, a.ID
			if h.vOff[u] || h.eOff[eid] || h.done[u] {
				continue
			}
			nh, nt := it.hops+1, it.tie+h.w[eid]
			switch {
			case !h.seen[u] || nh < h.hops[u] || (nh == h.hops[u] && nt < h.tie[u]):
				h.seen[u] = true
				h.hops[u], h.tie[u] = nh, nt
				h.parent[u], h.parentE[u] = int32(v), eid
				h.push(heapItem{nh, nt, u})
			case nh == h.hops[u] && nt == h.tie[u] && int(h.parent[u]) != v:
				h.ties++
			}
		}
	}
	return h
}

// tieAssignment draws every tie from [1, r], so that for small r most
// equal-hop paths tie exactly; r = TieRange-1 is NewAssignment's range.
func tieAssignment(m int, r, seed int64) *Assignment {
	rng := rand.New(rand.NewSource(seed))
	t := make([]int64, m)
	for i := range t {
		t[i] = 1 + rng.Int63n(r)
	}
	return &Assignment{tie: t}
}

// TestSettleOrderMatchesHeap pins the level-synchronous Search to the heap
// reference under tie ranges {1,2,3} (exact ties everywhere) and the real
// TieRange: reachability, hops, parent edge and the tie-warning count must
// agree on every run, with Target exits and edge and vertex masks. It also
// checks RepairSearch's reachability and hops against Search under the same
// ties, where the repair's parents may legitimately differ.
func TestSettleOrderMatchesHeap(t *testing.T) {
	graphs := []*graph.Graph{gen.SparseGNP(150, 5, 1), gen.Grid(9, 11), gen.Hypercube(6)}
	for gi, g := range graphs {
		for _, r := range []int64{1, 2, 3, TieRange - 1} {
			name := fmt.Sprintf("g%d/ties=1..%d", gi, r)
			if r == TieRange-1 {
				name = fmt.Sprintf("g%d/ties=TieRange", gi)
			}
			t.Run(name, func(t *testing.T) {
				w := tieAssignment(g.M(), r, int64(gi)*31+r)
				rng := rand.New(rand.NewSource(int64(gi)*7 + r))
				s := NewSearch(g, w)
				src := rng.Intn(g.N())
				rep := NewRepairSearch(g, w, src)
				warned := 0
				for trial := 0; trial < 40; trial++ {
					opt := Options{Target: -1}
					for k := rng.Intn(3); k > 0; k-- {
						opt.DisabledEdges = append(opt.DisabledEdges, rng.Intn(g.M()))
					}
					if rng.Intn(3) == 0 {
						opt.DisabledVertices = append(opt.DisabledVertices, rng.Intn(g.N()))
					}
					if rng.Intn(2) == 0 {
						opt.Target = rng.Intn(g.N())
					}
					before := s.TieWarnings
					s.Run(src, opt)
					h := runHeap(g, w, src, opt)
					if got := s.TieWarnings - before; got != h.ties {
						t.Fatalf("trial %d: TieWarnings %d, heap %d", trial, got, h.ties)
					}
					warned += h.ties
					for v := 0; v < g.N(); v++ {
						if s.Reachable(v) != h.done[v] {
							t.Fatalf("trial %d: Reachable(%d) = %v, heap %v", trial, v, s.Reachable(v), h.done[v])
						}
						if !h.done[v] {
							continue
						}
						if s.HopDist(v) != h.hops[v] || s.ParentEdgeOf(v) != int(h.parentE[v]) {
							t.Fatalf("trial %d: v=%d hops/parentE = %d/%d, heap %d/%d",
								trial, v, s.HopDist(v), s.ParentEdgeOf(v), h.hops[v], h.parentE[v])
						}
					}
					rep.Run(src, opt)
					check := func(v int) {
						if rep.Reachable(v) != s.Reachable(v) || rep.HopDist(v) != s.HopDist(v) {
							t.Fatalf("trial %d: repair v=%d reachable/hops = %v/%d, search %v/%d",
								trial, v, rep.Reachable(v), rep.HopDist(v), s.Reachable(v), s.HopDist(v))
						}
					}
					if opt.Target >= 0 {
						check(opt.Target)
						continue
					}
					for v := 0; v < g.N(); v++ {
						check(v)
					}
				}
				if r <= 3 && warned == 0 {
					t.Fatal("no tie warnings under a small tie range: the test is vacuous")
				}
			})
		}
	}
}
