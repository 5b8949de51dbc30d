package main

import (
	"fmt"

	"repro/internal/graph"
)

// refGraph is the benchmark's own BFS over G∖F — the ground truth for the
// paper's guarantee dist(s,v,H∖F) = dist(s,v,G∖F). It shares no code with
// the repository's BFS kernels, so a kernel bug cannot hide itself.
type refGraph struct {
	n      int
	off    []int32 // adjacency of v: to[off[v]:off[v+1]], edge[...] the edge IDs
	to     []int32
	edge   []int32
	memo   map[[2]int32][]int32
	queue  []int32
	banned []bool
}

func newRefGraph(g *graph.Graph) *refGraph {
	n, m := g.N(), g.M()
	r := &refGraph{n: n, off: make([]int32, n+1), to: make([]int32, 2*m), edge: make([]int32, 2*m),
		memo: make(map[[2]int32][]int32), banned: make([]bool, m)}
	for id := 0; id < m; id++ {
		e := g.EdgeAt(id)
		r.off[e.U+1]++
		r.off[e.V+1]++
	}
	for v := 0; v < n; v++ {
		r.off[v+1] += r.off[v]
	}
	fill := append([]int32(nil), r.off[:n]...)
	for id := 0; id < m; id++ {
		e := g.EdgeAt(id)
		r.to[fill[e.U]], r.edge[fill[e.U]] = int32(e.V), int32(id)
		fill[e.U]++
		r.to[fill[e.V]], r.edge[fill[e.V]] = int32(e.U), int32(id)
		fill[e.V]++
	}
	return r
}

// dists returns BFS distances from the source in G minus the item's
// faults (-1 unreachable), memoized per fault set.
func (r *refGraph) dists(it item) []int32 {
	key := [2]int32{-1, -1}
	for j := 0; j < int(it.nf); j++ {
		key[j] = it.faults[j]
	}
	if key[0] > key[1] {
		key[0], key[1] = key[1], key[0]
	}
	if d, ok := r.memo[key]; ok {
		return d
	}
	if len(r.memo) >= 4096 {
		clear(r.memo) // cold streams never repeat a fault set
	}
	for _, f := range key {
		if f >= 0 {
			r.banned[f] = true
		}
	}
	d := make([]int32, r.n)
	for i := range d {
		d[i] = -1
	}
	d[source] = 0
	r.queue = append(r.queue[:0], source)
	for h := 0; h < len(r.queue); h++ {
		u := r.queue[h]
		for k := r.off[u]; k < r.off[u+1]; k++ {
			if v := r.to[k]; d[v] < 0 && !r.banned[r.edge[k]] {
				d[v] = d[u] + 1
				r.queue = append(r.queue, v)
			}
		}
	}
	for _, f := range key {
		if f >= 0 {
			r.banned[f] = false
		}
	}
	r.memo[key] = d
	return d
}

// usable reports whether u–v is an edge of G that the item's faults spare.
func (r *refGraph) usable(u, v int32, it item) bool {
	for k := r.off[u]; k < r.off[u+1]; k++ {
		if r.to[k] != v {
			continue
		}
		e := r.edge[k]
		return !(it.nf > 0 && it.faults[0] == e) && !(it.nf > 1 && it.faults[1] == e)
	}
	return false
}

// check compares one served answer with BFS on G∖F and returns a
// description of the first difference, or "" when the answer is right.
func (r *refGraph) check(it item, a answer) string {
	if a.err {
		return "item refused"
	}
	want := r.dists(it)
	switch it.kind {
	case kindDist:
		if a.dist != want[it.target] {
			return fmt.Sprintf("dist to %d under faults %v: got %d, want %d", it.target, it.faults[:it.nf], a.dist, want[it.target])
		}
	case kindDists:
		if len(a.dists) != len(want) {
			return fmt.Sprintf("dists table has %d entries, want %d", len(a.dists), len(want))
		}
		for v, d := range want {
			if a.dists[v] != d {
				return fmt.Sprintf("dists[%d] under faults %v: got %d, want %d", v, it.faults[:it.nf], a.dists[v], d)
			}
		}
	case kindRoute:
		d := want[it.target]
		if d < 0 {
			if a.path != nil || a.dist >= 0 {
				return fmt.Sprintf("route to %d under faults %v: got a path, want unreachable", it.target, it.faults[:it.nf])
			}
			return ""
		}
		p := a.path
		if len(p) != int(d)+1 || p[0] != source || p[len(p)-1] != it.target {
			return fmt.Sprintf("route to %d under faults %v: got %v, want a %d-hop path", it.target, it.faults[:it.nf], p, d)
		}
		for i := 1; i < len(p); i++ {
			if !r.usable(p[i-1], p[i], it) {
				return fmt.Sprintf("route to %d under faults %v uses missing or faulted edge %d-%d", it.target, it.faults[:it.nf], p[i-1], p[i])
			}
		}
	}
	return ""
}

// treeEdges returns the edges of a BFS tree of H (the structure's kept
// edges) rooted at the source, as G edge IDs.
func treeEdges(g *graph.Graph, keep func(id int) bool) []int32 {
	n := g.N()
	seen := make([]bool, n)
	seen[source] = true
	queue := []int32{source}
	var tree []int32
	for h := 0; h < len(queue); h++ {
		for _, a := range g.Arcs(int(queue[h])) {
			if !seen[a.To] && keep(int(a.ID)) {
				seen[a.To] = true
				tree = append(tree, a.ID)
				queue = append(queue, a.To)
			}
		}
	}
	return tree
}
