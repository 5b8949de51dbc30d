package wsp

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/gen"
)

func BenchmarkSearchFull(b *testing.B) {
	for _, n := range []int{100, 400, 1600} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := gen.SparseGNP(n, 8, 1)
			s := NewSearch(g, NewAssignment(g.M(), 1))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Run(0, Options{Target: -1})
			}
		})
	}
}

func BenchmarkSearchEarlyExit(b *testing.B) {
	g := gen.SparseGNP(1600, 8, 1)
	s := NewSearch(g, NewAssignment(g.M(), 1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Run(0, Options{Target: i % g.N()})
	}
}

func BenchmarkSearchMasked(b *testing.B) {
	g := gen.SparseGNP(400, 8, 1)
	s := NewSearch(g, NewAssignment(g.M(), 1))
	faults := []int{1, 5}
	off := []int{7, 9, 11}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Run(0, Options{Target: -1, DisabledEdges: faults, DisabledVertices: off})
	}
}

// BenchmarkRepairSearch is the build plane's kernel shape: one base tree,
// repaired under dual faults drawn from its tree edges.
func BenchmarkRepairSearch(b *testing.B) {
	g := gen.SparseGNP(1600, 8, 1)
	r := NewRepairSearch(g, NewAssignment(g.M(), 1), 0)
	var tree []int
	for v := 0; v < g.N(); v++ {
		if e := r.ParentEdgeOf(v); e >= 0 {
			tree = append(tree, e)
		}
	}
	rng := rand.New(rand.NewSource(9))
	faultSets := make([][]int, 64)
	for i := range faultSets {
		faultSets[i] = []int{tree[rng.Intn(len(tree))], tree[rng.Intn(len(tree))]}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Run(0, Options{Target: -1, DisabledEdges: faultSets[i%len(faultSets)]})
	}
}

// BenchmarkRepairSearchTarget is the replace engine's kernel shape: Target
// runs toward a vertex t with one edge of t's base path π faulted
// alongside a non-tree edge.
func BenchmarkRepairSearchTarget(b *testing.B) {
	g := gen.SparseGNP(1600, 8, 1)
	r := NewRepairSearch(g, NewAssignment(g.M(), 1), 0)
	_, parentE := r.Base()
	isTree := make([]bool, g.M())
	for _, e := range parentE {
		if e >= 0 {
			isTree[e] = true
		}
	}
	var nonTree []int
	for id, tree := range isTree {
		if !tree {
			nonTree = append(nonTree, id)
		}
	}
	rng := rand.New(rand.NewSource(9))
	type query struct {
		target int
		faults []int
	}
	queries := make([]query, 64)
	for i := range queries {
		t := rng.Intn(g.N())
		for parentE[t] < 0 {
			t = rng.Intn(g.N())
		}
		pi := r.PathTo(t)
		onPi := parentE[pi[1+rng.Intn(len(pi)-1)]]
		queries[i] = query{t, []int{int(onPi), nonTree[rng.Intn(len(nonTree))]}}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		r.Run(0, Options{Target: q.target, DisabledEdges: q.faults})
	}
}
