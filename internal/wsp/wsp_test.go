package wsp

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bfs"
	"repro/internal/gen"
	"repro/internal/graph"
)

func TestWeightLessAdd(t *testing.T) {
	a := Weight{Hops: 2, Tie: 100}
	b := Weight{Hops: 3, Tie: 1}
	if !a.Less(b) || b.Less(a) {
		t.Fatalf("hops should dominate")
	}
	c := Weight{Hops: 2, Tie: 99}
	if !c.Less(a) || a.Less(c) {
		t.Fatalf("tie should break equal hops")
	}
	sum := a.Add(c)
	if sum.Hops != 4 || sum.Tie != 199 {
		t.Fatalf("Add = %+v", sum)
	}
}

func TestAssignmentDeterministic(t *testing.T) {
	a := NewAssignment(10, 42)
	b := NewAssignment(10, 42)
	for i := 0; i < 10; i++ {
		if a.EdgeWeight(i) != b.EdgeWeight(i) {
			t.Fatalf("same seed produced different assignments")
		}
		w := a.EdgeWeight(i)
		if w.Hops != 1 || w.Tie <= 0 || w.Tie >= TieRange {
			t.Fatalf("edge weight out of range: %+v", w)
		}
	}
	c := NewAssignment(10, 43)
	same := true
	for i := 0; i < 10; i++ {
		if a.EdgeWeight(i) != c.EdgeWeight(i) {
			same = false
		}
	}
	if same {
		t.Fatalf("different seeds produced identical assignments")
	}
}

func TestSearchPathOnPathGraph(t *testing.T) {
	g := gen.PathGraph(5)
	s := NewSearch(g, NewAssignment(g.M(), 1))
	s.Run(0, Options{Target: -1})
	for v := 0; v < 5; v++ {
		if s.HopDist(v) != int32(v) {
			t.Fatalf("dist(%d) = %d", v, s.HopDist(v))
		}
	}
	p := s.PathTo(4)
	if p.String() != "0-1-2-3-4" {
		t.Fatalf("PathTo(4) = %v", p)
	}
	e, ok := s.LastEdgeTo(4)
	if !ok || e != (graph.Edge{U: 3, V: 4}) {
		t.Fatalf("LastEdgeTo = %v", e)
	}
	if _, ok := s.LastEdgeTo(0); ok {
		t.Fatalf("source should have no last edge")
	}
}

func TestSearchDisabledEdge(t *testing.T) {
	g := gen.Cycle(6) // 0-1-2-3-4-5-0
	e01, _ := g.EdgeID(0, 1)
	s := NewSearch(g, NewAssignment(g.M(), 1))
	s.Run(0, Options{Target: -1, DisabledEdges: []int{e01}})
	if s.HopDist(1) != 5 {
		t.Fatalf("dist(1) with 0-1 cut = %d, want 5", s.HopDist(1))
	}
}

func TestSearchDisabledVertex(t *testing.T) {
	g := gen.PathGraph(5)
	s := NewSearch(g, NewAssignment(g.M(), 1))
	s.Run(0, Options{Target: -1, DisabledVertices: []int{2}})
	if s.Reachable(3) || s.Reachable(4) {
		t.Fatalf("vertices past the cut should be unreachable")
	}
	if s.HopDist(3) != -1 {
		t.Fatalf("HopDist of unreachable = %d", s.HopDist(3))
	}
	if s.PathTo(4) != nil {
		t.Fatalf("PathTo of unreachable should be nil")
	}
}

func TestSearchDisabledSource(t *testing.T) {
	g := gen.PathGraph(3)
	s := NewSearch(g, NewAssignment(g.M(), 1))
	s.Run(0, Options{Target: -1, DisabledVertices: []int{0}})
	for v := 0; v < 3; v++ {
		if s.Reachable(v) {
			t.Fatalf("disabled source: %d reachable", v)
		}
	}
}

func TestSearchTargetEarlyExit(t *testing.T) {
	g := gen.PathGraph(10)
	s := NewSearch(g, NewAssignment(g.M(), 1))
	s.Run(0, Options{Target: 3})
	if s.HopDist(3) != 3 {
		t.Fatalf("target dist = %d", s.HopDist(3))
	}
	if s.Reachable(9) {
		t.Fatalf("early exit should not settle beyond target")
	}
}

func TestSearchMaskResetBetweenRuns(t *testing.T) {
	g := gen.Cycle(4)
	e01, _ := g.EdgeID(0, 1)
	s := NewSearch(g, NewAssignment(g.M(), 1))
	s.Run(0, Options{Target: -1, DisabledEdges: []int{e01}})
	if s.HopDist(1) != 3 {
		t.Fatalf("masked run dist = %d", s.HopDist(1))
	}
	s.Run(0, Options{Target: -1})
	if s.HopDist(1) != 1 {
		t.Fatalf("mask leaked into next run: dist = %d", s.HopDist(1))
	}
}

// Property: hop distances agree with plain BFS on random graphs, with and
// without random fault sets.
func TestSearchQuickAgainstBFS(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(40)
		g := gen.SparseGNP(n, 4, seed)
		s := NewSearch(g, NewAssignment(g.M(), seed+7))
		r := bfs.NewRunner(g)
		for trial := 0; trial < 5; trial++ {
			var faults []int
			for k := rng.Intn(3); k > 0; k-- {
				faults = append(faults, rng.Intn(g.M()))
			}
			src := rng.Intn(n)
			s.Run(src, Options{Target: -1, DisabledEdges: faults})
			r.Run(src, faults, nil)
			for v := 0; v < n; v++ {
				if s.HopDist(v) != r.Dist(v) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: the canonical path is valid, simple, has the reported length,
// and its subpaths are themselves canonical (subpath optimality of unique
// shortest paths).
func TestSearchQuickCanonicalSubpaths(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(30)
		g := gen.SparseGNP(n, 5, seed)
		w := NewAssignment(g.M(), seed+13)
		s := NewSearch(g, w)
		src := rng.Intn(n)
		s.Run(src, Options{Target: -1})
		// Record full paths for every target.
		paths := make(map[int]string)
		for v := 0; v < n; v++ {
			p := s.PathTo(v)
			if p == nil {
				return false // connected graph
			}
			if !p.ValidIn(g) || !p.IsSimple() || int32(p.Len()) != s.HopDist(v) {
				return false
			}
			paths[v] = p.String()
		}
		// Subpath optimality: the canonical path to an intermediate vertex u
		// on the canonical path to v equals that path's prefix.
		for v := 0; v < n; v++ {
			p := s.PathTo(v)
			for i := range p {
				prefix := p.Sub(0, i)
				if paths[p[i]] != prefix.String() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: re-running the same search gives identical trees (determinism),
// and tie warnings stay zero on small random graphs.
func TestSearchQuickDeterminism(t *testing.T) {
	f := func(seed int64) bool {
		n := 30
		g := gen.SparseGNP(n, 6, seed)
		w := NewAssignment(g.M(), seed)
		s1 := NewSearch(g, w)
		s2 := NewSearch(g, w)
		s1.Run(0, Options{Target: -1})
		s2.Run(0, Options{Target: -1})
		for v := 0; v < n; v++ {
			if s1.ParentOf(v) != s2.ParentOf(v) || s1.ParentEdgeOf(v) != s2.ParentEdgeOf(v) {
				return false
			}
		}
		return s1.TieWarnings == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSearchEpochWraparound(t *testing.T) {
	g := gen.PathGraph(4)
	s := NewSearch(g, NewAssignment(g.M(), 1))
	s.ep = ^uint32(0) - 1 // two runs from wrapping
	s.Run(0, Options{Target: -1})
	s.Run(0, Options{Target: -1, DisabledVertices: []int{1}})
	if s.Reachable(3) {
		t.Fatalf("mask ignored near epoch wrap")
	}
	s.Run(0, Options{Target: -1}) // wraps to 0 then resets to 1
	if !s.Reachable(3) || s.HopDist(3) != 3 {
		t.Fatalf("post-wrap run wrong: dist=%d", s.HopDist(3))
	}
}
