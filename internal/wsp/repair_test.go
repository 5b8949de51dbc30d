package wsp

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// checkRepairMatchesScratch compares every accessor of a RepairSearch
// against a from-scratch Search after identical runs. For full runs
// (target < 0) all vertices must agree bit-for-bit; for Target runs only
// the contract set (target + its path) is compared.
func checkRepairMatchesScratch(t *testing.T, rep *RepairSearch, ref *Search, target int, tag string) {
	t.Helper()
	g := rep.Graph()
	check := func(v int) {
		t.Helper()
		if rep.Reachable(v) != ref.Reachable(v) {
			t.Fatalf("%s: Reachable(%d) = %v repair vs %v scratch", tag, v, rep.Reachable(v), ref.Reachable(v))
		}
		if rep.HopDist(v) != ref.HopDist(v) {
			t.Fatalf("%s: HopDist(%d) = %d repair vs %d scratch", tag, v, rep.HopDist(v), ref.HopDist(v))
		}
		dw, dok := rep.Dist(v)
		sw, sok := ref.Dist(v)
		if dw != sw || dok != sok {
			t.Fatalf("%s: Dist(%d) = (%v,%v) repair vs (%v,%v) scratch", tag, v, dw, dok, sw, sok)
		}
		if rep.ParentOf(v) != ref.ParentOf(v) {
			t.Fatalf("%s: ParentOf(%d) = %d repair vs %d scratch", tag, v, rep.ParentOf(v), ref.ParentOf(v))
		}
		if rep.ParentEdgeOf(v) != ref.ParentEdgeOf(v) {
			t.Fatalf("%s: ParentEdgeOf(%d) = %d repair vs %d scratch", tag, v, rep.ParentEdgeOf(v), ref.ParentEdgeOf(v))
		}
		re, rok := rep.LastEdgeTo(v)
		se, sok2 := ref.LastEdgeTo(v)
		if re != se || rok != sok2 {
			t.Fatalf("%s: LastEdgeTo(%d) = (%v,%v) repair vs (%v,%v) scratch", tag, v, re, rok, se, sok2)
		}
		rp, sp := rep.PathTo(v), ref.PathTo(v)
		if len(rp) != len(sp) {
			t.Fatalf("%s: PathTo(%d) has %d vs %d vertices", tag, v, len(rp), len(sp))
		}
		for i := range rp {
			if rp[i] != sp[i] {
				t.Fatalf("%s: PathTo(%d) differs at %d: %v vs %v", tag, v, i, rp, sp)
			}
		}
	}
	if target >= 0 {
		check(target)
		for _, u := range ref.PathTo(target) {
			check(u)
		}
		return
	}
	for v := 0; v < g.N(); v++ {
		check(v)
	}
}

// TestRepairSearchEquivalence drives a RepairSearch and a from-scratch
// Search through identical fault sequences over random graphs and demands
// bit-identical answers: the repair kernel must be observationally
// indistinguishable, including parent tie-breaks, so golden structure
// fingerprints cannot move.
func TestRepairSearchEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		g := gen.SparseGNP(220, 5, seed)
		w := NewAssignment(g.M(), seed*101)
		src := int(seed) % g.N()
		rep := NewRepairSearch(g, w, src)
		ref := NewSearch(g, w)
		// Construction state must equal a fault-free run.
		ref.Run(src, Options{Target: -1})
		checkRepairMatchesScratch(t, rep, ref, -1, "base")
		rng := rand.New(rand.NewSource(seed * 7))
		for trial := 0; trial < 60; trial++ {
			opt := Options{Target: -1}
			for k := rng.Intn(4); k > 0; k-- {
				opt.DisabledEdges = append(opt.DisabledEdges, rng.Intn(g.M()))
			}
			if rng.Intn(3) == 0 {
				v := rng.Intn(g.N())
				if v != src {
					opt.DisabledVertices = append(opt.DisabledVertices, v)
				}
			}
			if rng.Intn(4) == 0 {
				opt.Target = rng.Intn(g.N())
			}
			rep.Run(src, opt)
			ref.Run(src, opt)
			checkRepairMatchesScratch(t, rep, ref, opt.Target, "trial")
		}
	}
}

// TestRepairSearchFaultClasses pins the classification boundaries one at a
// time: non-tree faults (exact no-op), a leaf subtree, a deep subtree
// (fault on the source's own tree edge), disconnecting faults, a disabled
// source, and a foreign source (scratch delegation).
func TestRepairSearchFaultClasses(t *testing.T) {
	g := gen.TreePlusChords(150, 40, 9)
	w := NewAssignment(g.M(), 77)
	src := 0
	rep := NewRepairSearch(g, w, src)
	ref := NewSearch(g, w)

	var treeEdges, nonTree []int
	for id := 0; id < g.M(); id++ {
		e := g.EdgeAt(id)
		if rep.ParentEdgeOf(e.U) == id || rep.ParentEdgeOf(e.V) == id {
			treeEdges = append(treeEdges, id)
		} else {
			nonTree = append(nonTree, id)
		}
	}
	if len(treeEdges) == 0 || len(nonTree) == 0 {
		t.Fatalf("degenerate instance: %d tree edges, %d non-tree", len(treeEdges), len(nonTree))
	}
	cases := []Options{
		{Target: -1, DisabledEdges: nonTree[:min(3, len(nonTree))]}, // pure no-op
		{Target: -1, DisabledEdges: treeEdges[len(treeEdges)-1:]},   // leaf-ish subtree
		{Target: -1, DisabledEdges: treeEdges[:1]},                  // subtree at the root
		{Target: -1, DisabledEdges: []int{treeEdges[0], treeEdges[len(treeEdges)/2], nonTree[0]}},
		{Target: -1, DisabledVertices: []int{g.N() - 1}},
		{Target: -1, DisabledVertices: []int{src}}, // everything unreachable
	}
	for i, opt := range cases {
		rep.Run(src, opt)
		ref.Run(src, opt)
		checkRepairMatchesScratch(t, rep, ref, -1, "class")
		_ = i
	}
	// Foreign source delegates to scratch and stays correct.
	other := g.N() / 2
	opt := Options{Target: -1, DisabledEdges: treeEdges[:2]}
	rep.Run(other, opt)
	ref.Run(other, opt)
	checkRepairMatchesScratch(t, rep, ref, -1, "foreign-src")
	// And the repair path still works after the excursion.
	opt = Options{Target: -1, DisabledEdges: treeEdges[:2]}
	rep.Run(src, opt)
	ref.Run(src, opt)
	checkRepairMatchesScratch(t, rep, ref, -1, "home-src")
}

// TestRepairSearchVolumeFallback forces the volume cap through its input
// — a fault on a root-adjacent tree edge whose subtree holds more than
// max(m, 256) arc volume — and checks the fallback is transparent (and
// recoverable on the next small repair).
func TestRepairSearchVolumeFallback(t *testing.T) {
	g := gen.SparseGNP(200, 5, 3)
	w := NewAssignment(g.M(), 5)
	limit := max(g.M(), 256)
	var rep *RepairSearch
	src, big := -1, -1
	for s := 0; s < g.N() && big < 0; s++ {
		rep = NewRepairSearch(g, w, s)
		vol := make([]int, g.N()) // arc volume of each root child's subtree
		for v := 0; v < g.N(); v++ {
			c := v
			for c >= 0 && rep.ParentOf(c) != s {
				c = rep.ParentOf(c)
			}
			if c >= 0 {
				vol[c] += g.Degree(v)
			}
		}
		for c, cv := range vol {
			if cv > limit {
				src, big = s, rep.ParentEdgeOf(c)
			}
		}
	}
	if big < 0 {
		t.Fatal("no root-adjacent subtree exceeds the volume cap")
	}
	ref := NewSearch(g, w)
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		opt := Options{Target: -1, DisabledEdges: []int{big, rng.Intn(g.M())}}
		rep.Run(src, opt)
		ref.Run(src, opt)
		checkRepairMatchesScratch(t, rep, ref, -1, "capped")
		if _, ok := rep.Changed(); ok {
			t.Fatalf("trial %d: a detach past the volume cap was repaired in place", trial)
		}
	}
	opt := Options{Target: -1, DisabledEdges: []int{0}}
	rep.Run(src, opt)
	ref.Run(src, opt)
	checkRepairMatchesScratch(t, rep, ref, -1, "recovered")
}

// TestRepairSearchDisable pins the NoRepair escape hatch: a disabled
// repair engine must behave exactly like a Search.
func TestRepairSearchDisable(t *testing.T) {
	g := gen.SparseGNP(120, 5, 2)
	w := NewAssignment(g.M(), 9)
	rep := NewRepairSearch(g, w, 0)
	rep.DisableRepair()
	ref := NewSearch(g, w)
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 15; trial++ {
		opt := Options{Target: -1, DisabledEdges: []int{rng.Intn(g.M())}}
		rep.Run(0, opt)
		ref.Run(0, opt)
		checkRepairMatchesScratch(t, rep, ref, -1, "disabled")
		if _, ok := rep.Changed(); ok {
			t.Fatal("disabled repair reported an incremental run")
		}
	}
}

// TestRepairSearchRankedFallThrough faults a tree edge e together with the
// best surviving crossing arc of some x in e's subtree R, so the seed scan
// must walk past a faulted candidate to the next one. For x below the cut
// root, x's top-ranked candidate (its base parent) also lies inside R and
// must be skipped. The best crossing arc is computed here from fault-free
// labels, independently of the ranked lists.
func TestRepairSearchRankedFallThrough(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		g := gen.SparseGNP(160, 5, seed)
		w := NewAssignment(g.M(), seed*13)
		src := int(seed) % g.N()
		rep := NewRepairSearch(g, w, src)
		ref := NewSearch(g, w)
		ref.Run(src, Options{Target: -1})
		bHops := make([]int32, g.N())
		bTie := make([]int64, g.N())
		for v := range g.N() {
			dw, _ := ref.Dist(v)
			bHops[v], bTie[v] = dw.Hops, dw.Tie
		}
		base, bParentE := rep.Base()
		inR := make([]bool, g.N())
		cases, inside := 0, 0
		for root := range g.N() {
			e := int(bParentE[root])
			if e < 0 {
				continue
			}
			sub := []int{root}
			for i := 0; i < len(sub); i++ {
				for _, c := range base.Children(sub[i]) {
					sub = append(sub, int(c))
				}
			}
			for _, v := range sub {
				inR[v] = true
			}
			for _, x := range sub {
				best, bestW := -1, Weight{}
				for _, a := range g.Arcs(x) {
					u, id := int(a.To), int(a.ID)
					if inR[u] || id == e {
						continue
					}
					o := Weight{Hops: bHops[u] + 1, Tie: bTie[u] + w.EdgeWeight(id).Tie}
					if best < 0 || o.Less(bestW) || (o == bestW && id < best) {
						best, bestW = id, o
					}
				}
				if best < 0 {
					continue
				}
				if x != root {
					inside++
				}
				cases++
				for _, target := range []int{-1, x} {
					opt := Options{Target: target, DisabledEdges: []int{e, best}}
					rep.Run(src, opt)
					ref.Run(src, opt)
					checkRepairMatchesScratch(t, rep, ref, target, fmt.Sprintf("seed=%d e=%d x=%d target=%d", seed, e, x, target))
				}
			}
			for _, v := range sub {
				inR[v] = false
			}
		}
		if cases == 0 || inside == 0 {
			t.Fatalf("seed %d: %d fall-through cases, %d with the top candidate inside R", seed, cases, inside)
		}
	}
}

// TestRepairSearchSeedTies pins the seed tie count on a hand-built graph.
// The source 0 reaches x = 1 through 2 (the edge the test faults), a pair
// of worse but mutually tied offers through 3 and 4, and k exactly equal
// best offers through 5, 6, …. Detaching x must seed it from the lowest
// edge ID among the k best and report k-1 tie warnings: only candidates
// tied with the seed count, not the worse pair the arc order meets first.
func TestRepairSearchSeedTies(t *testing.T) {
	for _, k := range []int{2, 3} {
		b := graph.NewBuilder(5 + k)
		var ties []int64
		add := func(u, v int, tie int64) int {
			ties = append(ties, tie)
			return b.MustAddEdge(u, v)
		}
		for v := 2; v < 5+k; v++ {
			add(0, v, 1) // every neighbour of x sits at (1, 1)
		}
		add(1, 3, 8) // worse pair: (2, 9) twice
		add(1, 4, 8)
		firstBest := -1
		for i := range k {
			if id := add(1, 5+i, 4); i == 0 { // best: (2, 5), k times
				firstBest = id
			}
		}
		cut := add(1, 2, 1) // base parent edge: (2, 2)
		g := b.Freeze()
		w := &Assignment{tie: ties}
		rep := NewRepairSearch(g, w, 0)
		if rep.ParentEdgeOf(1) != cut || rep.TieWarnings() != 0 {
			t.Fatalf("k=%d: base parent edge %d, %d tie warnings; want %d, 0", k, rep.ParentEdgeOf(1), rep.TieWarnings(), cut)
		}
		for _, target := range []int{-1, 1} {
			before := rep.TieWarnings()
			rep.Run(0, Options{Target: target, DisabledEdges: []int{cut}})
			if got := rep.TieWarnings() - before; got != k-1 {
				t.Fatalf("k=%d target=%d: %d tie warnings, want %d", k, target, got, k-1)
			}
			if d, _ := rep.Dist(1); d != (Weight{Hops: 2, Tie: 5}) || rep.ParentEdgeOf(1) != firstBest {
				t.Fatalf("k=%d target=%d: x at %v via edge %d, want (2, 5) via %d", k, target, d, rep.ParentEdgeOf(1), firstBest)
			}
		}
	}
}
