package bfs

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gen"
)

// compareDists demands bit-identical distance tables between the repairer
// and a from-scratch runner after identical runs.
func compareDists(t *testing.T, rep *Repairer, ref *Runner, tag string) {
	t.Helper()
	rd, sd := rep.Dists(), ref.Dists()
	for v := range sd {
		if rd[v] != sd[v] {
			t.Fatalf("%s: dist[%d] = %d repair vs %d scratch", tag, v, rd[v], sd[v])
		}
		if rep.Dist(v) != sd[v] {
			t.Fatalf("%s: Dist(%d) = %d repair vs %d scratch", tag, v, rep.Dist(v), sd[v])
		}
	}
}

// TestSortSeeds pins the counting sort both repair kernels seed from: the
// result is a permutation of the input grouped by ascending level, for
// every level a seed can take (1 through depth+1), and the tree can be
// re-frozen without losing its scratch.
func TestSortSeeds(t *testing.T) {
	g := gen.SparseGNP(300, 4, 5)
	r := NewRunner(g)
	tr := NewTree(g)
	rng := rand.New(rand.NewSource(3))
	for _, src := range []int{0, 17, 299} {
		r.Run(src, nil, nil)
		tr.Freeze(r.Dists(), r.parent)
		depth := slices.Max(r.Dists())
		for trial := 0; trial < 50; trial++ {
			var seeds []int64
			for _, v := range rng.Perm(g.N())[:rng.Intn(g.N())] {
				level := 1 + rng.Int63n(int64(depth)+1)
				seeds = append(seeds, level<<32|int64(v))
			}
			got := slices.Clone(seeds)
			tr.SortSeeds(got)
			for i := 1; i < len(got); i++ {
				if got[i-1]>>32 > got[i]>>32 {
					t.Fatalf("src %d: level %d before level %d", src, got[i-1]>>32, got[i]>>32)
				}
			}
			slices.Sort(got)
			slices.Sort(seeds)
			if !slices.Equal(got, seeds) {
				t.Fatalf("src %d: SortSeeds is not a permutation of its input", src)
			}
		}
	}
}

// TestRepairRegimeEquivalence drives the repairer through random fault
// sequences in both scan regimes (the fallback and base runs inherit the
// runner's compact/bitset split) and pins every distance table against a
// from-scratch BFS. Sources move mid-sequence to exercise rebasing.
func TestRepairRegimeEquivalence(t *testing.T) {
	for _, bitset := range []bool{false, true} {
		for seed := int64(1); seed <= 3; seed++ {
			g := gen.SparseGNP(300, 6, seed)
			rep := NewRepairer(g)
			ref := NewRunner(g)
			if bitset {
				rep.r.ForceBitset()
				ref.ForceBitset()
			}
			rng := rand.New(rand.NewSource(seed * 29))
			src := rng.Intn(g.N())
			for trial := 0; trial < 60; trial++ {
				var faults []int
				for k := rng.Intn(4); k > 0; k-- {
					faults = append(faults, rng.Intn(g.M()))
				}
				if rng.Intn(10) == 0 {
					src = rng.Intn(g.N())
				}
				rep.Run(src, faults)
				ref.Run(src, faults, nil)
				compareDists(t, rep, ref, "trial")
				if ch, ok := rep.Changed(); ok {
					// The changed list must cover every vertex whose
					// distance actually moved.
					moved := map[int32]bool{}
					for _, v := range ch {
						moved[v] = true
					}
					for v := 0; v < g.N(); v++ {
						if rep.Dist(v) != rep.base.dist[v] && !moved[int32(v)] {
							t.Fatalf("trial %d: dist[%d] changed but not in Changed()", trial, v)
						}
					}
				}
			}
		}
	}
}

// TestRepairFaultClasses pins each classification boundary in isolation:
// pure non-tree faults (exact no-op with an empty changed set), a leaf
// subtree, a subtree at the root's own tree edge, and a disconnecting
// fault (path graph: the subtree below the cut is unreachable).
func TestRepairFaultClasses(t *testing.T) {
	g := gen.TreePlusChords(150, 40, 5)
	rep := NewRepairer(g)
	ref := NewRunner(g)
	rep.Run(0, nil)
	var treeEdges, nonTree []int
	for id := 0; id < g.M(); id++ {
		e := g.EdgeAt(id)
		if (rep.base.dist[e.V] == rep.base.dist[e.U]+1 && int(rep.base.parent[e.V]) == e.U) ||
			(rep.base.dist[e.U] == rep.base.dist[e.V]+1 && int(rep.base.parent[e.U]) == e.V) {
			treeEdges = append(treeEdges, id)
		} else {
			nonTree = append(nonTree, id)
		}
	}
	if len(treeEdges) == 0 || len(nonTree) == 0 {
		t.Fatalf("degenerate instance: %d tree, %d non-tree", len(treeEdges), len(nonTree))
	}
	// Pure non-tree faults: exact no-op.
	rep.Run(0, nonTree[:min(3, len(nonTree))])
	ref.Run(0, nonTree[:min(3, len(nonTree))], nil)
	compareDists(t, rep, ref, "non-tree")
	if ch, ok := rep.Changed(); !ok || len(ch) != 0 {
		t.Fatalf("non-tree faults: Changed() = (%v, %v), want empty incremental", ch, ok)
	}
	// Leaf-ish and root subtrees.
	for _, id := range []int{treeEdges[len(treeEdges)-1], treeEdges[0]} {
		rep.Run(0, []int{id})
		ref.Run(0, []int{id}, nil)
		compareDists(t, rep, ref, "subtree")
		if _, ok := rep.Changed(); !ok {
			t.Fatalf("tree fault %d unexpectedly fell back to full recompute", id)
		}
	}
	// Disconnecting fault: cutting a path strands the far side.
	pg := gen.PathGraph(40)
	prep, pref := NewRepairer(pg), NewRunner(pg)
	prep.Run(0, []int{20})
	pref.Run(0, []int{20}, nil)
	compareDists(t, prep, pref, "disconnect")
	for v := 21; v < 40; v++ {
		if prep.Dist(v) != Unreachable {
			t.Fatalf("disconnect: dist[%d] = %d, want Unreachable", v, prep.Dist(v))
		}
	}
}

// TestRepairVolumeFallback forces the volume cap and checks the fallback
// answers are identical and recovery works.
func TestRepairVolumeFallback(t *testing.T) {
	g := gen.SparseGNP(200, 5, 7)
	rep := NewRepairer(g)
	ref := NewRunner(g)
	rep.Run(0, nil)
	rep.base.volLimit = 1
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		faults := []int{rng.Intn(g.M()), rng.Intn(g.M())}
		rep.Run(0, faults)
		ref.Run(0, faults, nil)
		compareDists(t, rep, ref, "capped")
	}
	rep.base.volLimit = g.M()
	faults := []int{1, 2, 3}
	rep.Run(0, faults)
	ref.Run(0, faults, nil)
	compareDists(t, rep, ref, "recovered")
}

// FuzzRepairEquivalence fuzzes (graph seed, source, fault selection) and
// demands the repaired table equal the from-scratch table bit for bit, in
// both scan regimes.
func FuzzRepairEquivalence(f *testing.F) {
	f.Add(int64(1), uint16(0), uint64(0x1234), uint8(2))
	f.Add(int64(2), uint16(7), uint64(0xffff_ffff), uint8(4))
	f.Add(int64(3), uint16(299), uint64(0), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, srcRaw uint16, faultBits uint64, nFaults uint8) {
		g := gen.SparseGNP(120, 5, 1+(seed&7))
		src := int(srcRaw) % g.N()
		k := int(nFaults) % 5
		var faults []int
		for i := 0; i < k; i++ {
			faults = append(faults, int((faultBits>>(i*13))&0x1fff)%g.M())
		}
		for _, bitset := range []bool{false, true} {
			rep := NewRepairer(g)
			ref := NewRunner(g)
			if bitset {
				rep.r.ForceBitset()
				ref.ForceBitset()
			}
			rep.Run(src, faults)
			ref.Run(src, faults, nil)
			compareDists(t, rep, ref, "fuzz")
			// Second run over the same base exercises the undo path.
			rep.Run(src, faults[:k/2])
			ref.Run(src, faults[:k/2], nil)
			compareDists(t, rep, ref, "fuzz-undo")
		}
	})
}

// TestScratchPool pins the arena ownership contract: arenas recycle, the
// repairer is built lazily, and a recycled arena still answers correctly.
func TestScratchPool(t *testing.T) {
	g := gen.SparseGNP(100, 5, 1)
	pool := NewScratchPool(g)
	s := pool.Acquire()
	if s.rep != nil {
		t.Fatal("repairer built eagerly")
	}
	s.Runner().Run(0, nil, nil)
	want := append([]int32(nil), s.Runner().Dists()...)
	s.Repairer().Run(0, []int{1})
	pool.Release(s)
	s2 := pool.Acquire()
	defer pool.Release(s2)
	s2.Runner().Run(0, nil, nil)
	for v, d := range s2.Runner().Dists() {
		if d != want[v] {
			t.Fatalf("recycled arena: dist[%d] = %d, want %d", v, d, want[v])
		}
	}
	s2.Repairer().Run(0, nil)
	for v, d := range s2.Repairer().Dists() {
		if d != want[v] {
			t.Fatalf("recycled repairer: dist[%d] = %d, want %d", v, d, want[v])
		}
	}
}

func BenchmarkRepairVsScratch(b *testing.B) {
	g := gen.SparseGNP(1600, 6, 2015)
	faultSets := make([][]int, 64)
	rng := rand.New(rand.NewSource(9))
	for i := range faultSets {
		faultSets[i] = []int{rng.Intn(g.M()), rng.Intn(g.M())}
	}
	b.Run("scratch", func(b *testing.B) {
		r := NewRunner(g)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Run(0, faultSets[i%len(faultSets)], nil)
		}
	})
	b.Run("repair", func(b *testing.B) {
		r := NewRepairer(g)
		r.Run(0, nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Run(0, faultSets[i%len(faultSets)])
		}
	})
}
