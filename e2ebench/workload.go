package main

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"strconv"
	"strings"

	"repro/internal/edgelist"
	"repro/internal/gen"
	"repro/internal/graph"
)

// The graph every workload serves: the sparse G(n, c/n) family with a
// connecting backbone. Its seeds are fixed per workload, so build costs do
// not move with the workload seed; the seed drives the request streams.
const (
	graphN      = 1500
	graphAvgDeg = 6
	source      = 0
	buildSeed   = 0 // tie-breaking seed sent with every build
)

// workload fixes one traffic mix and its reference constants. The rates,
// the latency limit and the ladder are constants of the benchmark: a run
// on another commit must offer exactly the same load.
type workload struct {
	name       string
	binary     bool  // batchcodec frames; JSON batches otherwise
	batch      int   // items per request
	cacheBytes int64 // ftbfsd -cache-bytes
	// zipf selects the hot stream (single or dual fault events drawn
	// Zipf(1.2) over a random ranking of G's edges, dist items only);
	// otherwise the cold stream (a fresh dual fault set per item, one fault
	// on the source's BFS tree in H; 70% dist, 20% dists, 10% route).
	zipf bool
	// refRate is the offered load, in items/s, at which p50_ms and p99_ms
	// are measured; limitMS bounds the tail latency on the ladder whose
	// rung k offers ladderBase·2^(k/8) items/s, k = 0..ladderTop.
	refRate    float64
	limitMS    float64
	ladderBase float64
	ladderTop  int
	// graphSeeds are the graphs built. Serving workloads build one graph
	// several times during set-up; build-dual builds each once in its timed
	// phase and serves the last.
	graphSeeds []int64
	buildPlane bool
	// sampleEvery picks the served batches whose answers are checked
	// against BFS on G∖F: batch i is checked when i%sampleEvery == 0.
	sampleEvery int
}

var workloads = []*workload{
	{
		name: "zipf-hot", binary: true, batch: 64, cacheBytes: 256 << 10, zipf: true,
		refRate: 128000, limitMS: 5, ladderBase: 64000, ladderTop: 30,
		graphSeeds: []int64{1}, sampleEvery: 64,
	},
	{
		name: "cold-json", batch: 16, cacheBytes: 1 << 20,
		refRate: 8000, limitMS: 10, ladderBase: 4000, ladderTop: 30,
		graphSeeds: []int64{1}, sampleEvery: 16,
	},
	{
		name: "build-dual", batch: 16, cacheBytes: 1 << 20, buildPlane: true,
		refRate: 8000, limitMS: 10, ladderBase: 4000, ladderTop: 30,
		graphSeeds: []int64{2, 3, 4}, sampleEvery: 16,
	},
}

func workloadByName(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// ladderProbes is the number of rungs the binary search over the
// ladderTop+1 rungs of the ladder visits.
func (w *workload) ladderProbes() int { return bits.Len(uint(w.ladderTop + 1)) }

// makeGraph returns the workload graph for seed and its edge-list text.
// The graph is re-read from that text, exactly as ftbfsd parses the
// upload, so edge IDs (the fault vocabulary) agree on both sides.
func makeGraph(seed int64) (*graph.Graph, string, error) {
	g0 := gen.SparseGNP(graphN, graphAvgDeg, seed)
	var b strings.Builder
	fmt.Fprintf(&b, "n %d\n", g0.N())
	for id := 0; id < g0.M(); id++ {
		e := g0.EdgeAt(id)
		b.WriteString(strconv.Itoa(e.U))
		b.WriteByte(' ')
		b.WriteString(strconv.Itoa(e.V))
		b.WriteByte('\n')
	}
	text := b.String()
	g, err := edgelist.Read(strings.NewReader(text))
	if err != nil {
		return nil, "", fmt.Errorf("re-read generated graph: %w", err)
	}
	return g, text, nil
}

type kind uint8

const (
	kindDist kind = iota
	kindDists
	kindRoute
)

// item is one query of a batch; the source is always the structure's.
type item struct {
	kind   kind
	nf     uint8
	target int32
	faults [2]int32
}

func (it item) faultSlice(buf []int) []int {
	buf = buf[:0]
	for j := 0; j < int(it.nf); j++ {
		buf = append(buf, int(it.faults[j]))
	}
	return buf
}

// Stream identifiers: every phase draws its own deterministic batches, so
// batch idx of a phase is the same on every run with the same seed.
const (
	streamWarm   = 1
	streamRef    = 2
	streamTraced = 3
	streamNet    = 4
	streamVerify = 5
	streamLadder = 100 // + probe number
)

// streamGen draws a workload's batches from the workload seed.
type streamGen struct {
	w    *workload
	seed uint64
	n, m int
	perm []int32 // zipf: the random popularity ranking of G's edges
	tree []int32 // cold: edges of the source's BFS tree in H
}

// newStreamGen draws streams from the workload seed. The zipf popularity
// ranking is drawn from the graph's seed instead: it fixes which failure
// events are hot, and with it how costly the hot set is, so it belongs to
// the workload like the graph itself; the workload seed draws the events.
func newStreamGen(w *workload, seed, graphSeed int64, g *graph.Graph, treeEdges []int32) *streamGen {
	sg := &streamGen{w: w, seed: uint64(seed), n: g.N(), m: g.M(), tree: treeEdges}
	if w.zipf {
		r := rand.New(rand.NewPCG(uint64(graphSeed), 0x5eed))
		sg.perm = make([]int32, sg.m)
		for i, p := range r.Perm(sg.m) {
			sg.perm[i] = int32(p)
		}
	}
	return sg
}

// streamKey separates the streams of one seed.
func streamKey(seed, stream uint64) uint64 { return seed ^ stream*0x9e3779b97f4a7c15 }

// batch appends batch idx of stream to out.
func (sg *streamGen) batch(stream uint64, idx int, out []item) []item {
	r := rand.New(rand.NewPCG(streamKey(sg.seed, stream), uint64(idx)))
	if sg.w.zipf {
		z := rand.NewZipf(r, 1.2, 1, uint64(sg.m-1))
		for i := 0; i < sg.w.batch; i++ {
			it := item{kind: kindDist, nf: uint8(1 + r.IntN(2)), target: int32(r.IntN(sg.n))}
			for j := 0; j < int(it.nf); j++ {
				it.faults[j] = sg.perm[z.Uint64()]
			}
			out = append(out, it)
		}
		return out
	}
	for i := 0; i < sg.w.batch; i++ {
		out = append(out, sg.coldItem(r))
	}
	return out
}

// coldItem draws one cold-stream item: a dual fault set with one fault on
// the source's BFS tree in H, so the repair detaches a real subtree.
func (sg *streamGen) coldItem(r *rand.Rand) item {
	it := item{nf: 2, target: int32(r.IntN(sg.n))}
	switch u := r.IntN(10); {
	case u < 7:
		it.kind = kindDist
	case u < 9:
		it.kind = kindDists
	default:
		it.kind = kindRoute
	}
	it.faults[0] = sg.tree[r.IntN(len(sg.tree))]
	it.faults[1] = int32(r.IntN(sg.m))
	return it
}

// verifyBatch draws build-dual's post-build check: dual fault sets with
// both faults on the source's BFS tree in H, half of them whole tables.
func (sg *streamGen) verifyBatch(idx, size int, out []item) []item {
	r := rand.New(rand.NewPCG(streamKey(sg.seed, streamVerify), uint64(idx)))
	for i := 0; i < size; i++ {
		it := item{kind: kindDist, nf: 2, target: int32(r.IntN(sg.n))}
		if i%2 == 1 {
			it.kind = kindDists
		}
		it.faults[0] = sg.tree[r.IntN(len(sg.tree))]
		it.faults[1] = sg.tree[r.IntN(len(sg.tree))]
		out = append(out, it)
	}
	return out
}
