package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"time"

	"repro/internal/bfs"
	"repro/internal/core"
	"repro/internal/oracle"
	"repro/internal/path"
	"repro/internal/server"
	"repro/internal/server/batchcodec"
	"repro/internal/snap"
	"repro/internal/wsp"
)

// The traced run's layer ladder: the same graph, build settings and
// request streams as the served run, driven straight into each layer's
// public functions with a span around every call. Each metric is named
// after the module it times; doc.go maps it to the end-to-end metric it
// should move.

// Caps on the items each layer replays, so a traced run stays within its
// time budget on every workload.
const (
	maxCodecBatches  = 1000
	maxHandlerAllocs = 200
	maxRepairEvents  = 20000
	maxRouteProbes   = 2000
	netProbeBatches  = 500
	wspRepairEvents  = 1000
	wspSearchRuns    = 21
	snapRuns         = 5
	streamWSP        = 6
)

// sink keeps decoded values alive so the compiler cannot drop the decode
// loops being timed.
var sink uint32

// metricSet collects a run's reported metrics.
type metricSet map[string]metric

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// timeMedian runs f n times and returns the median duration.
func timeMedian(n int, tr *tracer, name string, f func()) time.Duration {
	xs := make([]float64, n)
	for i := range xs {
		id, t0 := tr.begin()
		start := time.Now()
		f()
		xs[i] = float64(time.Since(start))
		tr.end(name, id, 0, int64(i), t0)
	}
	return time.Duration(median(xs).Value)
}

// replayed is one item's oracle answer, kept for the codec layer.
type replayed struct {
	dist int32
	view oracle.DistView
	path []int
}

// layerRun holds what one layer hands the next.
type layerRun struct {
	s        *session
	tr       *tracer
	m        metricSet
	warmN    int // warm-up batches served before the reference phase
	refN     int // reference-phase batches
	st       *core.Structure
	snapshot []byte
	// From the oracle replay: per reference batch, the summed oracle time
	// (ns) and, for the first maxCodecBatches batches, every item's answer.
	batchNS []float64
	answers [][]replayed
	misses  []item // events the memo missed, in replay order
	routes  []item // route items (or probes, when the stream has none)
}

// runLayers measures every layer and adds its metrics to m.
func (s *session) runLayers(tr *tracer, m metricSet, warmN, refN int, daemonEdges int) error {
	lr := &layerRun{s: s, tr: tr, m: m, warmN: warmN, refN: refN}
	steps := []func() error{lr.core, lr.snap, lr.oracle, lr.bfs, lr.wsp, lr.codec, lr.server}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
	}
	if got := lr.st.NumEdges(); got != daemonEdges {
		s.failed.Add(1)
		s.problem("in-process dual build kept %d edges, ftbfsd kept %d", got, daemonEdges)
	}
	return nil
}

// core times a direct dual build with the served build's graph, seed and
// workers, then the single-worker baseline.
func (lr *layerRun) core() error {
	s := lr.s
	prog := &core.Progress{}
	var err error
	id, t0 := lr.tr.begin()
	start := time.Now()
	lr.st, err = core.BuildDual(s.g, source, &core.Options{Seed: buildSeed, Parallelism: s.workers, Progress: prog})
	wall := time.Since(start)
	lr.tr.end("core.BuildDual", id, 0, 0, t0)
	if err != nil {
		return fmt.Errorf("core.BuildDual: %w", err)
	}
	ps := prog.Snapshot()
	lr.m.set("core.base_gs", float64(ps.BaseNS)/1e9, "s")
	lr.m.set("core.events_gs", float64(ps.EventsNS)/1e9, "s")
	lr.m.set("core.union_gs", float64(ps.UnionNS)/1e9, "s")
	lr.m.set("core.dijkstras", float64(lr.st.Stats.Dijkstras), "count")
	lr.m.set("core.edges", float64(lr.st.NumEdges()), "count")
	lr.m.set("sched.parallel_eff", float64(ps.BaseNS+ps.EventsNS+ps.UnionNS)/(float64(wall)*float64(s.workers)), "ratio")
	id, t0 = lr.tr.begin()
	start = time.Now()
	_, err = core.BuildDual(s.g, source, &core.Options{Seed: buildSeed, Parallelism: 1})
	lr.m.set("core.build_1w_s", time.Since(start).Seconds(), "s")
	lr.tr.end("core.BuildDual.1w", id, 0, 1, t0)
	if err != nil {
		return fmt.Errorf("core.BuildDual (1 worker): %w", err)
	}
	return nil
}

// snap times the snapshot codec on the built structure and the oracle set
// construction a restore pays.
func (lr *layerRun) snap() error {
	sn := &snap.Snapshot{Structure: lr.st, Meta: snap.Meta{Graph: lr.s.graph, Build: "b1", Mode: "dual", Seed: buildSeed}}
	var buf bytes.Buffer
	var err error
	enc := timeMedian(snapRuns, lr.tr, "snap.Encode", func() {
		buf.Reset()
		if e := snap.Encode(&buf, sn); e != nil {
			err = e
		}
	})
	if err != nil {
		return fmt.Errorf("snap.Encode: %w", err)
	}
	lr.snapshot = append([]byte(nil), buf.Bytes()...)
	dec := timeMedian(snapRuns, lr.tr, "snap.Decode", func() {
		if _, e := snap.Decode(bytes.NewReader(lr.snapshot)); e != nil {
			err = e
		}
	})
	if err != nil {
		return fmt.Errorf("snap.Decode: %w", err)
	}
	newSet := timeMedian(snapRuns, lr.tr, "oracle.NewSetBudget", func() {
		if _, e := oracle.NewSetBudget(lr.st, 0, lr.s.w.cacheBytes, 0); e != nil {
			err = e
		}
	})
	if err != nil {
		return fmt.Errorf("oracle.NewSetBudget: %w", err)
	}
	lr.m.set("snap.encode_ms", float64(enc)/1e6, "ms")
	lr.m.set("snap.decode_ms", float64(dec)/1e6, "ms")
	lr.m.set("snap.bytes", float64(len(lr.snapshot)), "bytes")
	lr.m.set("oracle.newset_ms", float64(newSet)/1e6, "ms")
	return nil
}

// oracle replays the served warm-up and reference streams through one
// OracleSet with the served memo budget, classifying each call by its
// CacheStats delta.
func (lr *layerRun) oracle() error {
	s := lr.s
	set, err := oracle.NewSetBudget(lr.st, 0, s.w.cacheBytes, 0)
	if err != nil {
		return err
	}
	var hit, miss, route []float64
	var busy time.Duration
	var items []item
	var fbuf []int
	var lookups int64
	var ev0 int64
	for b := 0; b < lr.warmN+lr.refN; b++ {
		ref := b >= lr.warmN
		stream, idx := uint64(streamWarm), b
		if ref {
			stream, idx = streamRef, b-lr.warmN
			if idx == 0 {
				ev0 = set.CacheStats().Evictions
			}
		}
		items = s.gen.batch(stream, idx, items[:0])
		keep := ref && idx < maxCodecBatches
		var answers []replayed
		batchNS := 0.0
		var bid, id int64
		var bt0, t0 time.Time
		if ref {
			bid, bt0 = lr.tr.begin()
		}
		o := set.Acquire()
		for j, it := range items {
			faults := it.faultSlice(fbuf)
			fbuf = faults
			before := set.CacheStats()
			if ref {
				id, t0 = lr.tr.begin()
			}
			start := time.Now()
			var a replayed
			switch it.kind {
			case kindDist:
				a.dist, err = o.Dist(source, int(it.target), faults)
			case kindDists:
				a.view, err = o.DistsView(source, faults)
			case kindRoute:
				var p path.Path
				p, err = o.Route(source, int(it.target), faults)
				a.path = p
			}
			d := time.Since(start)
			if err != nil {
				set.Release(o)
				return fmt.Errorf("oracle replay item %d of batch %d: %w", j, idx, err)
			}
			if !ref {
				continue
			}
			lr.tr.end("oracle."+kindName[it.kind], id, bid, int64(idx), t0)
			after := set.CacheStats()
			ns := float64(d)
			batchNS += ns
			busy += d
			switch {
			case it.kind == kindRoute:
				route = append(route, ns)
				lr.routes = append(lr.routes, it)
			case after.Misses > before.Misses:
				miss = append(miss, ns)
				lookups++
				if len(lr.misses) < maxRepairEvents {
					lr.misses = append(lr.misses, it)
				}
			default:
				hit = append(hit, ns)
				lookups++
			}
			if keep {
				answers = append(answers, a)
			}
		}
		set.Release(o)
		if ref {
			lr.tr.end("oracle.batch", bid, 0, int64(idx), bt0)
			lr.batchNS = append(lr.batchNS, batchNS)
			if keep {
				lr.answers = append(lr.answers, answers)
			}
		}
	}
	if len(route) == 0 {
		// The stream asks for no routes (zipf-hot): probe Route on its
		// own targets and fault sets instead.
		o := set.Handle()
		for b := 0; len(route) < maxRouteProbes && b < lr.refN; b++ {
			items = s.gen.batch(streamRef, b, items[:0])
			for _, it := range items {
				it.kind = kindRoute
				id, t0 := lr.tr.begin()
				start := time.Now()
				if _, err := o.Route(source, int(it.target), it.faultSlice(fbuf)); err != nil {
					return fmt.Errorf("oracle route probe: %w", err)
				}
				route = append(route, float64(time.Since(start)))
				lr.tr.end("oracle.Route.probe", id, 0, int64(b), t0)
				lr.routes = append(lr.routes, it)
			}
		}
	}
	cs := set.CacheStats()
	lr.m.set("oracle.hit_rate", float64(len(hit))/float64(max(lookups, 1)), "ratio")
	lr.m.set("oracle.hit_p50_ns", median(hit).Value, "ns")
	lr.m.set("oracle.miss_p50_ns", median(miss).Value, "ns")
	mt, _ := tail(miss, 99)
	lr.m.set("oracle.miss_p99_ns", mt.Value, "ns")
	lr.m.set("oracle.route_p50_ns", median(route).Value, "ns")
	lr.m.set("oracle.evictions_per_1k", 1000*float64(cs.Evictions-ev0)/float64(max(lookups, 1)), "count")
	lr.m.set("oracle.delta_frac", float64(cs.DeltaEntries)/float64(max(cs.DeltaEntries+cs.FullEntries, 1)), "ratio")
	lr.m.set("oracle.bytes_per_entry", float64(cs.BytesUsed)/float64(max(cs.Len, 1)), "bytes")
	lr.m.set("oracle.pinned_bytes", float64(cs.PinnedBytes), "bytes")
	lr.m.set("oracle.busy_s", busy.Seconds(), "s")
	return nil
}

var kindName = [...]string{kindDist: "Dist", kindDists: "DistsView", kindRoute: "Route"}

// subFaults maps an item's fault set into H's edge IDs the way the oracle
// does: sorted, deduplicated, edges H never kept dropped.
func subFaults(it item, gToSub []int32, buf []int) []int {
	buf = buf[:0]
	for j := 0; j < int(it.nf); j++ {
		if sid := gToSub[it.faults[j]]; sid >= 0 {
			buf = append(buf, int(sid))
		}
	}
	slices.Sort(buf)
	return slices.Compact(buf)
}

// bfs times the repair kernel on H for every event the memo missed, and
// the path kernel for every route.
func (lr *layerRun) bfs() error {
	sub, gToSub := lr.s.g.SubgraphMapped(lr.st.Edges)
	rep := bfs.NewRepairer(sub)
	rep.Run(source, nil) // the base table, as the oracle pins it
	var lat []float64
	var changed, noop, incremental int
	var fbuf []int
	for i, it := range lr.misses {
		faults := subFaults(it, gToSub, fbuf)
		id, t0 := lr.tr.begin()
		start := time.Now()
		rep.Run(source, faults)
		lat = append(lat, float64(time.Since(start)))
		lr.tr.end("bfs.Repairer.Run", id, 0, int64(i), t0)
		if c, ok := rep.Changed(); ok {
			incremental++
			changed += len(c)
			if len(c) == 0 {
				noop++
			}
		}
	}
	attempts := max(len(lr.misses), 1)
	lr.m.set("bfs.repair_p50_ns", median(lat).Value, "ns")
	rt, _ := tail(lat, 99)
	lr.m.set("bfs.repair_p99_ns", rt.Value, "ns")
	lr.m.set("bfs.changed_mean", float64(changed)/float64(max(incremental, 1)), "count")
	lr.m.set("bfs.noop_frac", float64(noop)/float64(attempts), "ratio")
	lr.m.set("bfs.incremental_frac", float64(incremental)/float64(attempts), "ratio")

	runner := bfs.NewRunner(sub)
	var rl []float64
	for i, it := range lr.routes {
		if i == maxRouteProbes {
			break
		}
		faults := subFaults(it, gToSub, fbuf)
		id, t0 := lr.tr.begin()
		start := time.Now()
		runner.Run(source, faults, nil)
		_ = runner.PathTo(int(it.target))
		rl = append(rl, float64(time.Since(start)))
		lr.tr.end("bfs.Runner.Run", id, 0, int64(i), t0)
	}
	lr.m.set("bfs.runner_p50_ns", median(rl).Value, "ns")
	return nil
}

// wsp times the build plane's search kernels on G: a from-scratch
// Dijkstra, and the repair search on dual tree-edge fault events.
func (lr *layerRun) wsp() error {
	g := lr.s.g
	wa := wsp.NewAssignment(g.M(), buildSeed+1) // core's tie-breaking seed
	search := wsp.NewSearch(g, wa)
	full := timeMedian(wspSearchRuns, lr.tr, "wsp.Search.Run", func() {
		search.Run(source, wsp.Options{Target: -1})
	})
	lr.m.set("wsp.search_us", float64(full)/1e3, "us")

	rs := wsp.NewRepairSearch(g, wa, source)
	var tree []int
	for v := 0; v < g.N(); v++ {
		if e := rs.ParentEdgeOf(v); e >= 0 {
			tree = append(tree, e)
		}
	}
	r := rand.New(rand.NewPCG(uint64(lr.s.seed), streamWSP))
	lat := make([]float64, 0, wspRepairEvents)
	for i := 0; i < wspRepairEvents; i++ {
		faults := []int{tree[r.IntN(len(tree))], tree[r.IntN(len(tree))]}
		id, t0 := lr.tr.begin()
		start := time.Now()
		rs.Run(source, wsp.Options{Target: -1, DisabledEdges: faults})
		lat = append(lat, float64(time.Since(start)))
		lr.tr.end("wsp.RepairSearch.Run", id, 0, int64(i), t0)
	}
	lr.m.set("wsp.repair_p50_us", median(lat).Value/1e3, "us")
	rt, _ := tail(lat, 99)
	lr.m.set("wsp.repair_p99_us", rt.Value/1e3, "us")
	return nil
}

// codec times the binary batch protocol on the reference batches and
// their replayed answers, whichever protocol the workload serves.
func (lr *layerRun) codec() error {
	var rb batchcodec.RequestBuilder
	var rw batchcodec.ResponseWriter
	var items []item
	var reqFrames, respFrames [][]byte
	var reqEnc, reqDec, respEnc, respDec time.Duration
	nItems, nBytes := 0, 0
	for b, answers := range lr.answers {
		items = lr.s.gen.batch(streamRef, b, items[:0])
		id, t0 := lr.tr.begin()
		start := time.Now()
		frame := encodeBinary(&rb, items)
		reqEnc += time.Since(start)
		lr.tr.end("batchcodec.RequestBuilder", id, 0, int64(b), t0)
		reqFrames = append(reqFrames, frame)

		id, t0 = lr.tr.begin()
		start = time.Now()
		rw.Reset()
		for j, a := range answers {
			switch it := items[j]; {
			case it.kind == kindDists && a.view.Full != nil:
				rw.Dists(a.view.Full)
			case it.kind == kindDists:
				rw.DistsPatched(a.view.Base, a.view.Keys, a.view.Vals)
			case it.kind == kindRoute && a.path == nil:
				rw.Dist(-1, false)
			case it.kind == kindRoute:
				rw.Path(a.path)
			default:
				rw.Dist(a.dist, a.dist != bfs.Unreachable)
			}
		}
		resp := rw.Frame()
		respEnc += time.Since(start)
		lr.tr.end("batchcodec.ResponseWriter", id, 0, int64(b), t0)
		respFrames = append(respFrames, resp)
		nItems += len(items)
		nBytes += len(frame) + len(resp)
	}
	for b := range reqFrames {
		id, t0 := lr.tr.begin()
		start := time.Now()
		req, err := batchcodec.DecodeRequest(reqFrames[b])
		if err != nil {
			return fmt.Errorf("batchcodec.DecodeRequest: %w", err)
		}
		for i := 0; i < req.Len(); i++ {
			sink ^= req.Item(i).Fault0
		}
		reqDec += time.Since(start)
		lr.tr.end("batchcodec.DecodeRequest", id, 0, int64(b), t0)

		id, t0 = lr.tr.begin()
		start = time.Now()
		resp, err := batchcodec.DecodeResponse(respFrames[b])
		if err != nil {
			return fmt.Errorf("batchcodec.DecodeResponse: %w", err)
		}
		it := resp.Iter()
		for it.Next() {
			sink ^= uint32(it.Record().Dist)
			for j := 0; j < it.ValueLen(); j++ {
				sink ^= it.Value(j)
			}
		}
		respDec += time.Since(start)
		lr.tr.end("batchcodec.DecodeResponse", id, 0, int64(b), t0)
	}
	n := float64(max(nItems, 1))
	lr.m.set("batchcodec.req_encode_ns_per_item", float64(reqEnc)/n, "ns")
	lr.m.set("batchcodec.req_decode_ns_per_item", float64(reqDec)/n, "ns")
	lr.m.set("batchcodec.resp_encode_ns_per_item", float64(respEnc)/n, "ns")
	lr.m.set("batchcodec.resp_decode_ns_per_item", float64(respDec)/n, "ns")
	lr.m.set("batchcodec.bytes_per_item", float64(nBytes)/n, "bytes")
	return nil
}

// server times the HTTP handler in process on the served bodies: the
// structure is restored through PUT …/snapshot, warmed with the warm-up
// stream, then handed the reference stream, and finally the same bodies
// go to ftbfsd over the socket and to the handler to price the network.
func (lr *layerRun) server() error {
	s := lr.s
	srv := server.New(&server.Config{CacheBytes: s.w.cacheBytes})
	defer func() { _ = srv.Shutdown(context.Background()) }()
	h := srv.Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPut, "/v1/graphs/"+s.graph+"/builds/b1/snapshot", bytes.NewReader(lr.snapshot)))
	if rec.Code != http.StatusCreated {
		return fmt.Errorf("in-process snapshot restore: status %d: %s", rec.Code, rec.Body.Bytes())
	}
	path := "/v1/graphs/" + s.graph + "/builds/b1/query"
	var rb batchcodec.RequestBuilder
	var body []byte
	var items []item
	serve := func(stream uint64, idx int, name string, parent int64) (time.Duration, error) {
		items = s.gen.batch(stream, idx, items[:0])
		body = s.encode(&rb, body, items)
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		req.Header.Set("Content-Type", s.contentType())
		rec := httptest.NewRecorder()
		id, t0 := lr.tr.begin()
		start := time.Now()
		h.ServeHTTP(rec, req)
		d := time.Since(start)
		lr.tr.end(name, id, parent, int64(idx), t0)
		if rec.Code != http.StatusOK {
			return d, fmt.Errorf("in-process batch %d: status %d", idx, rec.Code)
		}
		return d, nil
	}
	for b := 0; b < lr.warmN; b++ {
		if _, err := serve(streamWarm, b, "server.warm", 0); err != nil {
			return err
		}
	}
	lat := make([]float64, 0, lr.refN)
	for b := 0; b < lr.refN; b++ {
		d, err := serve(streamRef, b, "server.Handler", 0)
		if err != nil {
			return err
		}
		lat = append(lat, float64(d)/1e3)
	}
	hp50 := median(lat).Value
	ht, _ := tail(lat, 99)
	lr.m.set("server.handler_p50_us", hp50, "us")
	lr.m.set("server.handler_p99_us", ht.Value, "us")
	lr.m.set("server.self_us", hp50-median(lr.batchNS).Value/1e3, "us")

	// Allocations per request, counted over prepared requests so request
	// construction stays outside the count.
	n := min(maxHandlerAllocs, lr.refN)
	reqs := make([]*http.Request, n)
	recs := make([]*httptest.ResponseRecorder, n)
	for b := range reqs {
		items = s.gen.batch(streamRef, b, items[:0])
		reqs[b] = httptest.NewRequest(http.MethodPost, path, bytes.NewReader(s.encode(&rb, nil, items)))
		reqs[b].Header.Set("Content-Type", s.contentType())
		recs[b] = httptest.NewRecorder()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for b := range reqs {
		h.ServeHTTP(recs[b], reqs[b])
	}
	runtime.ReadMemStats(&m1)
	lr.m.set("server.handler_allocs", float64(m1.Mallocs-m0.Mallocs)/float64(max(n, 1)), "count")

	// The network's share: identical bodies over the loopback socket to
	// ftbfsd (one connection, one request at a time) and into the handler.
	var sock, hand []float64
	var resp bytes.Buffer
	for b := 0; b < netProbeBatches; b++ {
		items = s.gen.batch(streamNet, b, items[:0])
		body = s.encode(&rb, body, items)
		pid, pt0 := lr.tr.begin()
		id, t0 := lr.tr.begin()
		start := time.Now()
		_, failed, err := s.post(body, &resp, len(items), false)
		sock = append(sock, float64(time.Since(start))/1e3)
		lr.tr.end("net.roundtrip.seq", id, pid, int64(b), t0)
		s.attempted.Add(int64(len(items)))
		if err != nil {
			s.failed.Add(int64(len(items)))
			s.problem("net probe batch %d: %v", b, err)
		} else {
			s.failed.Add(int64(failed))
		}
		d, err := serve(streamNet, b, "server.Handler.net", pid)
		lr.tr.end("net.probe", pid, 0, int64(b), pt0)
		if err != nil {
			return err
		}
		hand = append(hand, float64(d)/1e3)
	}
	lr.m.set("net.overhead_p50_us", median(sock).Value-median(hand).Value, "us")
	return nil
}
