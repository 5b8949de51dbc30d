// Command e2ebench is the repository's end-to-end benchmark. It builds
// nothing itself: run.sh builds ftbfsd and this command from the checkout,
// then runs one workload against a real ftbfsd over loopback HTTP.
//
//	bash e2ebench/run.sh --workload zipf-hot --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it print every
// metric by name and unit, the machine fingerprint, and the sample counts
// behind each percentile. A full report (fingerprint, metrics, ladder
// probes, the first failures) is written under .bench_build/e2ebench-results.
// Results taken on different fingerprints are not comparable.
//
// # Workloads
//
// Every workload serves G = sparse G(n=1500, c/n=6/n) registered as an
// uploaded edge list, with dual structures built from source 0.
//
//   - zipf-hot: batchcodec batches of 64 dist items, each with a single or
//     dual fault event drawn Zipf(1.2) over a random ranking of G's edges
//     (fixed by the graph seed), under -cache-bytes 262144, below the
//     event working set. The query
//     plane's fast path: socket, codec and memo hits do the work.
//   - cold-json: JSON batches of 16 items (70% dist, 20% dists, 10%
//     route), each with a fresh dual fault set with one fault on the
//     source's BFS tree in H, under -cache-bytes 1048576. The repair
//     kernel, memo inserts and evictions and JSON encoding do the work.
//   - build-dual: sequential dual builds (parallelism = CPUs) of three
//     graphs, each verified on arrival; the cold stream is then served on
//     the last one. The build plane does the work.
//
// # End-to-end metrics (--trace 0)
//
// setup_s is the median over several set-ups in one run: spawn ftbfsd,
// register the graph, build and wait for ready (serving workloads), or
// spawn and register the graphs (build-dual). build_cpu_s is the median
// CPU time (user + system) ftbfsd spends on one of the run's dual builds.
// cpu_us_per_item is ftbfsd's CPU time per item served at the workload's
// fixed reference rate. Both are what the work costs the operator, and
// both are blind to the time the host takes the CPUs away. peak_rss_mb is
// ftbfsd's VmHWM.
//
// Five figures are printed, and kept in the report, but are not metrics,
// because on a small shared VM they do not repeat: the host's load moved
// them between runs minutes apart by more than any bound a regression
// check could use (ten-seed quartile spreads up to 0.2 of the median for
// build_s, 0.33 for p50_ms, 0.37 for max_qps, 1.9 for p99_ms). build_s is
// the median client-observed POST-to-ready time of the run's builds.
// p50_ms and p99_ms are request latencies at the reference rate, open
// loop, timed from each request's scheduled send; p99_ms is the highest
// percentile with at least ten samples beyond it, printed with its sample
// count. max_qps is the throughput at the highest rung of the fixed
// geometric ladder that keeps up: median latency within the workload's
// limit, no backlog left unsent and no failed item. fail_frac (failed ÷
// attempted items: transport errors, non-2xx replies, in-band item
// errors, wrong answers) is zero on a correct program; it is the result
// line's failed and attempted.
//
// While requests are served, and through build-dual's set-up, a child
// process keeps one SCHED_IDLE spinning thread per CPU (spin.go), so that
// latencies measure the program rather than the host's delay in waking a
// halted vCPU.
//
// # Per-layer metrics (--trace 1) and what they should move
//
// Each layer metric names the end-to-end metric it should move and on which
// workload; the printed latency figures are named too, since the same
// layers set them.
//
//   - loadgen.late_p99_ms, loadgen.backlog_max: the generator's own wait,
//     explaining p99_ms on both serving workloads.
//   - net.overhead_p50_us (socket round trip minus in-process handler
//     time on identical bodies) → cpu_us_per_item and p50_ms on zipf-hot.
//   - server.handler_p50_us, server.handler_p99_us, server.handler_allocs
//     → cpu_us_per_item and p50_ms/p99_ms on both serving workloads;
//     server.self_us (handler minus the oracle replay of the same items) →
//     cpu_us_per_item and p50_ms on cold-json; server.stats_p99_us
//     (dashboard scrape latency under load) → p99_ms on zipf-hot;
//     server.build_queued_ms → build_s and setup_s;
//     server.stats_hit_rate is the served memo hit rate read from
//     GET /v1/stats, to compare with oracle.hit_rate.
//   - batchcodec.*_ns_per_item, batchcodec.bytes_per_item →
//     cpu_us_per_item and max_qps on zipf-hot; no move on cold-json.
//   - oracle.hit_rate, oracle.hit_p50_ns → cpu_us_per_item and max_qps on
//     zipf-hot; oracle.miss_p50_ns, oracle.miss_p99_ns,
//     oracle.route_p50_ns, oracle.evictions_per_1k → cpu_us_per_item,
//     p50_ms and max_qps on cold-json; oracle.delta_frac,
//     oracle.bytes_per_entry, oracle.pinned_bytes → peak_rss_mb;
//     oracle.busy_s is the replay's time inside the oracle.
//   - bfs.repair_p50_ns, bfs.repair_p99_ns, bfs.changed_mean,
//     bfs.noop_frac, bfs.incremental_frac → cpu_us_per_item and max_qps on
//     cold-json; bfs.runner_p50_ns → p99_ms on cold-json.
//   - core.base_gs, core.events_gs, core.union_gs, core.dijkstras,
//     core.edges, core.build_1w_s, sched.parallel_eff → build_cpu_s (and
//     build_s) on every workload, setup_s on the serving workloads.
//   - wsp.search_us, wsp.repair_p50_us, wsp.repair_p99_us → build_cpu_s on
//     every workload, setup_s on the serving workloads.
//   - snap.encode_ms, snap.decode_ms, snap.bytes, oracle.newset_ms: the
//     restore path; no serving row should move.
//   - trace.overhead_p50_ms, trace.overhead_p99_ms: the traced reference
//     phase's latency minus the untraced one's in the same run (the cost of
//     recording spans).
//
// A traced run records a span (name, start, end, parent, request) around
// every call it makes into a layer and writes them, as NDJSON, next to the
// report when the run ends. End-to-end metrics always come from untraced
// runs.
package main
