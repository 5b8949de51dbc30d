package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/graph"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// fingerprint identifies the machine and code a result was measured on.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Source     string `json:"source_sha256"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      int    `json:"trace"`
}

// report is the full record of one run, written beside the spans.
type report struct {
	Fingerprint fingerprint    `json:"fingerprint"`
	Result      result         `json:"result"`
	Detail      map[string]any `json:"detail"`
	Problems    []string       `json:"problems,omitempty"`
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 2 && args[0] == spinFlag {
		n, err := strconv.Atoi(args[1])
		if err != nil || n < 1 {
			fmt.Fprintln(stderr, "e2ebench: bad spinner count", args[1])
			return 2
		}
		spin(n)
	}
	fl := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var (
		name    = fl.String("workload", "", "workload: zipf-hot, cold-json or build-dual")
		seed    = fl.Int64("seed", 1, "workload seed: the request streams and verification samples")
		seconds = fl.Int("seconds", 10, "measured seconds per run")
		trace   = fl.Int("trace", 0, "1: traced run reporting the per-layer metrics; 0: end-to-end metrics")
		bin     = fl.String("daemon", "", "path to the ftbfsd binary under test")
		outDir  = fl.String("out", "", "directory for the report, spans and daemon log (default: a temporary directory)")
		commit  = fl.String("commit", "", "commit of the code under test, when known")
	)
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	switch {
	case err != nil:
	case *bin == "":
		err = errors.New("-daemon is required")
	case *seconds < 1:
		err = fmt.Errorf("--seconds %d: want at least 1", *seconds)
	case *trace != 0 && *trace != 1:
		err = fmt.Errorf("--trace %d: want 0 or 1", *trace)
	}
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 2
	}
	dir := *outDir
	if dir == "" {
		if dir, err = os.MkdirTemp("", "e2ebench"); err != nil {
			fmt.Fprintln(stderr, "e2ebench:", err)
			return 1
		}
		defer os.RemoveAll(dir)
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	fp := takeFingerprint(*commit, w.name, *seed, *trace)
	rep, err := runWorkload(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *bin, dir)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	rep.Fingerprint = fp
	base := fmt.Sprintf("%s-seed%d-trace%d", w.name, *seed, *trace)
	if err := writeJSON(filepath.Join(dir, base+".json"), rep); err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	printReport(stdout, rep)
	line, err := json.Marshal(rep.Result)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// runWorkload runs one workload end to end, or its traced layer ladder.
func runWorkload(w *workload, seed int64, total time.Duration, traced bool, bin, dir string) (*report, error) {
	s := newSession(w, seed, bin, dir, runtime.NumCPU())
	defer s.close()
	m := metricSet{}
	detail := map[string]any{}
	var tr *tracer
	if traced {
		tr = newTracer()
	}

	// Set-up, then the timed builds of build-dual.
	// Serving set-ups each pay a build, so three; build-dual's are tens of
	// milliseconds, so more of them steady the median.
	setupReps := 3
	if w.buildPlane {
		setupReps = 9
	}
	if traced {
		setupReps = 1
	}
	graphs := make([]prepared, len(w.graphSeeds))
	for i, gs := range w.graphSeeds {
		var err error
		if graphs[i], err = prepareGraph(gs); err != nil {
			return nil, err
		}
	}
	var setups, builds, buildCPU []float64
	var info buildInfo
	// build-dual's set-up is tens of milliseconds of process start and
	// HTTP, as wake-up bound as serving, so the spinners run through it.
	stopSpin := func() {}
	if w.buildPlane {
		var err error
		if stopSpin, err = startSpinners(runtime.NumCPU()); err != nil {
			return nil, err
		}
	}
	for k := 0; k < setupReps; k++ {
		t0 := time.Now()
		if err := s.spawn(); err != nil {
			return nil, err
		}
		for _, pg := range graphs {
			if err := s.d.registerGraph(pg.name, pg.text); err != nil {
				return nil, err
			}
		}
		if !w.buildPlane {
			s.use(graphs[0])
			var bt time.Duration
			var bc float64
			var err error
			if info, bt, bc, err = s.d.build(s.graph, s.workers); err != nil {
				return nil, err
			}
			builds, buildCPU = append(builds, bt.Seconds()), append(buildCPU, bc)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	stopSpin()
	if w.buildPlane {
		todo := graphs
		if traced {
			todo = graphs[len(graphs)-1:]
		}
		for _, pg := range todo {
			s.use(pg)
			var bt time.Duration
			var bc float64
			var err error
			if info, bt, bc, err = s.d.build(s.graph, s.workers); err != nil {
				return nil, err
			}
			builds, buildCPU = append(builds, bt.Seconds()), append(buildCPU, bc)
			s.buildID = info.ID
			if err := s.verifyBuild(verifyBatches); err != nil {
				return nil, err
			}
		}
	}
	detail["setup_s"], detail["build_s"], detail["build_cpu_s"] = setups, builds, buildCPU
	if err := s.startServing(info.ID); err != nil {
		return nil, err
	}

	// Serving: warm-up, reference rate, then the ladder (or, traced, the
	// same reference rate again with spans on).
	warmDur, refDur, probeDur := total/10, total*4/10, total/2/time.Duration(w.ladderProbes())
	stopSpin, err := startSpinners(runtime.NumCPU())
	if err != nil {
		return nil, err
	}
	defer stopSpin()
	warm, err := s.phase(streamWarm, w.refRate, warmDur, refGrace, nil)
	if err != nil {
		return nil, err
	}
	sc := startScraper(s.d.base)
	st0, err := s.d.stats()
	if err != nil {
		return nil, err
	}
	cpu0, err := s.d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	ref, err := s.phase(streamRef, w.refRate, refDur, refGrace, nil)
	if err != nil {
		return nil, err
	}
	cpu1, err := s.d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	st1, err := s.d.stats()
	if err != nil {
		return nil, err
	}
	var tracedRef phaseResult
	if traced {
		if tracedRef, err = s.phase(streamTraced, w.refRate, refDur, refGrace, tr); err != nil {
			return nil, err
		}
	} else {
		maxQPS, probes, err := s.ladder(probeDur)
		if err != nil {
			return nil, err
		}
		detail["max_qps"], detail["ladder"] = maxQPS, probes
	}
	scrapes, scrapeFailed := sc.finish()
	s.attempted.Add(int64(len(scrapes) + scrapeFailed))
	s.failed.Add(int64(scrapeFailed))
	for _, ph := range []phaseResult{warm, ref} {
		if ph.Unsent > 0 {
			s.failed.Add(int64(ph.Unsent * w.batch))
			s.problem("%d batch(es) of a %.0f batches/s phase never sent", ph.Unsent, ph.Rate)
		}
	}
	s.verify()
	rss, err := s.d.peakRSSMiB()
	if err != nil {
		return nil, err
	}

	p50 := median(append([]float64(nil), ref.LatMS...))
	p99, _ := tail(append([]float64(nil), ref.LatMS...), 99)
	detail["p50_ms"], detail["p99_ms"] = p50, p99
	late, _ := tail(ref.LateMS, 99)
	detail["late_ms"], detail["backlog_max"] = late, ref.BacklogMax
	if traced {
		hits, misses := st1.Hits-st0.Hits, st1.Misses-st0.Misses
		m.set("server.stats_hit_rate", float64(hits)/float64(max(hits+misses, 1)), "ratio")
		sq, _ := tail(scrapes, 99)
		m.set("server.stats_p99_us", sq.Value*1e3, "us")
		m.set("server.build_queued_ms", info.QueuedMS, "ms")
		tl, _ := tail(tracedRef.LateMS, 99)
		m.set("loadgen.late_p99_ms", tl.Value, "ms")
		m.set("loadgen.backlog_max", float64(tracedRef.BacklogMax), "count")
		tp50 := median(tracedRef.LatMS)
		tp99, _ := tail(tracedRef.LatMS, 99)
		m.set("trace.overhead_p50_ms", tp50.Value-p50.Value, "ms")
		m.set("trace.overhead_p99_ms", tp99.Value-p99.Value, "ms")
		if err := s.runLayers(tr, m, warm.Sent, ref.Sent, info.Edges); err != nil {
			return nil, err
		}
		detail["trace_spans"] = tr.count()
		if err := tr.write(filepath.Join(dir, fmt.Sprintf("%s-seed%d-spans.ndjson", w.name, seed))); err != nil {
			return nil, err
		}
	} else {
		m.set("setup_s", median(setups).Value, "s")
		m.set("build_cpu_s", median(buildCPU).Value, "s")
		detail["build_s_median"] = median(builds).Value
		m.set("cpu_us_per_item", (cpu1-cpu0)*1e6/float64(max(ref.Items, 1)), "us")
		m.set("peak_rss_mb", rss, "MiB")
	}
	detail["peak_rss_mb"] = rss
	detail["scrapes"] = len(scrapes)

	attempted, failed := s.attempted.Load(), s.failed.Load()
	return &report{
		Result: result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m},
		Detail: detail, Problems: s.problems,
	}, nil
}

// verifyBatches is the number of verification batches sent to each fresh
// build-dual structure.
const verifyBatches = 4

// prepared is one workload graph, generated before any timing starts.
type prepared struct {
	seed int64
	name string
	text string // the uploaded edge list
	g    *graph.Graph
	ref  *refGraph
}

func prepareGraph(seed int64) (prepared, error) {
	g, text, err := makeGraph(seed)
	if err != nil {
		return prepared{}, err
	}
	return prepared{seed: seed, name: "sparse-" + strconv.FormatInt(seed, 10), text: text, g: g, ref: newRefGraph(g)}, nil
}

// takeFingerprint records the machine, toolchain and code a result comes
// from. The source digest stands in for the commit in checkouts that are
// not git repositories.
func takeFingerprint(commit, workload string, seed int64, trace int) fingerprint {
	return fingerprint{
		CPU: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Commit: commit, Source: sourceDigest("."),
		Workload: workload, Seed: seed, Trace: trace,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the paths and contents of the Go sources and module
// files under root, skipping hidden directories (build outputs live in
// one).
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod" || d.Name() == "go.sum") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(p), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printReport prints every metric by name and unit, the fingerprint and
// the sample counts behind the percentiles.
func printReport(out io.Writer, rep *report) {
	fp, _ := json.Marshal(rep.Fingerprint)
	fmt.Fprintf(out, "fingerprint %s\n", fp)
	names := make([]string, 0, len(rep.Result.Metrics))
	for n := range rep.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		mv := rep.Result.Metrics[n]
		fmt.Fprintf(out, "%-40s %14.6g %s\n", n, mv.Value, mv.Unit)
	}
	r := rep.Result
	fmt.Fprintf(out, "%-40s %14.6g ratio (%d/%d)\n", "fail_frac", float64(r.Failed)/float64(max(r.Attempted, 1)), r.Failed, r.Attempted)
	// Figures that are not metrics (doc.go says why): the ladder's max_qps
	// and the reference phase's latency percentiles with their sample
	// counts.
	if q, ok := rep.Detail["build_s_median"].(float64); ok {
		fmt.Fprintf(out, "%-40s %14.6g s\n", "build_s", q)
	}
	if q, ok := rep.Detail["max_qps"].(float64); ok {
		fmt.Fprintf(out, "%-40s %14.6g items/s\n", "max_qps", q)
	}
	for _, k := range []string{"p50_ms", "p99_ms", "late_ms"} {
		if q, ok := rep.Detail[k].(quantile); ok {
			fmt.Fprintf(out, "%-40s %14.6g ms at p%.2f of %d samples\n", "reference "+k, q.Value, q.Pct, q.N)
		}
	}
	for _, p := range rep.Problems {
		fmt.Fprintf(out, "problem: %s\n", p)
	}
}
