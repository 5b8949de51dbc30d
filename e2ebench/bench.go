package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/server/batchcodec"
)

// scrapeEvery is the operator dashboard's GET /v1/stats period.
const scrapeEvery = 100 * time.Millisecond

// session is one workload run: the benchmark's inputs and one ftbfsd
// serving them through its public HTTP API.
type session struct {
	w       *workload
	seed    int64
	bin     string // ftbfsd binary
	logDir  string
	workers int // load connections: one per CPU

	d       *daemon
	graph   string // served graph's registry name
	gseed   int64  // served graph's seed
	buildID string
	g       *graph.Graph
	ref     *refGraph
	gen     *streamGen
	hc      *http.Client // the load connections

	attempted atomic.Int64
	failed    atomic.Int64

	mu       sync.Mutex
	samples  []sampledBatch // guarded by mu
	problems []string       // first failures, guarded by mu
}

// sampledBatch is a served batch kept for the untimed answer check.
type sampledBatch struct {
	items   []item
	answers []answer
}

func newSession(w *workload, seed int64, bin, logDir string, workers int) *session {
	tr := &http.Transport{MaxConnsPerHost: workers, MaxIdleConnsPerHost: workers, DisableCompression: true}
	return &session{w: w, seed: seed, bin: bin, logDir: logDir, workers: workers,
		hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (s *session) close() {
	s.hc.CloseIdleConnections()
	if s.d != nil {
		s.d.stop()
		s.d = nil
	}
}

// problem records a failure for the report, keeping the first few.
func (s *session) problem(format string, args ...any) {
	s.mu.Lock()
	if len(s.problems) < 8 {
		s.problems = append(s.problems, fmt.Sprintf(format, args...))
	}
	s.mu.Unlock()
}

// spawn replaces the session's daemon with a fresh ftbfsd.
func (s *session) spawn() error {
	if s.d != nil {
		s.d.stop()
		s.d = nil
	}
	d, err := startDaemon(s.bin, filepath.Join(s.logDir, "ftbfsd.log"),
		"-cache-bytes", strconv.FormatInt(s.w.cacheBytes, 10))
	if err != nil {
		return err
	}
	s.d = d
	return nil
}

// use makes a prepared graph the one served and checked.
func (s *session) use(pg prepared) {
	s.g, s.ref, s.graph, s.gseed = pg.g, pg.ref, pg.name, pg.seed
}

// startServing points the load at a ready build and draws the request
// streams; the cold stream needs the source's BFS tree in H, read from the
// build's snapshot.
func (s *session) startServing(buildID string) error {
	s.buildID = buildID
	var tree []int32
	if !s.w.zipf {
		sn, err := s.d.snapshot(s.graph, buildID)
		if err != nil {
			return err
		}
		tree = treeEdges(s.g, sn.Structure.Edges.Has)
	}
	s.gen = newStreamGen(s.w, s.seed, s.gseed, s.g, tree)
	return nil
}

func (s *session) queryPath() string {
	return "/v1/graphs/" + s.graph + "/builds/" + s.buildID + "/query"
}

func (s *session) contentType() string {
	if s.w.binary {
		return batchcodec.ContentType
	}
	return "application/json"
}

// encode returns the request body for items, reusing the buffers.
func (s *session) encode(rb *batchcodec.RequestBuilder, buf []byte, items []item) []byte {
	if s.w.binary {
		return encodeBinary(rb, items)
	}
	return appendJSON(buf[:0], items)
}

// post sends one batch over the load connections and checks the reply.
func (s *session) post(body []byte, resp *bytes.Buffer, n int, capture bool) ([]answer, int, error) {
	req, err := http.NewRequest(http.MethodPost, s.d.base+s.queryPath(), bytes.NewReader(body))
	if err != nil {
		return nil, n, err
	}
	req.Header.Set("Content-Type", s.contentType())
	r, err := s.hc.Do(req)
	if err != nil {
		return nil, n, err
	}
	resp.Reset()
	_, err = resp.ReadFrom(r.Body)
	r.Body.Close()
	if err != nil {
		return nil, n, err
	}
	if r.StatusCode != http.StatusOK {
		return nil, n, fmt.Errorf("status %d: %.200s", r.StatusCode, resp.Bytes())
	}
	if s.w.binary {
		return checkBinary(resp.Bytes(), n, capture)
	}
	return checkJSON(resp.Bytes(), n, capture)
}

// streamSender serves one phase's stream over the load connections.
type streamSender struct {
	s      *session
	stream uint64
	tr     *tracer
	conns  []connState
}

type connState struct {
	items []item
	body  []byte
	rb    batchcodec.RequestBuilder
	resp  bytes.Buffer
}

func (ss *streamSender) prepare(w, idx int) {
	c := &ss.conns[w]
	c.items = ss.s.gen.batch(ss.stream, idx, c.items[:0])
	c.body = ss.s.encode(&c.rb, c.body, c.items)
}

func (ss *streamSender) send(w, idx int) (int, int) {
	c := &ss.conns[w]
	n := len(c.items)
	capture := idx%ss.s.w.sampleEvery == 0
	id, t0 := ss.tr.begin()
	answers, failed, err := ss.s.post(c.body, &c.resp, n, capture)
	ss.tr.end("net.roundtrip", id, 0, int64(idx), t0)
	if err != nil {
		ss.s.problem("batch %d: %v", idx, err)
		return n, n
	}
	if failed > 0 {
		ss.s.problem("batch %d: %d item(s) refused in-band", idx, failed)
	}
	if capture {
		ss.s.mu.Lock()
		ss.s.samples = append(ss.s.samples, sampledBatch{items: append([]item(nil), c.items...), answers: answers})
		ss.s.mu.Unlock()
	}
	return n, failed
}

// phase offers stream at rate items/s for dur, open loop. Batches not
// sent within grace after the window are dropped and counted as unsent.
func (s *session) phase(stream uint64, rate float64, dur, grace time.Duration, tr *tracer) (phaseResult, error) {
	ss := &streamSender{s: s, stream: stream, tr: tr, conns: make([]connState, s.workers)}
	r, err := runOpenLoop(rate/float64(s.w.batch), dur, grace, s.workers, ss)
	s.attempted.Add(r.Items)
	s.failed.Add(r.Failed)
	return r, err
}

// refGrace bounds how late a batch of a fixed-rate phase may still be
// sent; later ones count as failed. probeGrace bounds a ladder probe's
// overrun: a backlog that a host stall left at the window's end drains
// within it, one that grew with the offered load does not.
const (
	refGrace   = time.Second
	probeGrace = 250 * time.Millisecond
)

// probe is one ladder rung's outcome.
type probe struct {
	Rung     int      `json:"rung"`
	Offered  float64  `json:"offered_items_per_s"`
	Achieved float64  `json:"achieved_items_per_s"`
	Median   quantile `json:"p50_ms"`
	Tail     quantile `json:"tail_ms"`
	Unsent   int      `json:"unsent"`
	Failed   int64    `json:"failed"`
	Pass     bool     `json:"pass"`
}

// ladder binary-searches the fixed rate ladder for the highest rung that
// keeps up: no batch left unsent past probeGrace, no failed item,
// and a median latency within the limit. The median, not the tail, decides
// because the host's scheduling stalls (tens of milliseconds, several a
// second on a small shared VM) put nearly every short probe's p99 above
// any limit below the overload knee, so a tail test measures the stalls,
// not the server; past the knee the backlog grows and the median follows
// it. It returns the throughput achieved at the highest passing rung.
func (s *session) ladder(probeDur time.Duration) (float64, []probe, error) {
	lo, hi := -1, s.w.ladderTop+1 // rung lo passed (or none yet); rung hi failed (or is past the top)
	best := 0.0
	var probes []probe
	for n := 0; hi-lo > 1; n++ {
		k := (lo + hi) / 2
		rate := ladderRate(s.w.ladderBase, k)
		r, err := s.phase(streamLadder+uint64(n), rate, probeDur, probeGrace, nil)
		if err != nil {
			return 0, probes, err
		}
		mq := median(r.LatMS)
		tq, _ := tail(r.LatMS, 99)
		p := probe{Rung: k, Offered: rate, Median: mq, Tail: tq, Unsent: r.Unsent, Failed: r.Failed,
			Achieved: float64(r.Items) / r.Wall.Seconds()}
		p.Pass = mq.N > 0 && mq.Value <= s.w.limitMS && r.Unsent == 0 && r.Failed == 0
		probes = append(probes, p)
		if p.Pass {
			lo, best = k, p.Achieved
		} else {
			hi = k
		}
	}
	return best, probes, nil
}

// scraper reads GET /v1/stats on a fixed period over its own connection,
// as an operator dashboard would, timing each read from its tick.
type scraper struct {
	stop   chan struct{}
	done   chan struct{}
	lat    []float64 // ms; owned by the scraper goroutine until done closes
	failed int
}

func startScraper(base string) *scraper {
	sc := &scraper{stop: make(chan struct{}), done: make(chan struct{})}
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}, Timeout: 10 * time.Second}
	go func() {
		defer close(sc.done)
		defer client.CloseIdleConnections()
		t := time.NewTicker(scrapeEvery)
		defer t.Stop()
		for {
			select {
			case <-sc.stop:
				return
			case tick := <-t.C:
				resp, err := client.Get(base + "/v1/stats")
				if err != nil {
					sc.failed++
					continue
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					sc.failed++
					continue
				}
				sc.lat = append(sc.lat, float64(time.Since(tick))/1e6)
			}
		}
	}()
	return sc
}

// finish stops the scraper and returns its latencies and failures.
func (sc *scraper) finish() ([]float64, int) {
	close(sc.stop)
	<-sc.done
	return sc.lat, sc.failed
}

// verify checks every sampled answer against BFS on G∖F and counts wrong
// answers as failed items. Refused items were counted when served.
func (s *session) verify() {
	wrong := 0
	for _, sb := range s.samples {
		for i, it := range sb.items {
			if sb.answers[i].err {
				continue
			}
			if msg := s.ref.check(it, sb.answers[i]); msg != "" {
				wrong++
				s.problem("wrong answer: %s", msg)
			}
		}
	}
	s.samples = nil
	s.failed.Add(int64(wrong))
}

// verifyBuild checks a freshly built structure of the served graph with
// tree-edge-biased dual fault sets, untimed.
func (s *session) verifyBuild(batches int) error {
	if err := s.startServing(s.buildID); err != nil {
		return err
	}
	var resp bytes.Buffer
	for i := 0; i < batches; i++ {
		items := s.gen.verifyBatch(i, s.w.batch, nil)
		answers, failed, err := s.post(appendJSON(nil, items), &resp, len(items), true)
		s.attempted.Add(int64(len(items)))
		if err != nil {
			s.failed.Add(int64(len(items)))
			s.problem("verify batch %d: %v", i, err)
			continue
		}
		s.failed.Add(int64(failed))
		s.samples = append(s.samples, sampledBatch{items: items, answers: answers})
	}
	s.verify()
	return nil
}
