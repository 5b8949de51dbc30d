package main

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// getSender sends one GET per batch to a test server.
type getSender struct {
	url    string
	client *http.Client
}

func (g *getSender) prepare(worker, idx int) {}

func (g *getSender) send(worker, idx int) (int, int) {
	resp, err := g.client.Get(g.url)
	if err != nil {
		return 1, 1
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 1, 1
	}
	return 1, 0
}

// TestStallShowsInTail injects one 60 ms stall that blocks the whole
// handler, as a GC pause or a lock convoy would. Timed from the schedule,
// every batch that fell due during the stall is charged the wait, so the
// tail must reach tens of milliseconds; timed from the actual send (a
// closed loop), only the two in-flight requests see it and the tail stays
// small. The test fails if the generator ever falls back to send-time
// timing.
func TestStallShowsInTail(t *testing.T) {
	const stall = 60 * time.Millisecond
	var mu sync.Mutex
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		if n.Add(1) == 200 {
			time.Sleep(stall)
		}
		mu.Unlock()
	}))
	defer srv.Close()
	tr := &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}
	defer tr.CloseIdleConnections()
	res, err := runOpenLoop(1000, time.Second, 500*time.Millisecond, 2, &getSender{url: srv.URL, client: &http.Client{Transport: tr}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 || res.Unsent != 0 {
		t.Fatalf("failed=%d unsent=%d, want none", res.Failed, res.Unsent)
	}
	scheduled, ok := tail(append([]float64(nil), res.LatMS...), 99)
	if !ok {
		t.Fatalf("no tail from %d samples", len(res.LatMS))
	}
	service := make([]float64, len(res.LatMS))
	for i := range service {
		service[i] = res.LatMS[i] - res.LateMS[i]
	}
	closed, _ := tail(service, 99)
	t.Logf("p%.1f from schedule %.2f ms, from send %.2f ms, backlog max %d", scheduled.Pct, scheduled.Value, closed.Value, res.BacklogMax)
	if scheduled.Value < float64(stall.Milliseconds())/3 {
		t.Errorf("tail timed from the schedule is %.2f ms: the %v stall is missing", scheduled.Value, stall)
	}
	if scheduled.Value < 5*closed.Value {
		t.Errorf("tail from the schedule (%.2f ms) is not clearly above the send-time tail (%.2f ms)", scheduled.Value, closed.Value)
	}
	if res.BacklogMax < 20 {
		t.Errorf("backlog max %d: the stall should have queued ~%d batches", res.BacklogMax, stall.Milliseconds())
	}
}

func TestLadderProbes(t *testing.T) {
	for _, w := range workloads {
		lo, hi, n := -1, w.ladderTop+1, 0
		for ; hi-lo > 1; n++ {
			hi = (lo + hi) / 2 // every probe fails: the longest search
		}
		if n > w.ladderProbes() {
			t.Errorf("%s: search takes %d probes, budget %d", w.name, n, w.ladderProbes())
		}
		lo, hi, n = -1, w.ladderTop+1, 0
		for ; hi-lo > 1; n++ {
			lo = (lo + hi) / 2 // every probe passes
		}
		if n > w.ladderProbes() {
			t.Errorf("%s: search takes %d probes, budget %d", w.name, n, w.ladderProbes())
		}
	}
}

func TestLadderRate(t *testing.T) {
	if r := ladderRate(1000, 16); r != 4000 {
		t.Errorf("rung 16 of base 1000 = %v, want 4000", r)
	}
	for k := 1; k < 48; k++ {
		if ladderRate(1, k) <= ladderRate(1, k-1) {
			t.Fatalf("ladder not increasing at rung %d", k)
		}
	}
}
