package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// maxSpans bounds the spans a traced run keeps in memory; later spans are
// only counted, so a long run cannot exhaust memory.
const maxSpans = 200000

// span is one timed call across a layer boundary. Spans of one request or
// replayed item share Req; Parent is the ID of the enclosing span (0 for
// a root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
}

// tracer records spans in memory and writes them out when the run ends.
// A nil *tracer records nothing, so untraced runs pay one nil check.
type tracer struct {
	epoch   time.Time
	ids     atomic.Int64
	mu      sync.Mutex
	spans   []span // guarded by mu
	dropped int64  // guarded by mu
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span: it returns the span's ID, for children to name as
// their parent, and its start time.
func (t *tracer) begin() (int64, time.Time) {
	if t == nil {
		return 0, time.Time{}
	}
	return t.ids.Add(1), time.Now()
}

// end closes the span opened by begin.
func (t *tracer) end(name string, id, parent, req int64, start time.Time) {
	if t == nil {
		return
	}
	s := span{Name: name, Start: int64(start.Sub(t.epoch)), End: int64(time.Since(t.epoch)),
		ID: id, Parent: parent, Req: req}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// count returns the spans recorded, kept or dropped.
func (t *tracer) count() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return int64(len(t.spans)) + t.dropped
}

// write stores the kept spans as NDJSON at path.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
