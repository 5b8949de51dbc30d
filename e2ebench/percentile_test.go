package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so the helpers must sort
	}
	return xs
}

func TestTail(t *testing.T) {
	cases := []struct {
		n       int
		ok      bool
		value   float64
		pct     float64
		beyond  int
		comment string
	}{
		{n: 1000, ok: true, value: 990, pct: 99, beyond: 10, comment: "p99 supported exactly"},
		{n: 5000, ok: true, value: 4950, pct: 99, beyond: 50, comment: "capped at p99"},
		{n: 500, ok: true, value: 490, pct: 98, beyond: 10, comment: "falls back to p98"},
		{n: 11, ok: true, value: 1, pct: 100.0 / 11, beyond: 10, comment: "smallest sample with a tail"},
		{n: 10, ok: false, comment: "no percentile leaves ten samples beyond"},
		{n: 0, ok: false, comment: "empty"},
	}
	for _, c := range cases {
		q, ok := tail(seq(c.n), 99)
		if ok != c.ok {
			t.Fatalf("n=%d (%s): ok=%v, want %v", c.n, c.comment, ok, c.ok)
		}
		if q.N != c.n {
			t.Errorf("n=%d: sample count %d", c.n, q.N)
		}
		if !ok {
			continue
		}
		if q.Value != c.value || q.Pct != c.pct {
			t.Errorf("n=%d (%s): got value %v at p%v, want %v at p%v", c.n, c.comment, q.Value, q.Pct, c.value, c.pct)
		}
		if beyond := c.n - int(q.Value); beyond != c.beyond || beyond < minBeyond {
			t.Errorf("n=%d: %d samples beyond the tail, want %d", c.n, beyond, c.beyond)
		}
	}
}

func TestMedian(t *testing.T) {
	if q := median(seq(9)); q.Value != 5 || q.N != 9 {
		t.Errorf("median of 1..9 = %v (n=%d), want 5", q.Value, q.N)
	}
	if q := median(seq(10)); q.Value != 5 {
		t.Errorf("nearest-rank median of 1..10 = %v, want 5", q.Value)
	}
	if q := median(nil); q.N != 0 || q.Value != 0 {
		t.Errorf("median of nothing = %+v", q)
	}
}
