package main

import "slices"

// minBeyond is the number of samples that must lie strictly above a
// reported tail percentile: a tail read from fewer samples is one outlier.
const minBeyond = 10

// quantile is one order statistic of a sample: the value at the
// nearest-rank percentile Pct, read from N samples.
type quantile struct {
	Value float64 `json:"value"`
	Pct   float64 `json:"pct"`
	N     int     `json:"n"`
}

// median returns the nearest-rank median of xs, sorting xs in place.
func median(xs []float64) quantile {
	if len(xs) == 0 {
		return quantile{}
	}
	slices.Sort(xs)
	rank := (len(xs) + 1) / 2
	return quantile{Value: xs[rank-1], Pct: 100 * float64(rank) / float64(len(xs)), N: len(xs)}
}

// tail returns the highest nearest-rank percentile of xs, capped at
// capPct, that leaves at least minBeyond samples strictly above it — p99
// when the sample has at least 1000 values, a lower percentile otherwise —
// together with the percentile actually used and the sample count. ok is
// false when the sample is too small to support any tail (n ≤ minBeyond).
// xs is sorted in place. Ranks are computed in integers so p99 of 1000
// samples is exactly the 990th value.
func tail(xs []float64, capPct int) (q quantile, ok bool) {
	n := len(xs)
	if n <= minBeyond {
		return quantile{N: n}, false
	}
	slices.Sort(xs)
	rank := (capPct*n + 99) / 100 // ceil(capPct·n/100)
	if rank > n-minBeyond {
		rank = n - minBeyond
	}
	return quantile{Value: xs[rank-1], Pct: 100 * float64(rank) / float64(n), N: n}, true
}
