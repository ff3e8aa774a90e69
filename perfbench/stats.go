package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail percentile.
const minBeyond = 10

// tailSummary is a latency distribution as the benchmark reports it: the
// median and the highest percentile, up to the one asked for, that has at
// least minBeyond samples above it, with the sample count.
type tailSummary struct {
	N       int     `json:"n"`
	P50     float64 `json:"p50"`
	TailPct float64 `json:"tail_pct"`
	Tail    float64 `json:"tail"`
}

// summarize sorts xs in place and summarizes it, aiming for the want
// percentile.
func summarize(xs []float64, want float64) tailSummary {
	sort.Float64s(xs)
	s := tailSummary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	s.P50 = percentile(xs, 50)
	s.TailPct = supportedPct(len(xs), want)
	s.Tail = percentile(xs, s.TailPct)
	return s
}

// percentile returns the nearest-rank p-th percentile of sorted xs: the
// smallest sample with at least p% of the samples at or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// supportedPct returns the highest percentile not above want, in steps of
// 0.1, whose nearest-rank sample has at least minBeyond samples above it;
// 0 when n is too small for any.
func supportedPct(n int, want float64) float64 {
	if n <= minBeyond {
		return 0
	}
	p := math.Floor(1000*float64(n-minBeyond)/float64(n)) / 10
	if p > want {
		p = want
	}
	for p > 0 && n-int(math.Ceil(p/100*float64(n))) < minBeyond {
		p = math.Round((p-0.1)*10) / 10
	}
	return math.Max(p, 0)
}

// median returns the median of xs without modifying it.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
