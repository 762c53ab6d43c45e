package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: a tail estimate resting on fewer is noise.
const minBeyond = 10

// pct is one percentile estimate with the sample count it rests on.
type pct struct {
	Q      float64 // quantile in (0, 1)
	Value  float64
	N      int // samples
	Beyond int // samples strictly above the nearest-rank position
	OK     bool
}

// percentile returns the nearest-rank q-quantile of xs. OK is false
// when fewer than minBeyond samples lie beyond it; the value is still
// filled in (when xs is non-empty) so callers can print it marked.
func percentile(xs []float64, q float64) pct {
	p := pct{Q: q, N: len(xs)}
	if len(xs) == 0 {
		return p
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	rank = max(0, min(rank, len(s)-1))
	p.Value = s[rank]
	p.Beyond = len(s) - 1 - rank
	p.OK = p.Beyond >= minBeyond
	return p
}

// median is the middle value of xs (mean of the two middle values for
// an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
