package main

import (
	"math"
	"slices"
	"sort"
	"time"
)

// median returns the middle of xs (the mean of the two middle values for
// an even count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// windowTail returns the tail latency of xs, operation latencies in run
// order: the slowest operation of each consecutive window of `window`
// operations (a trailing partial window counts as one), then the median
// over the windows. For independent latencies it estimates the
// 1-0.5^(1/window) upper quantile (p89 for six). A window is short next
// to the run, so it sees about one speed of a shared host, and the median
// over windows keeps a slow phase that covers a minority of the run from
// moving the result, where a single high order statistic over the whole
// run follows whatever slow phase the run caught.
func windowTail(xs []float64, window int) float64 {
	if len(xs) == 0 || window < 1 {
		return 0
	}
	var maxima []float64
	for from := 0; from < len(xs); from += window {
		to := min(from+window, len(xs))
		maxima = append(maxima, slices.Max(xs[from:to]))
	}
	return median(maxima)
}

// geomean returns the geometric mean of strictly positive xs.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// interval is a half-open time range [from, to).
type interval struct{ from, to time.Duration }

// selfTime is the length of parent minus the part of it that the
// children cover. Children may overlap each other (concurrent solves)
// and may stick out of the parent; each covered instant counts once.
func selfTime(parent interval, children []interval) time.Duration {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.from < parent.from {
			c.from = parent.from
		}
		if c.to > parent.to {
			c.to = parent.to
		}
		if c.to > c.from {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].from < clipped[j].from })
	covered := time.Duration(0)
	var cur interval
	for i, c := range clipped {
		switch {
		case i == 0:
			cur = c
		case c.from <= cur.to:
			if c.to > cur.to {
				cur.to = c.to
			}
		default:
			covered += cur.to - cur.from
			cur = c
		}
	}
	if len(clipped) > 0 {
		covered += cur.to - cur.from
	}
	return parent.to - parent.from - covered
}

// stage is one named slice of an operation's traced latency.
type stage struct {
	name string
	ms   float64
}

// stageShares returns each stage's share of total, and coverage, the
// share all stages account for together; a complete split of the
// operation has coverage 1.
func stageShares(stages []stage, total float64) (shares []float64, coverage float64) {
	shares = make([]float64, len(stages))
	if total <= 0 {
		return shares, 0
	}
	for i, s := range stages {
		shares[i] = s.ms / total
		coverage += shares[i]
	}
	return shares, coverage
}
