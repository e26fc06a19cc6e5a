package main

import (
	"sort"
	"time"
)

// setup_s is the median of several set-ups in one run: at least setupMin
// launches, more while their total is under setupBudget, at most
// setupMax. Short set-ups are repeated more, so each run's median rests
// on a few seconds of set-up whatever one launch costs.
const (
	setupMin    = 7
	setupMax    = 31
	setupBudget = 3 * time.Second
)

// moreSetups reports whether another set-up launch is due after the
// samples (seconds each) taken so far.
func moreSetups(samples []float64) bool {
	if len(samples) < setupMin {
		return true
	}
	if len(samples) >= setupMax {
		return false
	}
	var total float64
	for _, s := range samples {
		total += s
	}
	return total < setupBudget.Seconds()
}

// tailBeyond is how many samples must lie beyond the value reported as a
// distribution's tail: the tail is the highest percentile that still has
// this many samples above it.
const tailBeyond = 10

// Dist summarises one latency sample set: the median, the tail value and
// which percentile that tail is, with the sample count.
type Dist struct {
	N      int     `json:"n"`
	P50    float64 `json:"p50"`
	Tail   float64 `json:"tail"`
	TailPc float64 `json:"tail_percentile"`
}

// tailIndex returns the index, in ascending order, of the tail sample of
// n samples: the one with exactly tailBeyond samples after it. With fewer
// than tailBeyond+1 samples no percentile qualifies and the maximum
// stands in (ok is false).
func tailIndex(n int) (idx int, ok bool) {
	if n <= tailBeyond {
		return n - 1, false
	}
	return n - 1 - tailBeyond, true
}

// summarize sorts a copy of xs and returns its median and tail.
func summarize(xs []float64) Dist {
	n := len(xs)
	if n == 0 {
		return Dist{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx, _ := tailIndex(n)
	return Dist{
		N:      n,
		P50:    median(s),
		Tail:   s[idx],
		TailPc: 100 * float64(idx+1) / float64(n),
	}
}

// median returns the median of xs (which it sorts in place), or 0 for
// none.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// mean returns the arithmetic mean of xs (0 for none).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
