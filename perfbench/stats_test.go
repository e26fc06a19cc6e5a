package main

import "testing"

func TestTailIsHighestPercentileWithTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n       int
		idx     int
		ok      bool
		percent float64
	}{
		{n: 100, idx: 89, ok: true, percent: 90},
		{n: 1000, idx: 989, ok: true, percent: 99},
		{n: 11, idx: 0, ok: true},
		{n: 10, idx: 9, ok: false},
		{n: 1, idx: 0, ok: false},
	} {
		idx, ok := tailIndex(c.n)
		if idx != c.idx || ok != c.ok {
			t.Errorf("tailIndex(%d) = %d, %v; want %d, %v", c.n, idx, ok, c.idx, c.ok)
		}
		if c.percent == 0 {
			continue
		}
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(c.n - i) // descending: summarize must sort
		}
		d := summarize(xs)
		beyond := 0
		for _, x := range xs {
			if x > d.Tail {
				beyond++
			}
		}
		if beyond != tailBeyond || d.TailPc != c.percent || d.N != c.n {
			t.Errorf("n=%d: tail %v at p%v with %d beyond; want p%v with %d beyond",
				c.n, d.Tail, d.TailPc, beyond, c.percent, tailBeyond)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of none = %v", got)
	}
}

func TestMoreSetupsRepeatsShortSetUps(t *testing.T) {
	launches := func(each float64) int {
		var xs []float64
		for moreSetups(xs) {
			xs = append(xs, each)
		}
		return len(xs)
	}
	for _, c := range []struct {
		each float64
		want int
	}{
		{each: 2, want: setupMin},    // long set-ups: the minimum count
		{each: 0.45, want: setupMin}, // 7 × 0.45 s passes the 3 s budget
		{each: 0.4, want: 8},         // 7 × 0.4 s does not
		{each: 0.1, want: 30},        // short set-ups repeat to the budget
		{each: 0.01, want: setupMax}, // and stop at the cap
	} {
		if got := launches(c.each); got != c.want {
			t.Errorf("%.2f s set-ups: %d launches, want %d", c.each, got, c.want)
		}
	}
}
