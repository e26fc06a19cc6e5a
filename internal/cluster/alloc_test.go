package cluster

import (
	"math/rand/v2"
	"testing"
)

// The flat-memory rewrite's contract is that steady-state spatial queries
// never touch the allocator: no string key per cell lookup, no boxed
// coordinate slice, no per-query result slice. These tests pin that with
// testing.AllocsPerRun so a regression (say, scratch escaping to the heap)
// fails loudly instead of quietly re-inflating GC pressure.

func allocPoints(n, dims int, seed uint64) []float64 {
	rng := rand.New(rand.NewPCG(seed, 0xa110c))
	x := make([]float64, n*dims)
	for i := range x {
		x[i] = rng.Float64()
	}
	return x
}

func TestNearestZeroAllocs(t *testing.T) {
	for _, dims := range []int{2, 3, 4, 17} {
		x := allocPoints(2000, dims, uint64(dims))
		nn := NewNNFlat(x, dims, 0.05)
		queries := allocPoints(64, dims, 99)
		qi := 0
		avg := testing.AllocsPerRun(200, func() {
			q := queries[qi*dims : (qi+1)*dims]
			qi = (qi + 1) % 64
			nn.Nearest(q)
		})
		if avg != 0 {
			t.Errorf("dims=%d: NN.Nearest allocates %.1f objects per query, want 0", dims, avg)
		}
	}
}

func TestGridNeighborsZeroAllocs(t *testing.T) {
	for _, dims := range []int{2, 4} {
		x := allocPoints(2000, dims, uint64(10+dims))
		g := newGridIndexFlat(x, dims, 0.05)
		// Warm the out buffer to the steady-state capacity first.
		out := make([]int32, 0, 64)
		for i := int32(0); i < 64; i++ {
			out = g.neighbors(i, out)
		}
		qi := int32(0)
		avg := testing.AllocsPerRun(200, func() {
			out = g.neighbors(qi, out)
			qi = (qi + 1) % 64
		})
		if avg != 0 {
			t.Errorf("dims=%d: grid neighbors allocates %.1f objects per query, want 0", dims, avg)
		}
	}
}
