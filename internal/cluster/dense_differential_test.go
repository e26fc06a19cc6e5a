package cluster

import (
	"errors"
	"math"
	"math/rand/v2"
	"testing"

	"perftrack/internal/oracle"
)

// Differential tests aimed at the exact dense-cell DBSCAN and the k-d
// tree: the geometry each shortcut relies on (sub-cell edges, pairs at
// exactly eps, dense duplicate stacks, clamped and non-finite cells, tie
// lattices) is generated on purpose and every answer is checked against
// the brute-force references in internal/oracle.

// latticeScenario draws n points in dims dimensions on a lattice of
// spacing quantum (a power of two, so sums and differences of lattice
// values are exact), with a share of exact duplicates and runs of
// duplicate stacks at least minPts deep.
func latticeScenario(rng *rand.Rand, n, dims, span int, quantum float64, minPts int) [][]float64 {
	pts := make([][]float64, 0, n)
	for len(pts) < n {
		switch r := rng.Float64(); {
		case len(pts) > 0 && r < 0.15:
			pts = append(pts, append([]float64(nil), pts[rng.IntN(len(pts))]...))
		case len(pts) > 0 && r < 0.2:
			src := pts[rng.IntN(len(pts))]
			for k := 0; k < minPts && len(pts) < n; k++ {
				pts = append(pts, append([]float64(nil), src...))
			}
		default:
			p := make([]float64, dims)
			for d := range p {
				p[d] = float64(rng.IntN(span)) * quantum
			}
			pts = append(pts, p)
		}
	}
	rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
	return pts
}

func checkDBSCAN(t *testing.T, what string, pts [][]float64, eps float64, minPts int) {
	t.Helper()
	got := DBSCAN(pts, eps, minPts)
	want := oracle.DBSCAN(pts, eps, minPts)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s (n=%d eps=%v minPts=%d): label[%d] = %d, oracle says %d (point %v)",
				what, len(pts), eps, minPts, i, got[i], want[i], pts[i])
		}
	}
}

// TestDenseCellDBSCANDims runs lattice scenarios at 1, 2, 4 and 17
// dimensions. With eps a multiple of the lattice quantum, many pairs sit
// at exactly eps; at dims 1 and 4 the sub-cell side eps/√dims is itself a
// lattice multiple, so points also sit exactly on sub-cell edges.
func TestDenseCellDBSCANDims(t *testing.T) {
	const quantum = 1.0 / 32
	for _, dims := range []int{1, 2, 4, 17} {
		for seed := uint64(0); seed < 40; seed++ {
			rng := rand.New(rand.NewPCG(seed, uint64(dims)))
			minPts := 1 + rng.IntN(6)
			span := 8 + rng.IntN(24)
			if dims == 17 {
				span = 3 // keep neighbourhoods populated in 17-D
			}
			pts := latticeScenario(rng, 20+rng.IntN(200), dims, span, quantum, minPts)
			eps := float64(1+rng.IntN(8)) * quantum
			if dims == 4 && seed%2 == 0 {
				eps = 2 * quantum // side eps/2 = one lattice step
			}
			checkDBSCAN(t, "lattice", pts, eps, minPts)
		}
	}
}

// TestDenseCellDBSCANExactEps pins pairs at exactly eps across sub-cell
// boundaries: a 3-4-5 triangle scaled by a power of two has an exact
// squared distance, and the members straddle edges of the eps/√2 grid.
func TestDenseCellDBSCANExactEps(t *testing.T) {
	const q = 1.0 / 64
	eps := 5 * q
	var pts [][]float64
	for _, base := range [][2]float64{{0, 0}, {0.5, 0.5}, {1 - 3*q, 0.25}} {
		pts = append(pts,
			[]float64{base[0], base[1]},
			[]float64{base[0] + 3*q, base[1] + 4*q},
			[]float64{base[0] + 4*q, base[1] - 3*q},
			[]float64{base[0] - 5*q, base[1]},
			[]float64{base[0], base[1] + 5*q},
		)
	}
	for minPts := 0; minPts <= 6; minPts++ {
		checkDBSCAN(t, "exact-eps", pts, eps, minPts)
		checkDBSCAN(t, "just-below-eps", pts, math.Nextafter(eps, 0), minPts)
	}
}

// TestDenseCellDBSCANSpecialValues mixes NaN, ±Inf and huge coordinates
// (whose cell coordinates clamp to ±2^62) into lattice data, with stacks
// of at least minPts copies so the clamped cells are well populated. A
// stack of identical huge points is a genuine cluster; stacks of NaN or
// Inf points, and far-apart huge points sharing a clamped cell, are not.
func TestDenseCellDBSCANSpecialValues(t *testing.T) {
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e20, -1e20, 3e20, math.MaxFloat64}
	for seed := uint64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0x5bec))
		dims := 1 + rng.IntN(3)
		minPts := rng.IntN(5)
		pts := latticeScenario(rng, 30+rng.IntN(80), dims, 16, 1.0/32, max(1, minPts))
		for k := 0; k < 4; k++ {
			p := make([]float64, dims)
			for d := range p {
				p[d] = float64(rng.IntN(16)) / 32
			}
			p[rng.IntN(dims)] = specials[rng.IntN(len(specials))]
			for c := 0; c < minPts+1; c++ {
				pts = append(pts, append([]float64(nil), p...))
			}
		}
		rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
		eps := float64(1+rng.IntN(6)) / 32
		checkDBSCAN(t, "special", pts, eps, minPts)
		x, dims := flatten(pts)
		g := newGridIndexFlat(x, dims, eps)
		for c := int32(0); int(c) < g.cells(); c++ {
			if !g.compact[c] {
				continue
			}
			for _, i := range g.members(c) {
				for _, v := range g.point(i) {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Fatalf("seed %d: cell %d holds non-finite point %v yet is compact", seed, c, g.point(i))
					}
				}
			}
		}
	}
	// Two clamped cells, each holding two far-apart duplicate stacks: the
	// stacks pair up across the cells at exactly eps, so a join that
	// stopped at the first core pair would merge only one of the pairs.
	const eps = 1.0 / 8
	var clamped [][]float64
	for _, p := range [][]float64{{1e20, 0.5}, {3e20, 0.5}, {1e20, 0.5 + eps}, {3e20, 0.5 + eps}} {
		for c := 0; c < 3; c++ {
			clamped = append(clamped, append([]float64(nil), p...))
		}
	}
	checkDBSCAN(t, "clamped stacks", clamped, eps, 3)

	// Degenerate radii: zero (only exact duplicates neighbour), negative
	// (squares to a positive radius) and NaN (nothing neighbours).
	rng := rand.New(rand.NewPCG(7, 7))
	pts := latticeScenario(rng, 120, 2, 8, 1.0/8, 3)
	for _, eps := range []float64{0, -0.25, math.NaN(), math.Inf(1)} {
		for _, minPts := range []int{0, 1, 3} {
			checkDBSCAN(t, "degenerate-eps", pts, eps, minPts)
		}
	}
}

// TestDenseCellDBSCANHighDimsFast clusters 3000 points in 17 dimensions,
// where the (2⌈√17⌉+1)^17 ≈ 5·10^17 sub-cell offsets around a cell could
// never be enumerated: the adjacency sweep visits populated cells only.
func TestDenseCellDBSCANHighDimsFast(t *testing.T) {
	pts := benchPoints(3000, 17, 11)
	labels := DBSCAN(pts, 0.2, 8)
	clusters := 0
	for _, l := range labels {
		clusters = max(clusters, l)
	}
	if clusters == 0 {
		t.Fatal("no clusters found in 17-D blobs")
	}
}

// TestDBSCANInterruptPolled shows the cancellation hook still reaches the
// dense-cell loops: an interrupt raised on the first poll aborts the run
// with its error, on sparse data (per-point counting) and dense data
// (cell-pair joins and border adoption) alike.
func TestDBSCANInterruptPolled(t *testing.T) {
	stop := errors.New("stop")
	rng := rand.New(rand.NewPCG(3, 3))
	sparse := make([][]float64, 5000)
	for i := range sparse {
		sparse[i] = []float64{rng.Float64(), rng.Float64()}
	}
	for name, tc := range map[string]struct {
		pts    [][]float64
		eps    float64
		minPts int
	}{
		"sparse": {sparse, 0.005, 4},
		"dense":  {benchPoints(20000, 2, 5), 0.003, 8},
	} {
		polls := 0
		_, err := Run(tc.pts, nil, Config{Eps: tc.eps, MinPts: tc.minPts, Interrupt: func() error {
			polls++
			return stop
		}})
		if !errors.Is(err, stop) || polls != 1 {
			t.Errorf("%s: Run = %v after %d polls, want the interrupt error on the first poll", name, err, polls)
		}
	}
}

func checkNearest(t *testing.T, what string, nn *NN, pts [][]float64, q []float64) {
	t.Helper()
	gi, gd := nn.Nearest(q)
	wi, wd := oracle.Nearest(pts, q)
	if gi != wi || math.Float64bits(gd) != math.Float64bits(wd) {
		t.Fatalf("%s: Nearest(%v) = (%d, %v), oracle says (%d, %v)", what, q, gi, gd, wi, wd)
	}
}

// TestKDTreeDifferential covers the k-d tree's tie-break contract on tie
// lattices (queries at lattice midpoints are equidistant from 2^dims
// points), duplicate stacks, far queries and non-finite coordinates, at
// 1, 2, 4 and 17 dimensions.
func TestKDTreeDifferential(t *testing.T) {
	for _, dims := range []int{1, 2, 4, 17} {
		for seed := uint64(0); seed < 25; seed++ {
			rng := rand.New(rand.NewPCG(seed, 0xd7ee+uint64(dims)))
			span := 4 + rng.IntN(12)
			if dims == 17 {
				span = 2
			}
			pts := latticeScenario(rng, 1+rng.IntN(300), dims, span, 1.0/16, 1+rng.IntN(20))
			if seed%5 == 0 {
				p := append([]float64(nil), pts[0]...)
				p[rng.IntN(dims)] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.IntN(3)]
				pts = append(pts, p)
			}
			nn := NewNN(pts, 0)
			for qi := 0; qi < 40; qi++ {
				q := make([]float64, dims)
				for d := range q {
					// Lattice midpoints and points, plus a margin
					// outside the populated range.
					q[d] = float64(rng.IntN(2*span+8)-4) / 32
				}
				checkNearest(t, "lattice", nn, pts, q)
			}
			for i := 0; i < len(pts); i += 7 {
				checkNearest(t, "self", nn, pts, pts[i])
			}
			far := make([]float64, dims)
			for d := range far {
				far[d] = 1e6 * float64(1-2*rng.IntN(2))
			}
			checkNearest(t, "far", nn, pts, far)
			for _, v := range []float64{math.Inf(1), math.NaN()} {
				q := append([]float64(nil), pts[0]...)
				q[0] = v
				checkNearest(t, "non-finite query", nn, pts, q)
			}
		}
	}
	empty := NewNNFlat(nil, 2, 0)
	if i, d := empty.Nearest([]float64{0, 0}); i != -1 || !math.IsInf(d, 1) {
		t.Fatalf("empty index Nearest = (%d, %v), want (-1, +Inf)", i, d)
	}
}

// TestKDTreeDuplicateStack indexes thousands of copies of one point, the
// worst case for tie pruning: every leaf ties, and the lowest index must
// win.
func TestKDTreeDuplicateStack(t *testing.T) {
	pts := make([][]float64, 5000)
	for i := range pts {
		pts[i] = []float64{0.25, 0.75}
	}
	pts = append(pts, []float64{0.5, 0.5})
	nn := NewNN(pts, 0)
	for _, q := range [][]float64{{0.25, 0.75}, {0, 1}, {0.4, 0.6}, {0.5, 0.5}, {0.375, 0.625}} {
		checkNearest(t, "duplicate stack", nn, pts, q)
	}
}
