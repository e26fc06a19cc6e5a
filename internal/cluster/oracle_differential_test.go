package cluster

import (
	"math"
	"testing"

	"perftrack/internal/oracle"
)

// Differential harness: the grid-accelerated DBSCAN and NN paths must
// produce answers identical to the brute-force references in
// internal/oracle on seeded random scenarios. The scenarios are lattice-
// quantised, so exact ties and points exactly on the eps boundary are
// common — any divergence from the canonical tie-break rules documented
// in nn.go shows up as a failure here, not as a silent wrong answer in a
// study. `make oracle` runs these (together with the core and align
// differential tests) as the pre-merge gate for every optimisation.

func TestOracleDBSCANDifferential(t *testing.T) {
	for seed := uint64(0); seed < 100; seed++ {
		sc := oracle.GenScenario(seed)
		got := DBSCAN(sc.Points, sc.Eps, sc.MinPts)
		want := oracle.DBSCAN(sc.Points, sc.Eps, sc.MinPts)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d (n=%d eps=%v minPts=%d): label[%d] = %d, oracle says %d",
					seed, len(sc.Points), sc.Eps, sc.MinPts, i, got[i], want[i])
			}
		}
	}
}

func TestOracleNNDifferential(t *testing.T) {
	for seed := uint64(0); seed < 60; seed++ {
		sc := oracle.GenScenario(seed)
		dims := len(sc.Points[0])
		nn := NewNN(sc.Points, 0)
		check := func(q []float64, what string) {
			gi, gd := nn.Nearest(q)
			wi, wd := oracle.Nearest(sc.Points, q)
			if gi != wi || gd != wd {
				t.Fatalf("seed %d %s: Nearest(%v) = (%d, %v), oracle says (%d, %v)",
					seed, what, q, gi, gd, wi, wd)
			}
		}
		// Random queries (some outside the unit square, beyond every
		// node box)...
		for qi := 0; qi < 20; qi++ {
			check(oracle.GenQuery(seed, qi, dims), "query")
		}
		// ...and every indexed point as its own query: duplicates
		// make zero-distance ties, where only the index ordering
		// disambiguates.
		for i := range sc.Points {
			if i%3 == 0 {
				check(sc.Points[i], "self")
			}
		}
	}
}

func TestOracleNNFarQueryFallback(t *testing.T) {
	sc := oracle.GenScenario(3)
	nn := NewNN(sc.Points, 0.01)
	q := make([]float64, len(sc.Points[0]))
	for d := range q {
		q[d] = 50 // far outside the indexed bounding box
	}
	gi, gd := nn.Nearest(q)
	wi, wd := oracle.Nearest(sc.Points, q)
	if gi != wi || gd != wd {
		t.Fatalf("far query = (%d, %v), oracle says (%d, %v)", gi, gd, wi, wd)
	}
}

// TestOracleNNSparseOutlierRegression pins the sparse-data bug of the
// pre-bbox ring search: with cell 0.05, the old implementation stopped
// expanding at ring 81 ("r·cell > 4, and we already have a candidate"),
// returning the diagonal point at distance ~4.101 even though a closer
// point at distance 4.075 sits in ring 82. The bbox-bounded sweep (or its
// linear-scan fallback) must return the true nearest neighbour no matter
// how far the data spreads.
func TestOracleNNSparseOutlierRegression(t *testing.T) {
	pts := [][]float64{
		{2.9, 2.9},    // ring 58 from the origin cell, distance ~4.101
		{-4.075, 0.0}, // ring 82, distance 4.075 — the true nearest
	}
	q := []float64{0, 0}
	nn := NewNN(pts, 0.05)
	gi, gd := nn.Nearest(q)
	wi, wd := oracle.Nearest(pts, q)
	if wi != 1 {
		t.Fatalf("oracle sanity: nearest = %d, want 1", wi)
	}
	if gi != wi || gd != wd {
		t.Fatalf("Nearest = (%d, %v), oracle says (%d, %v)", gi, gd, wi, wd)
	}
}

func FuzzDBSCANDifferential(f *testing.F) {
	for seed := uint64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		sc := oracle.GenScenario(seed)
		got := DBSCAN(sc.Points, sc.Eps, sc.MinPts)
		want := oracle.DBSCAN(sc.Points, sc.Eps, sc.MinPts)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: label[%d] = %d, oracle says %d", seed, i, got[i], want[i])
			}
		}
	})
}

func FuzzNNDifferential(f *testing.F) {
	f.Add(uint64(0), 0.5, 0.5)
	f.Add(uint64(1), 0.0, 1.0)
	f.Add(uint64(2), -3.0, 7.5)
	f.Fuzz(func(t *testing.T, seed uint64, qx, qy float64) {
		if math.IsNaN(qx) || math.IsInf(qx, 0) || math.IsNaN(qy) || math.IsInf(qy, 0) {
			t.Skip("non-finite query")
		}
		sc := oracle.GenScenario(seed)
		q := make([]float64, len(sc.Points[0]))
		q[0], q[1] = qx, qy
		nn := NewNN(sc.Points, sc.Eps)
		gi, gd := nn.Nearest(q)
		wi, wd := oracle.Nearest(sc.Points, q)
		if gi != wi || gd != wd {
			t.Fatalf("seed %d: Nearest(%v) = (%d, %v), oracle says (%d, %v)", seed, q, gi, gd, wi, wd)
		}
	})
}
