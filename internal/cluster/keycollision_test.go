package cluster

import (
	"math"
	"testing"
)

// Regression tests for the 32-bit cell-key truncation bug. The historical
// gridIndex keyed cells by a string built from the LOW 32 BITS of each cell
// coordinate, so two cells whose coordinates differ by a multiple of 2^32
// (reachable with a small eps against large coordinate values) silently
// shared one bucket. Correctness survived — every bucket candidate is
// distance-verified — but colliding buckets degraded queries toward linear
// scans. The packed int64 key (and the exact 8-byte wide fallback) makes
// bucketing exact; these tests pin that on inputs that collided pre-fix.

// cellMembers returns the members of the cell holding point i.
func cellMembers(g *gridIndex, i int32) []int32 { return g.members(g.cellOf[i]) }

// TestCellKeyNoTruncationCollision uses two 1-D points whose cell
// coordinates are exactly 0 and 2^32: identical under 32-bit truncation,
// distinct under the exact key.
func TestCellKeyNoTruncationCollision(t *testing.T) {
	const eps = 1.0
	a := 0.5
	b := math.Ldexp(1, 32) + 0.5 // cell coordinate 2^32
	g := newGridIndexFlat([]float64{a, b}, 1, eps)
	if got := cellMembers(g, 0); len(got) != 1 || got[0] != 0 {
		t.Fatalf("cell of point 0 = %v, want exactly [0]; coordinates differing by 2^32 share a bucket", got)
	}
	if got := cellMembers(g, 1); len(got) != 1 || got[0] != 1 {
		t.Fatalf("cell of point 1 = %v, want exactly [1]", got)
	}
	// The far point must not appear as a neighbour of the near one.
	if got := g.neighbors(0, nil); len(got) != 1 || got[0] != 0 {
		t.Fatalf("neighbors(%v) = %v, want [0]", a, got)
	}
}

// TestCellKeyWideFallbackExact drives the spans past what packs into 63
// bits (forcing the wide 8-byte-per-dimension encoding) and checks the
// same non-collision property there.
func TestCellKeyWideFallbackExact(t *testing.T) {
	const eps = 1.0
	far := math.Ldexp(1, 33)
	x := []float64{
		0.5, 0.5,
		far + 0.5, far + 0.5,
	}
	side := eps / math.Sqrt(2)
	lo := []int64{cellCoord(0.5, side), cellCoord(0.5, side)}
	hi := []int64{cellCoord(far+0.5, side), cellCoord(far+0.5, side)}
	if _, _, ok := packedStrides(lo, hi); ok {
		t.Fatalf("expected wide fallback for spans of 2^33 in both dimensions")
	}
	g := newGridIndexFlat(x, 2, eps)
	if got := cellMembers(g, 0); len(got) != 1 || got[0] != 0 {
		t.Fatalf("cell of point 0 = %v, want exactly [0]", got)
	}
	if got := g.neighbors(0, nil); len(got) != 1 || got[0] != 0 {
		t.Fatalf("neighbors near origin = %v, want [0]", got)
	}
	// NN across the gap still finds the exact nearest point.
	nn := NewNNFlat(x, 2, 0)
	idx, dist := nn.Nearest([]float64{far, far})
	if idx != 1 {
		t.Fatalf("Nearest far query = index %d, want 1", idx)
	}
	want := math.Sqrt(0.5)
	if math.Abs(dist-want) > 1e-12 {
		t.Fatalf("Nearest far query distance = %v, want %v", dist, want)
	}
}

// TestCellCoordClampAndNaN pins the defensive clamping of cellCoord: cell
// coordinates saturate at ±2^62 and NaN maps to the negative clamp, so
// degenerate inputs cannot overflow key arithmetic.
func TestCellCoordClampAndNaN(t *testing.T) {
	if got := cellCoord(math.Inf(1), 1e-300); got != maxCellCoord {
		t.Errorf("cellCoord(+Inf) = %d, want %d", got, maxCellCoord)
	}
	if got := cellCoord(math.Inf(-1), 1e-300); got != -maxCellCoord {
		t.Errorf("cellCoord(-Inf) = %d, want %d", got, -maxCellCoord)
	}
	if got := cellCoord(math.NaN(), 1.0); got != -maxCellCoord {
		t.Errorf("cellCoord(NaN) = %d, want %d", got, -maxCellCoord)
	}
	if got := cellCoord(2.5, 1.0); got != 2 {
		t.Errorf("cellCoord(2.5, 1) = %d, want 2", got)
	}
	if got := cellCoord(-2.5, 1.0); got != -3 {
		t.Errorf("cellCoord(-2.5, 1) = %d, want -3", got)
	}
}
