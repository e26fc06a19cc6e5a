package cluster

import (
	"math"
	"sort"
)

// This file holds the sub-cell grid behind batch DBSCAN (Gunawan 2013; de
// Berg, Gunawan & Roeloffzen 2017). Points live in one strided []float64
// (point i occupies x[i*dims:(i+1)*dims]) and are bucketed into sub-cells
// of side eps/√dims, so a sub-cell's diagonal is eps: every two points
// sharing a sub-cell are neighbours, and a sub-cell holding MinPts points
// makes all of them core without a single range query.
//
// The geometry is never trusted for correctness. Each populated cell keeps
// the tight bounding box of its members, and every claim the clusterer
// draws from a cell is decided on those boxes with the same floating-point
// operations, in the same dimension order, as the point distance
// Σ(p[d]-q[d])². Rounding is monotone, so a box bound computed that way
// bounds every computed pair distance inside it:
//
//   - a cell is compact (all members mutually within eps) only when its
//     members are all finite and its computed box diagonal is <= eps²;
//   - two cells are adjacent (may hold a neighbouring pair) whenever their
//     computed box gap is <= eps², found by a sweep over the populated
//     cells only, so the cost tracks occupied cells at any dimensionality
//     instead of the (2⌈√d⌉+1)^d offsets around a cell.
//
// NaN, ±Inf and huge coordinates therefore cost speed, never exactness:
// they clamp into shared cells whose boxes fail the compactness test.
//
// Cells are grouped by an exact packed int64 key: cell coordinates are
// clamped to ±2^62 and packed via mixed-radix strides over the populated
// coordinate spans, falling back to a full 8-bytes-per-dimension encoding
// when the spans are too vast to pack into 63 bits; keycollision_test.go
// pins that cells 2^32 apart never share a key.

// maxCellCoord clamps cell coordinates; clamped cells merely fail the
// compactness test, so clamping cannot change a result.
const maxCellCoord = int64(1) << 62

// cellCoord quantises one coordinate to its cell index.
func cellCoord(v, side float64) int64 {
	f := math.Floor(v / side)
	if !(f > -(1 << 62)) { // also catches NaN
		return -maxCellCoord
	}
	if f >= 1<<62 {
		return maxCellCoord
	}
	return int64(f)
}

// packedStrides returns the mixed-radix strides that pack cell coordinates
// within [cellMin, cellMax] into one int64 key, and the size of that key
// space. ok is false when the spans overflow 62 bits, which selects the
// exact wide encoding instead.
func packedStrides(cellMin, cellMax []int64) (stride []int64, keys int64, ok bool) {
	stride = make([]int64, len(cellMin))
	keys = 1
	for d := range cellMin {
		span := cellMax[d] - cellMin[d] + 1
		if span <= 0 || keys > (int64(1)<<62)/span {
			return nil, 0, false
		}
		stride[d] = keys
		keys *= span
	}
	return stride, keys, true
}

// encodeWide writes the exact big-endian encoding of a cell coordinate
// vector (8 bytes per dimension) into buf.
func encodeWide(buf []byte, c []int64) {
	for d, v := range c {
		u := uint64(v)
		for b := 0; b < 8; b++ {
			buf[d*8+b] = byte(u >> (56 - 8*b))
		}
	}
}

// gridIndex buckets a flat strided point set into sub-cells of side
// eps/√dims and records, per populated cell, its members (CSR, ascending
// point order), its tight bounding box and the cells adjacent to it.
type gridIndex struct {
	eps2 float64
	dims int
	n    int
	x    []float64 // strided point storage, len n*dims

	// CSR cells: cell c holds idx[start[c]:start[c+1]], ascending.
	start  []int32
	idx    []int32
	cellOf []int32 // per point

	// Tight member box per cell (NaN coordinates skipped), cell-major:
	// cell c, dimension d at lo[c*dims+d] and hi[c*dims+d].
	lo, hi []float64
	// compact: every member coordinate is finite and the computed box
	// diagonal is <= eps², so all members are mutually neighbours.
	compact []bool

	// Adjacency CSR: the members of cells adj[adjStart[c]:adjStart[c+1]]
	// may neighbour those of cell c (c itself excluded).
	adjStart []int32
	adj      []int32
}

// newGridIndexFlat builds the sub-cell grid of a strided point set for
// neighbourhood radius eps.
func newGridIndexFlat(x []float64, dims int, eps float64) *gridIndex {
	g := &gridIndex{eps2: eps * eps, dims: dims, x: x}
	if dims > 0 {
		g.n = len(x) / dims
	}
	if g.n == 0 {
		g.start = []int32{0}
		g.adjStart = []int32{0}
		return g
	}
	g.bucket(eps / math.Sqrt(float64(dims)))
	g.measure()
	g.link()
	return g
}

// bucket assigns every point its cell (slots in first-seen order) and
// lays the members out as CSR.
func (g *gridIndex) bucket(side float64) {
	n, dims := g.n, g.dims
	cellMin := make([]int64, dims)
	cellMax := make([]int64, dims)
	for i := 0; i < n; i++ {
		for d := 0; d < dims; d++ {
			c := cellCoord(g.x[i*dims+d], side)
			if i == 0 || c < cellMin[d] {
				cellMin[d] = c
			}
			if i == 0 || c > cellMax[d] {
				cellMax[d] = c
			}
		}
	}
	g.cellOf = make([]int32, n)
	var counts []int32
	slot := func(s int32, ok bool) int32 {
		if !ok {
			s = int32(len(counts))
			counts = append(counts, 0)
		}
		counts[s]++
		return s
	}
	if stride, keys, ok := packedStrides(cellMin, cellMax); ok {
		// Dense slot table when the packed key space is modest relative
		// to the point count (always true for normalised unit-cube data);
		// otherwise hash. The 1<<22 cap bounds the table at 16 MiB.
		var dense []int32
		var sparse map[int64]int32
		if keys <= 1<<22 && keys <= 64*int64(n)+1024 {
			dense = make([]int32, keys)
			for k := range dense {
				dense[k] = -1
			}
		} else {
			sparse = make(map[int64]int32, n/2+1)
		}
		for i := 0; i < n; i++ {
			key := int64(0)
			for d := 0; d < dims; d++ {
				key += (cellCoord(g.x[i*dims+d], side) - cellMin[d]) * stride[d]
			}
			if dense != nil {
				s := dense[key]
				g.cellOf[i] = slot(s, s >= 0)
				dense[key] = g.cellOf[i]
			} else {
				s, ok := sparse[key]
				g.cellOf[i] = slot(s, ok)
				sparse[key] = g.cellOf[i]
			}
		}
	} else {
		wide := make(map[string]int32, n/2+1)
		buf := make([]byte, dims*8)
		coords := make([]int64, dims)
		for i := 0; i < n; i++ {
			for d := range coords {
				coords[d] = cellCoord(g.x[i*dims+d], side)
			}
			encodeWide(buf, coords)
			s, ok := wide[string(buf)]
			g.cellOf[i] = slot(s, ok)
			if !ok {
				wide[string(buf)] = g.cellOf[i]
			}
		}
	}
	g.start = make([]int32, len(counts)+1)
	for s, c := range counts {
		g.start[s+1] = g.start[s] + c
	}
	g.idx = make([]int32, n)
	cursor := append([]int32(nil), g.start[:len(counts)]...)
	for i, s := range g.cellOf {
		g.idx[cursor[s]] = int32(i)
		cursor[s]++
	}
}

// cells returns the number of populated cells.
func (g *gridIndex) cells() int { return len(g.start) - 1 }

// members returns the points of cell c in ascending order.
func (g *gridIndex) members(c int32) []int32 { return g.idx[g.start[c]:g.start[c+1]] }

// point returns the strided storage row of point i.
func (g *gridIndex) point(i int32) []float64 {
	return g.x[int(i)*g.dims : (int(i)+1)*g.dims]
}

// measure computes every cell's tight box and compact flag.
func (g *gridIndex) measure() {
	dims, cells := g.dims, g.cells()
	g.lo = make([]float64, cells*dims)
	g.hi = make([]float64, cells*dims)
	g.compact = make([]bool, cells)
	for c := 0; c < cells; c++ {
		lo, hi := g.lo[c*dims:(c+1)*dims], g.hi[c*dims:(c+1)*dims]
		for d := range lo {
			lo[d], hi[d] = math.Inf(1), math.Inf(-1)
		}
		finite := true
		for _, i := range g.members(int32(c)) {
			p := g.point(i)
			growBox(lo, hi, p)
			for _, v := range p {
				finite = finite && v-v == 0 // false for NaN and ±Inf
			}
		}
		if finite {
			var diag float64
			for d := range lo {
				dd := hi[d] - lo[d]
				diag += dd * dd
			}
			g.compact[c] = diag <= g.eps2
		}
	}
}

// boxGapSq returns the computed squared gap between the boxes of cells a
// and b: a lower bound on every computed distance between their members.
func (g *gridIndex) boxGapSq(a, b int32) float64 {
	dims := g.dims
	var s float64
	for d := 0; d < dims; d++ {
		la, ha := g.lo[int(a)*dims+d], g.hi[int(a)*dims+d]
		lb, hb := g.lo[int(b)*dims+d], g.hi[int(b)*dims+d]
		var dd float64
		if lb > ha {
			dd = lb - ha
		} else if la > hb {
			dd = la - hb
		}
		s += dd * dd
	}
	return s
}

// box returns the tight box of cell c.
func (g *gridIndex) box(c int32) (lo, hi []float64) {
	return g.lo[int(c)*g.dims : (int(c)+1)*g.dims], g.hi[int(c)*g.dims : (int(c)+1)*g.dims]
}

// gapSq returns the computed squared distance from q to the box [lo, hi]:
// each term uses the same operands and dimension order as the point
// distance, and rounding is monotone, so it bounds from below the computed
// distance of every point inside.
func gapSq(lo, hi, q []float64) float64 {
	var s float64
	for d, v := range q {
		var dd float64
		if v < lo[d] {
			dd = lo[d] - v
		} else if v > hi[d] {
			dd = v - hi[d]
		}
		s += dd * dd
	}
	return s
}

// link finds every pair of cells whose boxes come within eps by sweeping
// the populated cells along the dimension with the widest extent: once a
// later cell's low edge is more than eps past the anchor's high edge in
// that dimension, so is every cell after it.
func (g *gridIndex) link() {
	dims, cells := g.dims, g.cells()
	sd, widest := 0, math.Inf(-1)
	for d := 0; d < dims; d++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for c := 0; c < cells; c++ {
			lo = math.Min(lo, g.lo[c*dims+d])
			hi = math.Max(hi, g.hi[c*dims+d])
		}
		if w := hi - lo; w > widest {
			sd, widest = d, w
		}
	}
	order := make([]int32, cells)
	for c := range order {
		order[c] = int32(c)
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := g.lo[int(order[i])*dims+sd], g.lo[int(order[j])*dims+sd]
		return a < b || (a == b && order[i] < order[j])
	})
	var pairs [][2]int32
	degree := make([]int32, cells+1)
	for ai, a := range order {
		ha := g.hi[int(a)*dims+sd]
		for _, b := range order[ai+1:] {
			if lb := g.lo[int(b)*dims+sd]; lb > ha {
				if dd := lb - ha; dd*dd > g.eps2 {
					break
				}
			}
			if g.boxGapSq(a, b) <= g.eps2 {
				pairs = append(pairs, [2]int32{a, b})
				degree[a]++
				degree[b]++
			}
		}
	}
	g.adjStart = make([]int32, cells+1)
	for c := 0; c < cells; c++ {
		g.adjStart[c+1] = g.adjStart[c] + degree[c]
	}
	g.adj = make([]int32, g.adjStart[cells])
	cursor := append([]int32(nil), g.adjStart[:cells]...)
	for _, p := range pairs {
		g.adj[cursor[p[0]]] = p[1]
		cursor[p[0]]++
		g.adj[cursor[p[1]]] = p[0]
		cursor[p[1]]++
	}
}

// adjacent returns the cells that may hold neighbours of cell c's members.
func (g *gridIndex) adjacent(c int32) []int32 { return g.adj[g.adjStart[c]:g.adjStart[c+1]] }

// sqDistTo returns the squared distance from indexed point i to q, with
// the same per-dimension accumulation order as sqDist.
func (g *gridIndex) sqDistTo(i int32, q []float64) float64 {
	base := int(i) * g.dims
	var s float64
	for d := 0; d < g.dims; d++ {
		dd := g.x[base+d] - q[d]
		s += dd * dd
	}
	return s
}

// neighbors appends to out[:0] every point within eps of indexed point i
// (i itself included when its coordinates are finite) and returns it.
// Steady state it allocates nothing: pass the previous return value back
// in as out.
func (g *gridIndex) neighbors(i int32, out []int32) []int32 {
	out = out[:0]
	q := g.point(i)
	c := g.cellOf[i]
	out = g.appendWithin(out, q, c)
	for _, b := range g.adjacent(c) {
		out = g.appendWithin(out, q, b)
	}
	return out
}

// appendWithin appends the members of cell c within eps of q.
func (g *gridIndex) appendWithin(out []int32, q []float64, c int32) []int32 {
	if lo, hi := g.box(c); !(gapSq(lo, hi, q) <= g.eps2) {
		return out
	}
	for _, j := range g.members(c) {
		if g.sqDistTo(j, q) <= g.eps2 {
			out = append(out, j)
		}
	}
	return out
}
