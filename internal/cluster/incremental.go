package cluster

import (
	"fmt"
	"math"
)

// This file holds the streaming counterpart of the batch DBSCAN path:
// an index that accepts points one at a time and keeps the density
// state — per-point neighbour counts, the core set and the core
// connectivity — current after every insertion, so sealing a window
// needs no full clustering pass.
//
// The batch pipeline (RunFlat) min–max-normalises the window, runs
// dbscanFlat and renumbers by weight. Incremental maintains exactly the
// order-free part of DBSCAN's labels (counts and the core components,
// updated by localized re-expansion around each insertion; see
// dbscan.go) and defers the order-dependent part to Seal, which is
// handed the canonical point order and applies the same scanOrder as
// the batch path plus relabelByWeight — bit-exact with RunFlat over the
// same points in that order, as the differential suite in
// incremental_test.go proves.
//
// Normalisation is the one global dependency: every coordinate is
// scaled by the running per-dimension min/max, so an insertion that
// extends a range invalidates every cell assignment and the structure
// is rebuilt. Extensions get rare as the window fills (O(log n) expected
// for i.i.d. coordinates), so rebuilds amortise away; Stats reports the
// count so callers can watch pathological feeds.

// IncrementalStats describes the live state of an incremental index.
type IncrementalStats struct {
	// Points is the number of inserted points.
	Points int
	// Cores is the number of current core points.
	Cores int
	// Components is the number of connected core components (the live
	// provisional cluster count, before weight cuts).
	Components int
	// Cells is the number of populated grid cells.
	Cells int
	// Rebuilds counts the range-extension rebuilds performed so far.
	Rebuilds int
}

// Incremental is an insert-only DBSCAN index over a growing point set.
// It requires explicit Eps and MinPts: the k-dist eps estimator and the
// size-scaled MinPts default need the whole window up front, which is
// exactly what a streaming session does not have. Callers with
// estimator configurations use the batch path instead.
type Incremental struct {
	dims   int
	cfg    Config
	eps    float64
	minPts int

	n       int
	raw     []float64 // un-normalised coordinates, strided
	weights []float64
	mins    []float64
	maxs    []float64
	normed  []float64 // raw normalised by the current ranges, strided

	// Cell directory: floor(v/eps) cells under the exact 8-byte
	// big-endian keys of the batch grid index, with growable buckets
	// because points keep arriving. Lookups are alloc-free via the
	// map[string] compiler optimisation; only a brand-new cell allocates
	// its key.
	cellSlot map[string]int32
	buckets  [][]int32

	counts []int32   // eps-neighbour count per point, self included
	uf     unionFind // over points; only core links are made
	cores  int

	rebuilds int

	cellBuf  []int64
	nbrCell  []int64
	keyBuf   []byte
	neighBuf []int32
	expBuf   []int32
}

// NewIncremental returns an empty incremental index for dims-dimensional
// points under cfg. cfg must pin the density parameters (Eps > 0,
// MinPts > 0) and select the DBSCAN algorithm.
func NewIncremental(dims int, cfg Config) (*Incremental, error) {
	if dims <= 0 {
		return nil, fmt.Errorf("cluster: incremental index needs dims > 0, got %d", dims)
	}
	if cfg.Algorithm != "" && cfg.Algorithm != AlgoDBSCAN {
		return nil, fmt.Errorf("cluster: incremental index supports only %s, not %q", AlgoDBSCAN, cfg.Algorithm)
	}
	if cfg.Eps <= 0 || cfg.MinPts <= 0 {
		return nil, fmt.Errorf("cluster: incremental index needs explicit Eps and MinPts (got %g, %d)", cfg.Eps, cfg.MinPts)
	}
	s := &Incremental{
		dims:     dims,
		cfg:      cfg,
		eps:      cfg.Eps,
		minPts:   cfg.MinPts,
		mins:     make([]float64, dims),
		maxs:     make([]float64, dims),
		cellSlot: map[string]int32{},
		cellBuf:  make([]int64, dims),
		nbrCell:  make([]int64, dims),
		keyBuf:   make([]byte, dims*8),
	}
	for d := 0; d < dims; d++ {
		s.mins[d] = math.Inf(1)
		s.maxs[d] = math.Inf(-1)
	}
	return s, nil
}

// N returns the number of inserted points.
func (s *Incremental) N() int { return s.n }

// Stats snapshots the live index state.
func (s *Incremental) Stats() IncrementalStats {
	st := IncrementalStats{
		Points:   s.n,
		Cores:    s.cores,
		Cells:    len(s.buckets),
		Rebuilds: s.rebuilds,
	}
	seen := map[int32]bool{}
	for i := 0; i < s.n; i++ {
		if int(s.counts[i]) < s.minPts {
			continue
		}
		r := s.uf.find(int32(i))
		if !seen[r] {
			seen[r] = true
			st.Components++
		}
	}
	return st
}

// Add inserts one point (len(p) == dims) with its weight, updating
// cells, neighbour counts and the core components in place. When the
// point extends a normalisation range the whole index is rebuilt under
// the new scales.
func (s *Incremental) Add(p []float64, w float64) {
	if len(p) != s.dims {
		panic(fmt.Sprintf("cluster: incremental Add of %d-dim point into %d-dim index", len(p), s.dims))
	}
	i := s.n
	s.n++
	s.raw = append(s.raw, p...)
	s.weights = append(s.weights, w)
	s.counts = append(s.counts, 0)
	s.uf.add()
	extend := false
	for d, v := range p {
		if v < s.mins[d] {
			s.mins[d] = v
			extend = true
		}
		if v > s.maxs[d] {
			s.maxs[d] = v
			extend = true
		}
	}
	if extend {
		s.rebuild()
		return
	}
	s.normed = append(s.normed, make([]float64, s.dims)...)
	s.normalizeInto(i)
	s.insert(i)
}

// normalizeInto rescales point i into normed under the current ranges,
// with the exact arithmetic of the batch normalizeFlat: (v-min)/width,
// degenerate widths pinned to 0.5.
func (s *Incremental) normalizeInto(i int) {
	for d := 0; d < s.dims; d++ {
		v := s.raw[i*s.dims+d]
		w := s.maxs[d] - s.mins[d]
		if w <= 0 {
			s.normed[i*s.dims+d] = 0.5
		} else {
			s.normed[i*s.dims+d] = (v - s.mins[d]) / w
		}
	}
}

// rebuild renormalises every point and reinserts them under the new
// ranges. The result is identical to having inserted everything with
// the final ranges in the first place: counts and core components are
// order-free functions of the final geometry.
func (s *Incremental) rebuild() {
	s.rebuilds++
	if cap(s.normed) < s.n*s.dims {
		s.normed = make([]float64, s.n*s.dims)
	} else {
		s.normed = s.normed[:s.n*s.dims]
	}
	s.cellSlot = make(map[string]int32, len(s.buckets)+1)
	s.buckets = s.buckets[:0]
	s.cores = 0
	s.uf = newUnionFind(s.n)
	for i := 0; i < s.n; i++ {
		s.counts[i] = 0
		s.normalizeInto(i)
	}
	for i := 0; i < s.n; i++ {
		s.insert(i)
	}
}

// insert adds (already normalised) point i to the cell directory and
// updates the density state: one neighbourhood query for the point
// itself, an increment per neighbour, and a localized re-expansion
// around every neighbour the increment promotes to core.
func (s *Incremental) insert(i int) {
	q := s.normed[i*s.dims : (i+1)*s.dims]
	neigh := s.neighborsOf(q, s.neighBuf[:0])
	s.neighBuf = neigh
	// The point is not filed yet, so the query cannot see it; the batch
	// count includes self whenever the self-distance is a real zero (a
	// NaN or Inf coordinate poisons it to NaN and fails dist <= eps²).
	s.counts[i] = int32(len(neigh))
	selfOK := true
	for _, v := range q {
		if v-v != 0 {
			selfOK = false
			break
		}
	}
	if selfOK {
		s.counts[i]++
	}
	for _, j := range neigh {
		if int(j) == i {
			continue
		}
		s.counts[j]++
		if int(s.counts[j]) == s.minPts {
			s.reexpand(int(j))
		}
	}
	if int(s.counts[i]) >= s.minPts {
		s.cores++
		for _, j := range neigh {
			if int(j) != i && int(s.counts[j]) >= s.minPts {
				s.uf.union(int32(i), j)
			}
		}
	}
	s.addToCell(q, int32(i))
}

// reexpand joins a freshly promoted core with every core already in its
// neighbourhood. This is the localized replacement for the batch
// expansion pass: a single insertion can only change density around the
// points it neighbours, so re-examining those suffices.
func (s *Incremental) reexpand(j int) {
	s.cores++
	q := s.normed[j*s.dims : (j+1)*s.dims]
	nb := s.neighborsOf(q, s.expBuf[:0])
	s.expBuf = nb
	for _, k := range nb {
		if int(k) != j && int(s.counts[k]) >= s.minPts {
			s.uf.union(int32(j), k)
		}
	}
}

// addToCell files point i under its cell key.
func (s *Incremental) addToCell(q []float64, i int32) {
	for d := 0; d < s.dims; d++ {
		s.cellBuf[d] = cellCoord(q[d], s.eps)
	}
	encodeWide(s.keyBuf, s.cellBuf)
	slot, ok := s.cellSlot[string(s.keyBuf)]
	if !ok {
		slot = int32(len(s.buckets))
		s.cellSlot[string(s.keyBuf)] = slot
		s.buckets = append(s.buckets, nil)
	}
	s.buckets[slot] = append(s.buckets[slot], i)
}

// neighborsOf appends to out every inserted point within eps of q (q's
// own index included when already filed), scanning the 3^dims cell
// neighbourhood with the batch grid's inclusive dist² <= eps²
// criterion.
func (s *Incremental) neighborsOf(q []float64, out []int32) []int32 {
	eps2 := s.eps * s.eps
	for d := 0; d < s.dims; d++ {
		s.cellBuf[d] = cellCoord(q[d], s.eps)
		s.nbrCell[d] = s.cellBuf[d] - 1
	}
	for {
		encodeWide(s.keyBuf, s.nbrCell)
		if slot, ok := s.cellSlot[string(s.keyBuf)]; ok {
			for _, j := range s.buckets[slot] {
				base := int(j) * s.dims
				var dist float64
				for d := 0; d < s.dims; d++ {
					dd := s.normed[base+d] - q[d]
					dist += dd * dd
				}
				if dist <= eps2 {
					out = append(out, j)
				}
			}
		}
		d := 0
		for ; d < s.dims; d++ {
			s.nbrCell[d]++
			if s.nbrCell[d] <= s.cellBuf[d]+1 {
				break
			}
			s.nbrCell[d] = s.cellBuf[d] - 1
		}
		if d == s.dims {
			break
		}
	}
	return out
}

// Seal derives the final labels under the canonical point order: canon
// maps canonical position k to the insertion index canon[k] (nil means
// insertion order). The returned Result — labels in canonical order,
// renumbered by weight with the configured cuts — is bit-exact with
// RunFlat over the same points laid out in that order. Seal does not
// consume the index: more points may be added and later windows sealed
// again, which is what makes re-analysis from one resident index cheap.
func (s *Incremental) Seal(canon []int) (*Result, error) {
	n := s.n
	if n == 0 {
		return &Result{}, nil
	}
	if canon == nil {
		canon = make([]int, n)
		for i := range canon {
			canon[i] = i
		}
	}
	if len(canon) != n {
		return nil, fmt.Errorf("cluster: seal permutation of %d entries over %d points", len(canon), n)
	}
	pos := make([]int, n)
	for i := range pos {
		pos[i] = -1
	}
	for k, i := range canon {
		if i < 0 || i >= n || pos[i] >= 0 {
			return nil, fmt.Errorf("cluster: seal order is not a permutation (index %d)", i)
		}
		pos[i] = k
	}

	core := make([]bool, n)
	for i := range core {
		core[i] = int(s.counts[i]) >= s.minPts
	}
	order := newScanOrder(&s.uf, core, pos)
	labels := make([]int, n)
	var nbuf []int32
	for k, i := range canon {
		if core[i] {
			labels[k] = order.coreLabel(i)
			continue
		}
		q := s.normed[i*s.dims : (i+1)*s.dims]
		nbuf = s.neighborsOf(q, nbuf[:0])
		labels[k] = order.adopt(nbuf)
	}

	res := &Result{Labels: labels, Eps: s.eps, MinPts: s.minPts}
	// relabelByWeight accumulates cluster weights in point order; feed it
	// the weights in canonical order so the float sums associate exactly
	// as the batch pass does.
	w := make([]float64, n)
	for k, i := range canon {
		w[k] = s.weights[i]
	}
	relabelByWeight(res, w, s.cfg)
	return res, nil
}
