package cluster

import "sort"

// DBSCAN's labels are a pure function of the geometry plus the scan
// order, and they split cleanly into an order-free and an
// order-dependent part:
//
//   - A point is core iff its eps-neighbourhood (itself included) holds
//     at least MinPts points — no order involved.
//   - Two cores within eps always end in the same cluster, so the core
//     partition is the connected components of the core–core eps graph —
//     no order involved.
//   - The classic scan discovers each component at its minimal core
//     position, so raw cluster ids are the components ranked by minimal
//     core position.
//   - A border point is adopted during the expansion of the earliest
//     discovered cluster holding a core within eps of it: the component,
//     among those with a core in range, with the smallest minimal core
//     position.
//
// Both clusterers compute the order-free part their own way — the batch
// path from the sub-cell grid (grid.go), the streaming path by localized
// re-expansion on every insertion (incremental.go) — and share scanOrder
// for the order-dependent part, which is what keeps them bit-exact with
// each other and with the textbook scan in internal/oracle.

// interruptEvery is how many units of work pass between Interrupt polls;
// frequent enough that cancellation lands within microseconds, rare
// enough to stay invisible in profiles.
const interruptEvery = 1024

// poller polls an optional interrupt hook every interruptEvery calls.
type poller struct {
	interrupt func() error
	work      int
}

func (p *poller) poll() error {
	if p.interrupt == nil {
		return nil
	}
	p.work++
	if p.work%interruptEvery != 0 {
		return nil
	}
	return p.interrupt()
}

// unionFind is a disjoint-set forest over point indices with path halving
// and union by size.
type unionFind struct {
	parent, size []int32
}

func newUnionFind(n int) unionFind {
	u := unionFind{parent: make([]int32, n), size: make([]int32, n)}
	for i := range u.parent {
		u.parent[i] = int32(i)
		u.size[i] = 1
	}
	return u
}

// add appends a new singleton set and returns its index.
func (u *unionFind) add() int32 {
	i := int32(len(u.parent))
	u.parent = append(u.parent, i)
	u.size = append(u.size, 1)
	return i
}

func (u *unionFind) find(i int32) int32 {
	for u.parent[i] != i {
		u.parent[i] = u.parent[u.parent[i]]
		i = u.parent[i]
	}
	return i
}

func (u *unionFind) union(a, b int32) {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return
	}
	if u.size[ra] < u.size[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	u.size[ra] += u.size[rb]
}

// scanOrder derives the order-dependent labels from the order-free
// density state: which points are core, and their components in uf.
type scanOrder struct {
	uf   *unionFind
	core []bool
	rank []int32 // per component root: raw cluster id, 1-based
}

// newScanOrder ranks the core components by the scan position of their
// first core. pos maps a point to its scan position; nil is the identity.
func newScanOrder(uf *unionFind, core []bool, pos []int) *scanOrder {
	const unset = -1
	n := len(core)
	minCore := make([]int32, n)
	for i := range minCore {
		minCore[i] = unset
	}
	var roots []int32
	for i, c := range core {
		if !c {
			continue
		}
		p := int32(i)
		if pos != nil {
			p = int32(pos[i])
		}
		r := uf.find(int32(i))
		if minCore[r] == unset {
			roots = append(roots, r)
		}
		if minCore[r] == unset || p < minCore[r] {
			minCore[r] = p
		}
	}
	sort.Slice(roots, func(a, b int) bool { return minCore[roots[a]] < minCore[roots[b]] })
	o := &scanOrder{uf: uf, core: core, rank: make([]int32, n)}
	for k, r := range roots {
		o.rank[r] = int32(k + 1)
	}
	return o
}

// coreLabel returns the raw cluster id of core point i.
func (o *scanOrder) coreLabel(i int) int { return int(o.rank[o.uf.find(int32(i))]) }

// adopt returns the raw cluster id a non-core point receives given its
// eps-neighbourhood nbrs: the earliest-discovered component holding a
// core among them, or Noise.
func (o *scanOrder) adopt(nbrs []int32) int {
	best := int32(Noise)
	for _, j := range nbrs {
		if !o.core[j] {
			continue
		}
		if r := o.rank[o.uf.find(j)]; best == Noise || r < best {
			best = r
		}
	}
	return int(best)
}

// dbscanFlat is DBSCAN over strided flat storage with an optional
// interrupt hook polled every interruptEvery units of work, so a cancelled
// job stops mid-frame instead of finishing it. Labels are bit-identical to
// the textbook scan (internal/oracle), computed in three passes over the
// sub-cell grid:
//
//  1. core points: a compact cell holding MinPts points is all-core with
//     no range query; any other point counts its neighbours cell by cell,
//     stopping at MinPts;
//  2. core connectivity: cores of a compact cell are one component; each
//     pair of adjacent cells is joined at the first core pair within eps;
//  3. labels: scanOrder ranks the components and adopts border points.
func dbscanFlat(x []float64, dims int, eps float64, minPts int, interrupt func() error) ([]int, error) {
	n := 0
	if dims > 0 {
		n = len(x) / dims
	}
	labels := make([]int, n)
	if n == 0 {
		return labels, nil
	}
	g := newGridIndexFlat(x, dims, eps)
	p := poller{interrupt: interrupt}
	core := make([]bool, n)
	if err := g.markCores(core, minPts, &p); err != nil {
		return nil, err
	}
	uf := newUnionFind(n)
	if err := g.joinCores(&uf, core, &p); err != nil {
		return nil, err
	}
	order := newScanOrder(&uf, core, nil)
	var nbrs []int32
	for i := range labels {
		if core[i] {
			labels[i] = order.coreLabel(i)
			continue
		}
		if err := p.poll(); err != nil {
			return nil, err
		}
		nbrs = g.neighbors(int32(i), nbrs)
		labels[i] = order.adopt(nbrs)
	}
	return labels, nil
}

// markCores sets core[i] for every point whose eps-neighbourhood holds at
// least minPts points.
func (g *gridIndex) markCores(core []bool, minPts int, p *poller) error {
	for c := int32(0); int(c) < g.cells(); c++ {
		members := g.members(c)
		if g.compact[c] && len(members) >= minPts {
			for _, i := range members {
				core[i] = true
			}
			continue
		}
		for _, i := range members {
			if err := p.poll(); err != nil {
				return err
			}
			core[i] = g.countAtLeast(i, minPts)
		}
	}
	return nil
}

// countAtLeast reports whether point i has at least minPts points within
// eps, counting cell by cell and stopping as soon as it does.
func (g *gridIndex) countAtLeast(i int32, minPts int) bool {
	q := g.point(i)
	c := g.cellOf[i]
	count := 0
	if g.compact[c] {
		count = len(g.members(c))
	} else {
		count = g.countWithin(q, c, count, minPts)
	}
	for _, b := range g.adjacent(c) {
		if count >= minPts {
			break
		}
		if lo, hi := g.box(b); gapSq(lo, hi, q) <= g.eps2 {
			count = g.countWithin(q, b, count, minPts)
		}
	}
	return count >= minPts
}

// countWithin adds to count the members of cell c within eps of q,
// stopping once count reaches minPts.
func (g *gridIndex) countWithin(q []float64, c int32, count, minPts int) int {
	for _, j := range g.members(c) {
		if count >= minPts {
			break
		}
		if g.sqDistTo(j, q) <= g.eps2 {
			count++
		}
	}
	return count
}

// joinCores unions every pair of cores within eps of each other.
func (g *gridIndex) joinCores(uf *unionFind, core []bool, p *poller) error {
	// first[c] is a core of cell c (-1 if none): for a compact cell it
	// stands for every core of the cell.
	first := make([]int32, g.cells())
	for c := range first {
		first[c] = -1
		members := g.members(int32(c))
		for k, i := range members {
			if !core[i] {
				continue
			}
			if first[c] < 0 {
				first[c] = i
			}
			if g.compact[c] {
				uf.union(first[c], i)
				continue
			}
			for _, j := range members[:k] {
				if core[j] && uf.find(i) != uf.find(j) && g.sqDistTo(j, g.point(i)) <= g.eps2 {
					uf.union(i, j)
				}
			}
		}
	}
	var candA, candB []int32
	for a := int32(0); int(a) < g.cells(); a++ {
		for _, b := range g.adjacent(a) {
			if b < a || first[a] < 0 || first[b] < 0 {
				continue // each pair once, and only between cells with cores
			}
			if err := p.poll(); err != nil {
				return err
			}
			if !g.compact[a] || !g.compact[b] {
				g.joinAll(uf, core, a, b)
				continue
			}
			if uf.find(first[a]) == uf.find(first[b]) {
				continue
			}
			candA = g.coresNear(candA[:0], core, a, b)
			candB = g.coresNear(candB[:0], core, b, a)
		search:
			for _, i := range candA {
				q := g.point(i)
				for _, j := range candB {
					if g.sqDistTo(j, q) <= g.eps2 {
						uf.union(i, j)
						break search
					}
				}
			}
		}
	}
	return nil
}

// coresNear appends the cores of cell c whose box gap to cell other is
// within eps: the only cores of c that can neighbour a member of other.
func (g *gridIndex) coresNear(out []int32, core []bool, c, other int32) []int32 {
	lo, hi := g.box(other)
	for _, i := range g.members(c) {
		if core[i] && gapSq(lo, hi, g.point(i)) <= g.eps2 {
			out = append(out, i)
		}
	}
	return out
}

// joinAll unions every core pair within eps across cells a and b; used
// when a cell is not compact, so its cores may span several components.
func (g *gridIndex) joinAll(uf *unionFind, core []bool, a, b int32) {
	for _, i := range g.members(a) {
		if !core[i] {
			continue
		}
		q := g.point(i)
		for _, j := range g.members(b) {
			if core[j] && uf.find(i) != uf.find(j) && g.sqDistTo(j, q) <= g.eps2 {
				uf.union(i, j)
			}
		}
	}
}
