package cluster

import "math"

// NN is an exact nearest-neighbour index over a point set: a k-d tree with
// median splits and a tight bounding box per node. The tracking
// displacement evaluator cross-classifies every burst of one frame to its
// nearest clustered burst of the next, which would be O(n²) with linear
// scans. Cross-frame queries often land far from any indexed point; the
// tree's cost tracks its depth, not that distance. Points are copied into
// tree order in one strided
// []float64, so a leaf scan walks contiguous memory, and a query keeps its
// traversal stack in a fixed array — Nearest is allocation-free at every
// dimensionality (asserted by testing.AllocsPerRun in alloc_test.go).
type NN struct {
	dims  int
	x     []float64 // points in tree order, strided
	id    []int32   // input index of tree-order point k
	nodes []kdNode
	// Tight box per node (NaN coordinates skipped): node k spans
	// box[2k·dims:(2k+1)·dims] (lo) and the next dims values (hi).
	box []float64
}

// kdNode covers the tree-order points [first, end). Leaves have left < 0;
// an inner node's left child holds coordinates split <= cut, its right
// child coordinates >= cut.
type kdNode struct {
	first, end  int32
	left, right int32
	minID       int32 // smallest input index in the subtree
	split       int32
	cut         float64
}

// kdLeaf is the largest node the build leaves unsplit.
const kdLeaf = 16

// kdMaxDepth bounds the traversal stack: median splits keep the tree
// balanced, so its depth is at most log2(n) < 32 for any int32-indexed set.
const kdMaxDepth = 64

// NewNN builds an index over points. cell is ignored; see NewNNFlat.
func NewNN(points [][]float64, cell float64) *NN {
	x, dims := flatten(points)
	return NewNNFlat(x, dims, cell)
}

// flatten copies a boxed point set into strided storage.
func flatten(points [][]float64) ([]float64, int) {
	if len(points) == 0 {
		return nil, 0
	}
	dims := len(points[0])
	x := make([]float64, 0, len(points)*dims)
	for _, p := range points {
		x = append(x, p...)
	}
	return x, dims
}

// NewNNFlat builds the index over strided flat storage: point i occupies
// x[i*dims:(i+1)*dims]. The index copies what it needs, so x may be reused
// afterwards. cell is ignored: the tree partitions the data by itself, so
// there is no cell size to tune. The parameter stays for callers that
// still pass one.
func NewNNFlat(x []float64, dims int, cell float64) *NN {
	nn := &NN{dims: dims}
	n := 0
	if dims > 0 {
		n = len(x) / dims
	}
	if n == 0 {
		return nn
	}
	nn.id = make([]int32, n)
	for i := range nn.id {
		nn.id[i] = int32(i)
	}
	// Splits stop at kdLeaf points, so every leaf holds at least
	// kdLeaf/2 and the tree has fewer than 4n/kdLeaf nodes.
	nodes := 4*n/kdLeaf + 1
	nn.nodes = make([]kdNode, 0, nodes)
	nn.box = make([]float64, 0, 2*nodes*dims)
	nn.x = append([]float64(nil), x[:n*dims]...)
	b := kdBuilder{nn: nn, bounds: make([]float64, 2*dims*(kdMaxDepth+1))}
	root := b.bounds[:2*dims]
	for d := 0; d < dims; d++ {
		root[d], root[dims+d] = math.Inf(1), math.Inf(-1)
	}
	for i := 0; i < n; i++ {
		growBox(root[:dims], root[dims:], x[i*dims:(i+1)*dims])
	}
	b.build(0, int32(n), 0)
	return nn
}

// Len returns the number of indexed points.
func (nn *NN) Len() int { return len(nn.id) }

// growBox widens the box [lo, hi] to cover p, skipping NaN coordinates.
func growBox(lo, hi, p []float64) {
	for d, v := range p {
		if v < lo[d] {
			lo[d] = v
		}
		if v > hi[d] {
			hi[d] = v
		}
	}
}

// kdBuilder holds the scratch of one tree build.
type kdBuilder struct {
	nn *NN
	// bounds holds, per depth t, the region a node at that depth covers
	// (lo at bounds[2t·dims:], hi dims later). Regions only steer the
	// choice of split dimension; pruning uses the tight boxes.
	bounds []float64
}

// build creates the node covering id[first:end] at the given depth and its
// subtree, returning the node's index. The ids are permuted in place into
// tree order; an inner node's tight box is the union of its children's.
func (b *kdBuilder) build(first, end int32, depth int) int32 {
	nn, dims := b.nn, b.nn.dims
	k := int32(len(nn.nodes))
	nn.nodes = append(nn.nodes, kdNode{first: first, end: end, left: -1, right: -1, minID: nn.id[first]})
	nn.box = append(nn.box, make([]float64, 2*dims)...)
	lo, hi := nn.boxOf(k)
	for d := 0; d < dims; d++ {
		lo[d], hi[d] = math.Inf(1), math.Inf(-1)
	}
	if end-first <= kdLeaf {
		for t := first; t < end; t++ {
			nn.nodes[k].minID = min(nn.nodes[k].minID, nn.id[t])
			growBox(lo, hi, nn.x[int(t)*dims:(int(t)+1)*dims])
		}
		return k
	}
	region := b.bounds[2*depth*dims : 2*(depth+1)*dims]
	split, widest := 0, math.Inf(-1)
	for d := 0; d < dims; d++ {
		if w := region[dims+d] - region[d]; w > widest {
			split, widest = d, w
		}
	}
	mid := first + (end-first)/2
	b.selectNth(split, first, end, mid)
	cut := nn.x[int(mid)*dims+split]
	child := b.bounds[2*(depth+1)*dims : 2*(depth+2)*dims]
	copy(child, region)
	child[dims+split] = cut
	left := b.build(first, mid, depth+1)
	copy(child, region)
	child[split] = cut
	right := b.build(mid, end, depth+1)
	nd := &nn.nodes[k]
	nd.left, nd.right, nd.split, nd.cut = left, right, int32(split), cut
	nd.minID = min(nn.nodes[left].minID, nn.nodes[right].minID)
	for _, c := range [2]int32{left, right} {
		clo, chi := nn.boxOf(c)
		growBox(lo, hi, clo)
		growBox(lo, hi, chi)
	}
	return k
}

// boxOf returns the tight box of node k.
func (nn *NN) boxOf(k int32) (lo, hi []float64) {
	b := nn.box[2*int(k)*nn.dims : 2*(int(k)+1)*nn.dims]
	return b[:nn.dims], b[nn.dims:]
}

// selectNth permutes the points [first, end) in tree order so that point
// nth holds the (nth-first)-th smallest coordinate split, nothing after it
// smaller and nothing before it larger: median-of-three quickselect. NaN
// keys land anywhere; they only cost balance.
func (b *kdBuilder) selectNth(split int, first, end, nth int32) {
	nn, dims := b.nn, b.nn.dims
	x, ids := nn.x[int(first)*dims:int(end)*dims], nn.id[first:end]
	key := func(t int) float64 { return x[t*dims+split] }
	swap := func(i, j int) {
		for d := 0; d < dims; d++ {
			x[i*dims+d], x[j*dims+d] = x[j*dims+d], x[i*dims+d]
		}
		ids[i], ids[j] = ids[j], ids[i]
	}
	k := int(nth - first)
	lo, hi := 0, len(ids)-1
	for lo < hi {
		m := lo + (hi-lo)/2
		if key(m) < key(lo) {
			swap(m, lo)
		}
		if key(hi) < key(lo) {
			swap(hi, lo)
		}
		if key(hi) < key(m) {
			swap(hi, m)
		}
		pivot := key(m)
		i, j := lo, hi
		for i <= j {
			for key(i) < pivot {
				i++
			}
			for pivot < key(j) {
				j--
			}
			if i <= j {
				swap(i, j)
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
	}
}

// boxSq returns the computed squared distance from q to node k's box.
func (nn *NN) boxSq(k int32, q []float64) float64 {
	lo, hi := nn.boxOf(k)
	return gapSq(lo, hi, q)
}

// Nearest returns the index of the point closest to q and its Euclidean
// distance. It returns (-1, +Inf) for an empty index.
//
// Canonical tie-break specification (the contract the differential
// harness in oracle_differential_test.go enforces against the brute-force
// reference in internal/oracle):
//
//	The nearest neighbour of q is the point with the minimal squared
//	Euclidean distance to q, computed as Σ(p[d]-q[d])² in dimension
//	order. Among points at exactly equal squared distance, the one with
//	the LOWEST index in the input slice wins — globally, regardless of
//	which node of the tree the candidates occupy. This is precisely
//	the result of a left-to-right linear scan keeping the first
//	strictly-better candidate.
//
// Three details of the tree search make it honour the spec:
//
//   - a candidate displaces the incumbent only when strictly closer OR
//     equal-and-lower-index, so visiting order cannot matter;
//   - a subtree is pruned only when its box distance is strictly greater
//     than the best, or equal to it with every index in the subtree
//     above the best's: an equal-distance point with a lower index is
//     never skipped;
//   - the box distance is computed with the point distance's own
//     operations (see gapSq), so it never exceeds the computed distance
//     of a point inside, even after rounding.
func (nn *NN) Nearest(q []float64) (int, float64) {
	if len(nn.id) == 0 {
		return -1, math.Inf(1)
	}
	type entry struct {
		node  int32
		bound float64
	}
	var stack [kdMaxDepth]entry
	stack[0] = entry{0, nn.boxSq(0, q)}
	sp := 1
	best, bestSq := int32(-1), math.Inf(1)
	dims := nn.dims
	for sp > 0 {
		sp--
		k, bound := stack[sp].node, stack[sp].bound
		for {
			nd := &nn.nodes[k]
			if bound > bestSq || (bound == bestSq && nd.minID > best) {
				break
			}
			if nd.left >= 0 {
				// Descend towards q; the parent's bound still bounds
				// the near child, and the far child waits on the stack
				// with its own.
				near, far := nd.left, nd.right
				if q[nd.split] >= nd.cut {
					near, far = far, near
				}
				if fb := nn.boxSq(far, q); !(fb > bestSq) {
					stack[sp] = entry{far, fb}
					sp++
				}
				k = near
				continue
			}
			if dims == 2 {
				// Unrolled 2-D leaf scan: same left-associated
				// accumulation as the generic loop.
				q0, q1 := q[0], q[1]
				for t := nd.first; t < nd.end; t++ {
					d0 := nn.x[2*int(t)] - q0
					d1 := nn.x[2*int(t)+1] - q1
					d := d0*d0 + d1*d1
					if id := nn.id[t]; d < bestSq || (d == bestSq && id < best) {
						best, bestSq = id, d
					}
				}
				break
			}
			for t := nd.first; t < nd.end; t++ {
				var d float64
				for j, v := range nn.x[int(t)*dims : (int(t)+1)*dims] {
					dd := v - q[j]
					d += dd * dd
				}
				if id := nn.id[t]; d < bestSq || (d == bestSq && id < best) {
					best, bestSq = id, d
				}
			}
			break
		}
	}
	return int(best), math.Sqrt(bestSq)
}
