package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"perftrack/internal/align"
)

// Relation is one correspondence between consecutive frames: the clusters
// in A are held to be the same computing region(s) as the clusters in B.
// Wide relations (more than one cluster on a side) arise when the
// evaluators cannot distinguish nearby objects with the information
// available, so "the regions in doubt are grouped together".
type Relation struct {
	A, B []int
}

// Wide reports whether the relation groups several objects on either side.
func (r Relation) Wide() bool { return len(r.A) > 1 || len(r.B) > 1 }

// PairResult is the full diagnostic output of tracking one pair of
// consecutive frames.
type PairResult struct {
	// From and To are the frame indices of the pair.
	From, To int
	// DispAB and DispBA are the displacement matrices of both directions
	// (the search is reciprocal).
	DispAB, DispBA *Matrix
	// StackAB and StackBA are the call-stack correlation matrices of both
	// directions.
	StackAB, StackBA *Matrix
	// SPMDA and SPMDB are the simultaneity matrices of each frame.
	SPMDA, SPMDB *Matrix
	// Seq is the execution-sequence matrix computed with the pre-split
	// relations as pivots (nil when the evaluator is disabled or had no
	// pivots to work with).
	Seq *Matrix
	// Relations is the final set of correspondences for the pair.
	Relations []Relation
}

// TrackedRegion is one region followed along the whole frame sequence.
type TrackedRegion struct {
	// ID is the stable identifier after renaming (1-based, ordered by
	// decreasing total duration).
	ID int
	// Members lists, per frame index, the cluster ids that belong to the
	// region in that frame (empty when absent).
	Members [][]int
	// Spanning reports whether the region is present in every frame —
	// the paper's k tracked regions are the spanning ones.
	Spanning bool
	// TotalDurationNS sums the duration of all member clusters across all
	// frames.
	TotalDurationNS float64
}

// Result is the outcome of tracking a frame sequence.
type Result struct {
	// Frames is the input sequence (with normalised coordinates filled).
	Frames []*Frame
	// Pairs holds per-consecutive-pair diagnostics.
	Pairs []*PairResult
	// Regions lists all tracked regions, spanning first, by decreasing
	// total duration.
	Regions []*TrackedRegion
	// SpanningCount is the paper's k: regions present in every frame.
	SpanningCount int
	// OptimalK is the maximum number of trackable relations, bounded by
	// the image with the fewest objects (Section 3: "the optimal k is
	// bounded above by the image with the fewer number of objects
	// detected"). It is the coverage denominator of Table 2.
	OptimalK int
	// Coverage is SpanningCount / OptimalK. 1.0 denotes univocal
	// correspondences between all objects; lower values mean nearby
	// objects had to be grouped into wide relations.
	Coverage float64
	// Diagnostics accounts for quarantined bursts, skipped lines,
	// degraded frames and the bridges the tracker built across them.
	Diagnostics Diagnostics
}

// Tracker runs the combination algorithm of Section 3 over a sequence of
// frames.
type Tracker struct {
	cfg Config
}

// NewTracker returns a tracker with the given configuration (zero fields
// take defaults).
func NewTracker(cfg Config) *Tracker { return &Tracker{cfg: cfg.withDefaults()} }

// Track correlates the objects of every pair of consecutive healthy
// frames and chains the relations into tracked regions over the whole
// sequence. Degraded frames are bridged: the surrounding healthy frames
// are correlated directly (the displacement and sequence evaluators do
// not require adjacency, only comparable normalised spaces), so a corrupt
// or collapsed experiment coarsens the trend instead of aborting the
// study. Every bridge is recorded in Result.Diagnostics.
func (tk *Tracker) Track(frames []*Frame) (*Result, error) {
	return tk.TrackContext(context.Background(), frames)
}

// TrackContext is Track with cancellation: the per-frame alignment
// workers and per-pair correlation workers poll ctx between stages, so a
// cancelled or timed-out caller abandons the remaining evaluator work
// instead of computing matrices nobody will read. After a cancel the
// returned error is ctx.Err().
func (tk *Tracker) TrackContext(ctx context.Context, frames []*Frame) (*Result, error) {
	if len(frames) == 0 {
		return nil, fmt.Errorf("core: no frames to track")
	}
	cfg := tk.cfg

	// The tracked sequence is the healthy frames; degraded ones stay in
	// Result.Frames (so indices and labels are preserved) but take no
	// part in correlation.
	var active []int
	for i, f := range frames {
		if !f.Degraded {
			active = append(active, i)
		}
	}
	if len(active) == 0 {
		return nil, fmt.Errorf("core: every frame is degraded")
	}

	// Per-frame machinery shared by evaluators: star alignment of the
	// per-task sequences, its SPMD matrix, pairs and consensus sequence.
	aligns := make([]*align.Alignment, len(frames))
	spmdM := make([]*Matrix, len(frames))
	spmdPairs := make([][][2]int, len(frames))
	consensus := make([][]int, len(frames))
	needAlign := !cfg.DisableSPMD || !cfg.DisableSequence
	// Per-frame alignments are independent of each other; compute them
	// across a GOMAXPROCS-bounded worker pool (each slot is written by
	// exactly one worker, so the outcome is schedule-independent).
	for i, f := range frames {
		if f.Degraded {
			spmdM[i] = NewMatrix("spmd", i, i, f.NumClusters, f.NumClusters)
		}
	}
	if err := runBounded(len(frames), func(i int) {
		f := frames[i]
		if f.Degraded {
			return
		}
		if ctx.Err() != nil {
			// Leave empty per-frame machinery; the cancel check
			// after the pool drains discards everything anyway.
			spmdM[i] = NewMatrix("spmd", i, i, f.NumClusters, f.NumClusters)
			return
		}
		if needAlign {
			aligns[i] = frameAlignment(f, cfg)
			consensus[i] = consensusOf(aligns[i])
		}
		if !cfg.DisableSPMD && ctx.Err() == nil {
			spmdM[i] = SPMDSimultaneity(f, aligns[i], cfg)
			spmdPairs[i] = SPMDPairs(spmdM[i], cfg)
		} else {
			spmdM[i] = NewMatrix("spmd", i, i, f.NumClusters, f.NumClusters)
		}
	}); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Consecutive active pairs are likewise independent (the chain step
	// joins their relations afterwards).
	res := &Result{Frames: frames, Pairs: make([]*PairResult, max(0, len(active)-1))}
	res.Diagnostics = gatherFrameDiagnostics(frames)
	if err := runBounded(max(0, len(active)-1), func(k int) {
		i, j := active[k], active[k+1]
		res.Pairs[k] = tk.trackPair(ctx, frames[i], frames[j],
			spmdM[i], spmdM[j], spmdPairs[i], spmdPairs[j],
			consensus[i], consensus[j])
	}); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, pr := range res.Pairs {
		if pr.To-pr.From > 1 {
			res.Diagnostics.FramesBridged += pr.To - pr.From - 1
			res.Diagnostics.Bridges = append(res.Diagnostics.Bridges, [2]int{pr.From, pr.To})
		}
	}
	tk.chain(res)
	return res, nil
}

// runBounded invokes fn(0..n-1), fanning out across at most GOMAXPROCS
// worker goroutines. fn instances must be independent (each writing only
// its own result slot). A panicking fn does not take the process down: it
// is recovered on its worker while the other indices still run, and the
// panics come back as one error, joined in index order so the error is
// schedule-independent.
func runBounded(n int, fn func(int)) error {
	errs := make([]error, n)
	call := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				errs[i] = panicError(r)
			}
		}()
		fn(i)
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			call(i)
		}
		return errors.Join(errs...)
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				call(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return errors.Join(errs...)
}

// panicError converts a recovered panic value into an error, keeping an
// error value wrapped.
func panicError(r any) error {
	if err, ok := r.(error); ok {
		return fmt.Errorf("core: worker panic: %w", err)
	}
	return fmt.Errorf("core: worker panic: %v", r)
}

// trackPair runs the combination algorithm for one pair of frames:
// displacement links first, widened by SPMD simultaneity, vetoed by call
// stack disjointness, searched reciprocally, and finally refined by the
// execution-sequence evaluator that tries to split wide relations.
// Cancellation is polled between evaluator stages; a cancelled pair
// returns nil (the caller discards the whole result on ctx.Err()).
func (tk *Tracker) trackPair(ctx context.Context, a, b *Frame, spmdA, spmdB *Matrix, pairsA, pairsB [][2]int, seqA, seqB []int) *PairResult {
	cfg := tk.cfg
	pr := &PairResult{From: a.Index, To: b.Index}
	if ctx.Err() != nil {
		return nil
	}
	if cfg.DisableDisplacement {
		// Ablation: empty matrices yield no displacement links, leaving
		// the call-stack rescue, SPMD widening and sequence evaluators to
		// carry the correlation on their own.
		pr.DispAB = NewMatrix("displacement", a.Index, b.Index, a.NumClusters, b.NumClusters)
		pr.DispBA = NewMatrix("displacement", b.Index, a.Index, b.NumClusters, a.NumClusters)
	} else {
		pr.DispAB = Displacement(a, b, cfg)
		pr.DispBA = Displacement(b, a, cfg)
	}
	if ctx.Err() != nil {
		return nil
	}
	pr.StackAB = Callstack(a, b, cfg)
	pr.StackBA = Callstack(b, a, cfg)
	pr.SPMDA, pr.SPMDB = spmdA, spmdB

	vetoCross := func(i, j int) bool {
		return !cfg.DisableCallstack && stacksDisjoint(a, b, i, j)
	}

	// Node ids: 0..a.NumClusters-1 for A clusters, then B clusters.
	nA, nB := a.NumClusters, b.NumClusters
	node := func(frameB bool, id int) int {
		if frameB {
			return nA + id - 1
		}
		return id - 1
	}
	uf := newUnionFind(nA + nB)
	crossLinkedA := make([]bool, nA+1)
	crossLinkedB := make([]bool, nB+1)
	crossLink := func(i, j int) {
		uf.union(node(false, i), node(true, j))
		crossLinkedA[i] = true
		crossLinkedB[j] = true
	}

	// 1) Displacement links, reciprocal, vetoed by call-stack
	// disjointness: "all related regions must share the same references
	// to the source code, so we discard those not having any in common".
	for _, c := range pr.DispAB.NonZero() {
		if !vetoCross(c.Row, c.Col) {
			crossLink(c.Row, c.Col)
		}
	}
	for _, c := range pr.DispBA.NonZero() {
		if !vetoCross(c.Col, c.Row) { // row is B cluster, col is A cluster
			crossLink(c.Col, c.Row)
		}
	}

	// 2) SPMD widening: same-frame simultaneous clusters are the same
	// code, provided the call stacks do not contradict it.
	if !cfg.DisableSPMD {
		for _, p := range pairsA {
			if cfg.DisableCallstack || sharedStack(a, p[0], p[1]) || !hasStacks(a) {
				uf.union(node(false, p[0]), node(false, p[1]))
			}
		}
		for _, p := range pairsB {
			if cfg.DisableCallstack || sharedStack(b, p[0], p[1]) || !hasStacks(b) {
				uf.union(node(true, p[0]), node(true, p[1]))
			}
		}
	}

	// 3) Call-stack rescue: when the performance space moves so far that
	// nearest-neighbour classification finds nothing valid (e.g. NAS BT,
	// where the instruction counts grow an order of magnitude per class),
	// an unlinked cluster whose code references identify exactly one
	// counterpart — in both directions — is bound through them.
	if !cfg.DisableCallstack {
		for i := 1; i <= nA; i++ {
			if crossLinkedA[i] {
				continue
			}
			j := uniqueCandidate(pr.StackAB, i)
			if j == 0 || crossLinkedB[j] {
				continue
			}
			if uniqueCandidate(pr.StackBA, j) == i {
				crossLink(i, j)
			}
		}
	}

	// 4) Extract relations from the components.
	relations := relationsFrom(uf, nA, nB)

	// 5) Execution-sequence refinement: univocal relations serve as
	// pivots; wide relations are re-examined and split when the aligned
	// sequences disambiguate their members, and clusters still alone are
	// bound to the counterpart the aligned sequences place them opposite
	// to (the paper's Figure 5 inference). With no pivots at all the
	// alignment is purely positional, which is still sound because "the
	// sequence of computing bursts over time will preserve the same
	// chronological order" across experiments.
	if !cfg.DisableSequence {
		if ctx.Err() != nil {
			return nil
		}
		pivotsA, pivotsB := map[int]int{}, map[int]int{}
		relID := 0
		for _, r := range relations {
			if !r.Wide() && len(r.A) == 1 && len(r.B) == 1 {
				relID++
				pivotsA[r.A[0]] = relID
				pivotsB[r.B[0]] = relID
			}
		}
		pr.Seq = SequenceCorrelate(a, b, seqA, seqB, pivotsA, pivotsB, cfg)
		relations = tk.splitWide(a, b, relations, pr.Seq)
		relations = tk.bindLone(a, b, relations, pr.Seq)
	}

	sortRelations(relations)
	pr.Relations = relations
	return pr
}

// relationsFrom converts union-find components over the pair's nodes into
// Relations. Components living entirely in one frame become one-sided
// relations (an object that appeared or vanished).
func relationsFrom(uf *unionFind, nA, nB int) []Relation {
	var out []Relation
	for _, members := range uf.groups() {
		var r Relation
		for _, m := range members {
			if m < nA {
				r.A = append(r.A, m+1)
			} else {
				r.B = append(r.B, m-nA+1)
			}
		}
		sort.Ints(r.A)
		sort.Ints(r.B)
		out = append(out, r)
	}
	return out
}

func sortRelations(rels []Relation) {
	key := func(r Relation) int {
		if len(r.A) > 0 {
			return r.A[0]
		}
		if len(r.B) > 0 {
			return 1000 + r.B[0]
		}
		return 1 << 30
	}
	sort.Slice(rels, func(i, j int) bool { return key(rels[i]) < key(rels[j]) })
}

// splitWide attempts to break each wide relation into finer ones using the
// sequence matrix: members are re-linked only where the aligned execution
// sequences agree (and the call stacks do not contradict). A split is
// accepted only when every resulting component still holds members from
// both frames — otherwise the original grouping stands.
func (tk *Tracker) splitWide(a, b *Frame, relations []Relation, seq *Matrix) []Relation {
	cfg := tk.cfg
	var out []Relation
	for _, r := range relations {
		if !r.Wide() || len(r.A) == 0 || len(r.B) == 0 {
			out = append(out, r)
			continue
		}
		// Sub union-find over just this relation's members.
		idx := map[[2]int]int{} // (side, cluster) -> node
		var nodes [][2]int
		for _, i := range r.A {
			idx[[2]int{0, i}] = len(nodes)
			nodes = append(nodes, [2]int{0, i})
		}
		for _, j := range r.B {
			idx[[2]int{1, j}] = len(nodes)
			nodes = append(nodes, [2]int{1, j})
		}
		uf := newUnionFind(len(nodes))
		linked := false
		for _, i := range r.A {
			for _, j := range r.B {
				if seq.At(i, j) >= cfg.SequenceThreshold &&
					(cfg.DisableCallstack || !stacksDisjoint(a, b, i, j)) {
					uf.union(idx[[2]int{0, i}], idx[[2]int{1, j}])
					linked = true
				}
			}
		}
		if !linked {
			out = append(out, r)
			continue
		}
		// Examine the split.
		var subs []Relation
		ok := true
		for _, members := range uf.groups() {
			var s Relation
			for _, m := range members {
				n := nodes[m]
				if n[0] == 0 {
					s.A = append(s.A, n[1])
				} else {
					s.B = append(s.B, n[1])
				}
			}
			if len(s.A) == 0 || len(s.B) == 0 {
				ok = false
				break
			}
			sort.Ints(s.A)
			sort.Ints(s.B)
			subs = append(subs, s)
		}
		if ok && len(subs) > 1 {
			out = append(out, subs...)
		} else {
			out = append(out, r)
		}
	}
	return out
}

// uniqueCandidate returns the only non-zero column of row i, or 0 when the
// row has zero or several candidates.
func uniqueCandidate(m *Matrix, i int) int {
	found := 0
	for j := 1; j <= m.Cols(); j++ {
		if m.At(i, j) > 0 {
			if found != 0 {
				return 0
			}
			found = j
		}
	}
	return found
}

// bindLone merges one-sided relations (a cluster present in only one of
// the two frames) when the pivot-aligned execution sequences place an
// A-side orphan opposite a B-side orphan with sufficient agreement.
func (tk *Tracker) bindLone(a, b *Frame, relations []Relation, seq *Matrix) []Relation {
	cfg := tk.cfg
	var loneA, loneB, rest []Relation
	for _, r := range relations {
		switch {
		case len(r.B) == 0 && len(r.A) > 0:
			loneA = append(loneA, r)
		case len(r.A) == 0 && len(r.B) > 0:
			loneB = append(loneB, r)
		default:
			rest = append(rest, r)
		}
	}
	usedB := make([]bool, len(loneB))
	for _, ra := range loneA {
		bound := false
		for bi, rb := range loneB {
			if usedB[bi] || bound {
				continue
			}
			// Require sequence agreement between every A member and some
			// B member, without a call-stack contradiction.
			ok := true
			for _, i := range ra.A {
				matched := false
				for _, j := range rb.B {
					if seq.At(i, j) >= cfg.SequenceThreshold &&
						(cfg.DisableCallstack || !stacksDisjoint(a, b, i, j)) {
						matched = true
						break
					}
				}
				if !matched {
					ok = false
					break
				}
			}
			if ok {
				merged := Relation{
					A: append([]int(nil), ra.A...),
					B: append([]int(nil), rb.B...),
				}
				sort.Ints(merged.A)
				sort.Ints(merged.B)
				rest = append(rest, merged)
				usedB[bi] = true
				bound = true
			}
		}
		if !bound {
			rest = append(rest, ra)
		}
	}
	for bi, rb := range loneB {
		if !usedB[bi] {
			rest = append(rest, rb)
		}
	}
	return rest
}

// chain links the per-pair relations across the whole sequence into
// tracked regions, computes coverage and assigns stable identifiers.
func (tk *Tracker) chain(res *Result) {
	frames := res.Frames
	// Global node space: offset per frame.
	offset := make([]int, len(frames)+1)
	for i, f := range frames {
		offset[i+1] = offset[i] + f.NumClusters
	}
	total := offset[len(frames)]
	uf := newUnionFind(total)
	node := func(frame, id int) int { return offset[frame] + id - 1 }

	for _, pr := range res.Pairs {
		for _, r := range pr.Relations {
			// All members of a relation are the same region: union within
			// sides and across sides.
			var anchor = -1
			for _, i := range r.A {
				n := node(pr.From, i)
				if anchor < 0 {
					anchor = n
				} else {
					uf.union(anchor, n)
				}
			}
			for _, j := range r.B {
				n := node(pr.To, j)
				if anchor < 0 {
					anchor = n
				} else {
					uf.union(anchor, n)
				}
			}
		}
	}

	// Assemble regions.
	var regions []*TrackedRegion
	for _, members := range uf.groups() {
		tr := &TrackedRegion{Members: make([][]int, len(frames))}
		for _, m := range members {
			fi := sort.Search(len(offset), func(i int) bool { return offset[i] > m }) - 1
			cid := m - offset[fi] + 1
			tr.Members[fi] = append(tr.Members[fi], cid)
			if ci := frames[fi].Cluster(cid); ci != nil {
				tr.TotalDurationNS += ci.TotalDurationNS
			}
		}
		// Spanning means present in every healthy frame: degraded frames
		// cannot host any region, so they do not break spans.
		tr.Spanning = true
		for fi := range frames {
			sort.Ints(tr.Members[fi])
			if len(tr.Members[fi]) == 0 && !frames[fi].Degraded {
				tr.Spanning = false
			}
		}
		regions = append(regions, tr)
	}
	sort.Slice(regions, func(i, j int) bool {
		if regions[i].Spanning != regions[j].Spanning {
			return regions[i].Spanning
		}
		if regions[i].TotalDurationNS != regions[j].TotalDurationNS {
			return regions[i].TotalDurationNS > regions[j].TotalDurationNS
		}
		return firstMember(regions[i]) < firstMember(regions[j])
	})
	for i, tr := range regions {
		tr.ID = i + 1
		if tr.Spanning {
			res.SpanningCount++
		}
	}
	res.Regions = regions

	// The optimal k is bounded by the healthy image with the fewest
	// objects; degraded frames are outside the tracked sequence.
	res.OptimalK = 0
	for _, f := range frames {
		if f.Degraded {
			continue
		}
		if res.OptimalK == 0 || f.NumClusters < res.OptimalK {
			res.OptimalK = f.NumClusters
		}
	}
	if res.OptimalK > 0 {
		res.Coverage = float64(res.SpanningCount) / float64(res.OptimalK)
	}
}

func firstMember(tr *TrackedRegion) int {
	for fi, ms := range tr.Members {
		if len(ms) > 0 {
			return fi*1_000_000 + ms[0]
		}
	}
	return 1 << 30
}

// RegionOf returns the tracked-region id that cluster id of frame fi
// belongs to, or 0 when untracked.
func (r *Result) RegionOf(fi, clusterID int) int {
	for _, tr := range r.Regions {
		if fi < len(tr.Members) {
			for _, c := range tr.Members[fi] {
				if c == clusterID {
					return tr.ID
				}
			}
		}
	}
	return 0
}

// RegionLabels returns, for frame fi, a per-burst label slice where every
// burst carries its tracked-region id (0 for noise/untracked). This is the
// renaming step of Section 3.5: "all objects identifiers renamed, so that
// all the equivalent regions keep the same numbering and color along the
// whole sequence of images".
func (r *Result) RegionLabels(fi int) []int {
	f := r.Frames[fi]
	remap := make([]int, f.NumClusters+1)
	for _, tr := range r.Regions {
		for _, c := range tr.Members[fi] {
			remap[c] = tr.ID
		}
	}
	out := make([]int, len(f.Labels))
	for i, l := range f.Labels {
		if l > 0 && l <= f.NumClusters {
			out[i] = remap[l]
		}
	}
	return out
}

// Region returns the tracked region with the given id, or nil.
func (r *Result) Region(id int) *TrackedRegion {
	for _, tr := range r.Regions {
		if tr.ID == id {
			return tr
		}
	}
	return nil
}
