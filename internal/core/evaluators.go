package core

import (
	"runtime"
	"sort"

	"perftrack/internal/align"
	"perftrack/internal/cluster"
	"perftrack/internal/trace"
)

// This file implements the four heuristic evaluators of Section 3. Each
// produces one or more correlation matrices; the combiner (tracker.go)
// merges, prunes and refines their findings.

// Displacement implements the evaluator of Section 3.1: a cross
// classification of every computing burst of frame a onto the objects of
// frame b based on a nearest-neighbour criterion in the (cross-series
// normalised) performance space. Cell (i, j) is the fraction of bursts of
// object A_i whose nearest clustered burst of b belongs to B_j — the
// paper's Figure 3.
func Displacement(a, b *Frame, cfg Config) *Matrix {
	cfg = cfg.withDefaults()
	m := NewMatrix("displacement", a.Index, b.Index, a.NumClusters, b.NumClusters)
	// Index only the clustered points of b, packed into one strided flat
	// array so the NN index needs no per-point boxing.
	dims := 0
	if len(b.Norm) > 0 {
		dims = len(b.Norm[0])
	}
	var x []float64
	var lbl []int
	for i, l := range b.Labels {
		if l > 0 {
			x = append(x, b.Norm[i]...)
			lbl = append(lbl, l)
		}
	}
	if len(lbl) == 0 || a.NumClusters == 0 {
		return m
	}
	nn := cluster.NewNNFlat(x, dims, 0)
	// Nearest-neighbour classification of every burst is the hottest loop
	// of the pipeline; the queries are independent, so shard them across
	// the CPUs. Integer tallies sum exactly in any order, so per-shard
	// tallies keep the result bit-identical to the sequential loop.
	shards := max(1, min(runtime.GOMAXPROCS(0), len(a.Labels)))
	chunk := (len(a.Labels) + shards - 1) / shards
	tallies := make([][][]float64, shards)
	if err := runBounded(shards, func(w int) {
		tally := make([][]float64, a.NumClusters+1)
		for i := range tally {
			tally[i] = make([]float64, b.NumClusters+1)
		}
		for i := w * chunk; i < min((w+1)*chunk, len(a.Labels)); i++ {
			la := a.Labels[i]
			if la <= 0 {
				continue
			}
			j, _ := nn.Nearest(a.Norm[i])
			if j < 0 {
				continue
			}
			tally[la][lbl[j]]++
		}
		tallies[w] = tally
	}); err != nil {
		// Displacement has no error path: re-raise on the caller's
		// goroutine, where the enclosing worker pool reports it.
		panic(err)
	}
	counts := make([]float64, a.NumClusters+1)
	for _, tally := range tallies {
		for la := 1; la <= a.NumClusters; la++ {
			for lb := 1; lb <= b.NumClusters; lb++ {
				m.P[la][lb] += tally[la][lb]
				counts[la] += tally[la][lb]
			}
		}
	}
	for i := 1; i <= a.NumClusters; i++ {
		if counts[i] == 0 {
			continue
		}
		for j := 1; j <= b.NumClusters; j++ {
			m.P[i][j] /= counts[i]
		}
	}
	m.Threshold(cfg.MinCorrelation)
	return m
}

// taskSequences extracts the chronological cluster-id sequence of every
// task of the frame (noise bursts skipped), sampling at most sample tasks
// with a uniform stride to bound alignment cost.
func taskSequences(f *Frame, sample int) [][]int {
	perTask := f.Trace.PerTaskSequences()
	tasks := make([]int, 0, len(perTask))
	for t := range perTask {
		tasks = append(tasks, t)
	}
	sort.Ints(tasks)
	if sample > 0 && len(tasks) > sample {
		// A contiguous block of tasks, not a strided one: strides alias
		// with rank-modulo behaviour patterns (e.g. odd/even kernel
		// variants) and would sample a single behaviour mode.
		tasks = tasks[:sample]
	}
	seqs := make([][]int, 0, len(tasks))
	for _, t := range tasks {
		var s []int
		for _, bi := range perTask[t] {
			if l := f.Labels[bi]; l > 0 {
				s = append(s, l)
			}
		}
		seqs = append(seqs, s)
	}
	return seqs
}

// frameAlignment computes the star multiple alignment of the frame's
// per-task cluster sequences.
func frameAlignment(f *Frame, cfg Config) *align.Alignment {
	seqs := taskSequences(f, cfg.SPMDTaskSample)
	return align.Star(seqs, align.DefaultScoring())
}

// FrameAlignment exposes the per-frame star alignment (Fig. 4 style
// analyses and SPMD-ness checks outside the tracker).
func FrameAlignment(f *Frame, cfg Config) *align.Alignment {
	return frameAlignment(f, cfg.withDefaults())
}

// SPMDSimultaneity implements the evaluator of Section 3.2: it aligns the
// per-task cluster sequences of one experiment and reports, for every pair
// of distinct clusters, the probability of being executed at the same time
// by different processes. Row and column frame are the same frame.
func SPMDSimultaneity(f *Frame, al *align.Alignment, cfg Config) *Matrix {
	cfg = cfg.withDefaults()
	m := NewMatrix("spmd", f.Index, f.Index, f.NumClusters, f.NumClusters)
	if f.NumClusters == 0 || al.Columns() == 0 {
		return m
	}
	co := al.CoOccurrence(f.NumClusters + 1)
	for i := 1; i <= f.NumClusters; i++ {
		for j := 1; j <= f.NumClusters; j++ {
			m.P[i][j] = co[i][j]
		}
	}
	m.Threshold(cfg.MinCorrelation)
	return m
}

// SPMDPairs extracts the simultaneous cluster pairs of a frame: pairs
// whose reciprocal co-occurrence meets the SPMD threshold.
func SPMDPairs(m *Matrix, cfg Config) [][2]int {
	cfg = cfg.withDefaults()
	var out [][2]int
	for i := 1; i <= m.Rows(); i++ {
		for j := i + 1; j <= m.Cols(); j++ {
			if m.At(i, j) >= cfg.SPMDThreshold && m.At(j, i) >= cfg.SPMDThreshold {
				out = append(out, [2]int{i, j})
			}
		}
	}
	return out
}

// Callstack implements the evaluator of Section 3.3: cell (i, j) is the
// fraction of bursts of A_i whose call-stack reference also appears among
// the references of B_j. Relations with no code reference in common cannot
// be equivalent; the combiner uses this matrix as a veto.
func Callstack(a, b *Frame, cfg Config) *Matrix {
	cfg = cfg.withDefaults()
	m := NewMatrix("callstack", a.Index, b.Index, a.NumClusters, b.NumClusters)
	for i := 1; i <= a.NumClusters; i++ {
		ai := a.Clusters[i]
		if ai == nil || ai.Size == 0 {
			continue
		}
		for j := 1; j <= b.NumClusters; j++ {
			bj := b.Clusters[j]
			if bj == nil {
				continue
			}
			var shared int
			for st, n := range ai.Stacks {
				if _, ok := bj.Stacks[st]; ok {
					shared += n
				}
			}
			m.P[i][j] = float64(shared) / float64(ai.Size)
		}
	}
	m.Threshold(cfg.MinCorrelation)
	return m
}

// hasStacks reports whether any cluster of the frame carries call-stack
// information; traces captured without references disable the veto.
func hasStacks(f *Frame) bool {
	for _, ci := range f.Clusters[1:] {
		if ci != nil && len(ci.Stacks) > 0 {
			return true
		}
	}
	return false
}

// stacksDisjoint reports whether clusters ai of a and bj of b share no
// call-stack reference (the veto condition). It returns false when either
// side has no stack info, since absence of evidence must not veto.
func stacksDisjoint(a, b *Frame, ai, bj int) bool {
	ca, cb := a.Cluster(ai), b.Cluster(bj)
	if ca == nil || cb == nil || len(ca.Stacks) == 0 || len(cb.Stacks) == 0 {
		return false
	}
	for st := range ca.Stacks {
		if _, ok := cb.Stacks[st]; ok {
			return false
		}
	}
	return true
}

// sharedStack reports whether two clusters of the same frame share a
// reference (used to sanity-check SPMD merges).
func sharedStack(f *Frame, i, j int) bool {
	return !stacksDisjoint(f, f, i, j)
}

// SequenceCorrelate implements the evaluator of Section 3.4: the global
// consensus execution sequences of frames a and b are aligned using the
// already-established relations as pivots, and clusters falling into
// matching positions between pivots are correlated. pivotsA/pivotsB map
// cluster ids to a shared relation identifier (>=1); clusters absent from
// the maps are the unknowns the evaluator tries to bind. Cell (i, j) is
// the fraction of occurrences of A-cluster i aligned opposite B-cluster j.
func SequenceCorrelate(a, b *Frame, seqA, seqB []int, pivotsA, pivotsB map[int]int, cfg Config) *Matrix {
	cfg = cfg.withDefaults()
	m := NewMatrix("sequence", a.Index, b.Index, a.NumClusters, b.NumClusters)
	if len(seqA) == 0 || len(seqB) == 0 {
		return m
	}
	// Encode both sequences into a shared symbol space: pivots map to
	// their relation id; unknowns get frame-disjoint symbols so they can
	// never spuriously match each other during alignment.
	const (
		baseA = 1_000_000
		baseB = 2_000_000
	)
	encA := make([]int, len(seqA))
	for i, c := range seqA {
		if r, ok := pivotsA[c]; ok {
			encA[i] = r
		} else {
			encA[i] = baseA + c
		}
	}
	encB := make([]int, len(seqB))
	for i, c := range seqB {
		if r, ok := pivotsB[c]; ok {
			encB[i] = r
		} else {
			encB[i] = baseB + c
		}
	}
	ra, rb, _ := align.Pairwise(encA, encB, align.DefaultScoring())
	counts := make([]float64, a.NumClusters+1)
	for t := range ra {
		sa, sb := ra[t], rb[t]
		if sa >= baseA && sa < baseB {
			ca := sa - baseA
			counts[ca]++
			if sb >= baseB {
				m.P[ca][sb-baseB]++
			}
		}
	}
	for i := 1; i <= a.NumClusters; i++ {
		if counts[i] == 0 {
			continue
		}
		for j := 1; j <= b.NumClusters; j++ {
			m.P[i][j] /= counts[i]
		}
	}
	m.Threshold(cfg.MinCorrelation)
	return m
}

// consensusOf returns the consensus execution sequence of a frame from its
// star alignment.
func consensusOf(al *align.Alignment) []int { return al.Consensus() }

// StackTable summarises, per call-stack reference, which clusters of each
// frame contain bursts pointing at it — the paper's Table 1. Keys are
// references present in either frame.
func StackTable(a, b *Frame) map[trace.CallstackRef][2][]int {
	out := map[trace.CallstackRef][2][]int{}
	collect := func(f *Frame, side int) {
		for id := 1; id <= f.NumClusters; id++ {
			ci := f.Clusters[id]
			if ci == nil {
				continue
			}
			for st := range ci.Stacks {
				e := out[st]
				e[side] = append(e[side], id)
				out[st] = e
			}
		}
	}
	collect(a, 0)
	collect(b, 1)
	for st, e := range out {
		sort.Ints(e[0])
		sort.Ints(e[1])
		out[st] = e
	}
	return out
}
