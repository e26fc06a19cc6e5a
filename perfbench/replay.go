package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"perftrack/internal/cluster"
	"perftrack/internal/core"
	"perftrack/internal/metrics"
)

// nnCell is the grid cell the displacement evaluator indexes frames with
// (core's nnCell); the replay builds the same index to time it alone.
const nnCell = 0.05

// replay re-runs one finished analysis through the public functions of
// each layer, timing every call into lt (milliseconds summed over the
// analysis' frames and pairs) and checking that the replayed work equals
// what the pipeline produced: DBSCAN labels against Frame.Labels, and the
// displacement, call-stack and SPMD matrices against the tracker's
// PairResult. The sequence evaluator is replayed with the pair's final
// univocal relations as pivots; its alignment cost depends only on the
// two consensus sequences, which are the tracker's own.
//
// The garbage collector is paused for the replay, so each layer's time is
// its own computation; allocation cost shows in core.alloc_mb_per_op.
func replay(ctx context.Context, a *analysis, cfg core.Config, lt map[string]float64) error {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ms_ := cfg.Metrics
	if len(ms_) == 0 {
		ms_ = metrics.DefaultSpace()
	}
	dims := len(ms_)
	add := func(k string, d time.Duration) { lt[k] += ms(d) }
	var points, clusters, clustered, bursts, quarantined int

	for _, f := range a.frames {
		bursts += len(f.Trace.Bursts)
		quarantined += f.Quarantined
		n := len(f.Points)
		if n == 0 {
			continue
		}
		coords := make([][]float64, n)
		weights := make([]float64, n)
		for i, p := range f.Points {
			coords[i] = project(ms_, p)
			weights[i] = float64(f.Trace.Bursts[i].DurationNS)
		}
		// A proxy: the pipeline's flat-storage normaliser is not public.
		// Normalize does the same arithmetic but allocates a row per point.
		t := time.Now()
		normed, _, _ := cluster.Normalize(coords)
		add("cluster.normalize_ms", time.Since(t))
		minPts := cfg.Cluster.MinPts
		if minPts <= 0 {
			minPts = max(n/200, 4)
		}
		eps := cfg.Cluster.Eps
		if eps <= 0 {
			t = time.Now()
			eps = cluster.EstimateEps(normed, minPts)
			add("cluster.eps_ms", time.Since(t))
		}
		flat := make([]float64, 0, n*dims)
		for _, q := range normed {
			flat = append(flat, q...)
		}
		t = time.Now()
		raw := cluster.DBSCANFlat(flat, dims, eps, minPts)
		add("cluster.dbscan_ms", time.Since(t))
		if got := relabelByWeight(raw, weights, cfg.Cluster); !equalInts(got, f.Labels) {
			return fmt.Errorf("replay: frame %d DBSCAN labels differ from Frame.Labels", f.Index)
		}
		points += n
		clusters += f.NumClusters
		for _, l := range f.Labels {
			if l > 0 {
				clustered++
			}
		}
	}
	lt["cluster.points"] = float64(points)
	lt["cluster.clusters"] = float64(clusters)
	lt["core.bursts"] = float64(bursts)
	lt["core.quarantined"] = float64(quarantined)
	if points > 0 {
		lt["cluster.clustered_frac"] = float64(clustered) / float64(points)
	}
	// Per-frame machinery, then per-pair evaluators, as the tracker runs
	// them (but one call at a time).
	consensus := map[int][]int{}
	spmd := map[int]*core.Matrix{}
	for _, f := range a.frames {
		if f.Degraded {
			continue
		}
		t := time.Now()
		al := core.FrameAlignment(f, cfg)
		consensus[f.Index] = al.Consensus()
		add("align.star_ms", time.Since(t))
		t = time.Now()
		spmd[f.Index] = core.SPMDSimultaneity(f, al, cfg)
		add("core.spmd_ms", time.Since(t))
	}
	var relations, univocal, queries int
	for _, pr := range a.res.Pairs {
		fa, fb := a.frames[pr.From], a.frames[pr.To]
		if !equalMatrix(spmd[pr.From], pr.SPMDA) || !equalMatrix(spmd[pr.To], pr.SPMDB) {
			return fmt.Errorf("replay: pair %d-%d SPMD matrices differ from the tracker's", pr.From, pr.To)
		}
		for _, dir := range [][2]*core.Frame{{fa, fb}, {fb, fa}} {
			x, n := clusteredFlat(dir[1])
			t := time.Now()
			cluster.NewNNFlat(x, dims, nnCell)
			add("cluster.nn_build_ms", time.Since(t))
			if n > 0 {
				_, q := clusteredFlat(dir[0])
				queries += q
			}
		}
		t := time.Now()
		dAB := core.Displacement(fa, fb, cfg)
		dBA := core.Displacement(fb, fa, cfg)
		add("core.displacement_ms", time.Since(t))
		t = time.Now()
		sAB := core.Callstack(fa, fb, cfg)
		sBA := core.Callstack(fb, fa, cfg)
		add("core.callstack_ms", time.Since(t))
		pivotsA, pivotsB := univocalPivots(pr)
		relations += len(pr.Relations)
		univocal += len(pivotsA)
		t = time.Now()
		core.SequenceCorrelate(fa, fb, consensus[pr.From], consensus[pr.To], pivotsA, pivotsB, cfg)
		add("core.sequence_ms", time.Since(t))
		if !equalMatrix(dAB, pr.DispAB) || !equalMatrix(dBA, pr.DispBA) {
			return fmt.Errorf("replay: pair %d-%d displacement matrices differ from the tracker's", pr.From, pr.To)
		}
		if !equalMatrix(sAB, pr.StackAB) || !equalMatrix(sBA, pr.StackBA) {
			return fmt.Errorf("replay: pair %d-%d call-stack matrices differ from the tracker's", pr.From, pr.To)
		}
	}
	lt["cluster.nn_queries"] = float64(queries)
	lt["core.relations"] = float64(relations)
	if relations > 0 {
		lt["core.univocal_frac"] = float64(univocal) / float64(relations)
	}
	lt["core.coverage"] = a.res.Coverage
	combine, err := combineSelfTime(ctx, a, cfg)
	lt["core.combine_ms"] = ms(combine)
	return err
}

// combineSelfTime is the tracker's own time outside its evaluator calls:
// one more TrackContext call minus the same evaluator calls made back to
// back. Both run on one processor (GOMAXPROCS 1), so the tracker's
// parallel workers neither overlap nor idle-spin and the difference is a
// true self time. The caller has paused the garbage collector.
func combineSelfTime(ctx context.Context, a *analysis, cfg core.Config) (time.Duration, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	t := time.Now()
	if _, err := core.NewTracker(cfg).TrackContext(ctx, a.frames); err != nil {
		return 0, err
	}
	track := time.Since(t)
	t = time.Now()
	consensus := map[int][]int{}
	for _, f := range a.frames {
		if !f.Degraded {
			al := core.FrameAlignment(f, cfg)
			consensus[f.Index] = al.Consensus()
			core.SPMDSimultaneity(f, al, cfg)
		}
	}
	for _, pr := range a.res.Pairs {
		fa, fb := a.frames[pr.From], a.frames[pr.To]
		core.Displacement(fa, fb, cfg)
		core.Displacement(fb, fa, cfg)
		core.Callstack(fa, fb, cfg)
		core.Callstack(fb, fa, cfg)
		pivotsA, pivotsB := univocalPivots(pr)
		core.SequenceCorrelate(fa, fb, consensus[pr.From], consensus[pr.To], pivotsA, pivotsB, cfg)
	}
	return track - time.Since(t), nil
}

// univocalPivots numbers the pair's one-to-one relations as sequence
// pivots.
func univocalPivots(pr *core.PairResult) (map[int]int, map[int]int) {
	pivotsA, pivotsB := map[int]int{}, map[int]int{}
	for _, r := range pr.Relations {
		if len(r.A) == 1 && len(r.B) == 1 {
			id := len(pivotsA) + 1
			pivotsA[r.A[0]] = id
			pivotsB[r.B[0]] = id
		}
	}
	return pivotsA, pivotsB
}

// project maps raw metric values into the space a frame is clustered
// in, as core does per frame: log10 for log-scaled metrics (floored at
// 1e-12), with rank scaling at one rank.
func project(ms []metrics.Metric, p []float64) []float64 {
	q := make([]float64, len(p))
	for d, v := range p {
		if ms[d].LogScale {
			v = math.Log10(math.Max(v, 1e-12))
		}
		q[d] = v
	}
	return q
}

// clusteredFlat packs the normalised coordinates of f's clustered bursts
// into one strided array, as the displacement evaluator indexes them.
func clusteredFlat(f *core.Frame) ([]float64, int) {
	var x []float64
	n := 0
	for i, l := range f.Labels {
		if l > 0 {
			x = append(x, f.Norm[i]...)
			n++
		}
	}
	return x, n
}

// relabelByWeight renumbers raw DBSCAN labels the way cluster.RunFlat
// does before returning them: clusters 1..K by decreasing total weight
// (ties by raw id), with the MinClusterWeight and MaxClusters cuts
// folding clusters into noise.
func relabelByWeight(raw []int, weights []float64, cfg cluster.Config) []int {
	totals := map[int]float64{}
	var clusteredWeight float64
	for i, l := range raw {
		if l != cluster.Noise {
			totals[l] += weights[i]
			clusteredWeight += weights[i]
		}
	}
	ids := make([]int, 0, len(totals))
	for id := range totals {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if totals[ids[i]] != totals[ids[j]] {
			return totals[ids[i]] > totals[ids[j]]
		}
		return ids[i] < ids[j]
	})
	remap := map[int]int{}
	kept := 0
	for _, id := range ids {
		switch {
		case cfg.MaxClusters > 0 && kept >= cfg.MaxClusters,
			cfg.MinClusterWeight > 0 && clusteredWeight > 0 && totals[id]/clusteredWeight < cfg.MinClusterWeight:
			remap[id] = cluster.Noise
		default:
			kept++
			remap[id] = kept
		}
	}
	out := make([]int, len(raw))
	for i, l := range raw {
		if l != cluster.Noise {
			out[i] = remap[l]
		}
	}
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalMatrix(a, b *core.Matrix) bool {
	if a == nil || b == nil || len(a.P) != len(b.P) {
		return false
	}
	for i := range a.P {
		if len(a.P[i]) != len(b.P[i]) {
			return false
		}
		for j := range a.P[i] {
			if a.P[i][j] != b.P[i][j] {
				return false
			}
		}
	}
	return true
}
