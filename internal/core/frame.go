// Package core implements the paper's primary contribution: the object
// tracking algorithm that correlates equivalent computing regions across a
// sequence of performance "images" (frames), despite the performance
// variations that move, reshape, split or merge them.
//
// The pipeline is the one Section 2 and 3 of the paper describe:
//
//  1. Every experiment's trace is rendered as a frame: each CPU burst is a
//     point in a metric space (IPC × Instructions by default) and
//     density-based clustering groups similar bursts into objects.
//  2. Metric scales are normalised across the sequence so frames from
//     different configurations become comparable.
//  3. Four heuristic evaluators (displacements, SPMD simultaneity, call
//     stack references, execution sequence) produce correlation evidence
//     between objects of consecutive frames.
//  4. A combiner merges the evidence into relations, prunes and refines
//     them, and chains relations across the sequence into tracked regions
//     whose per-metric trends are then reported.
package core

import (
	"context"
	"fmt"
	"math"

	"perftrack/internal/cluster"
	"perftrack/internal/metrics"
	"perftrack/internal/trace"
)

// Config parametrises the whole tracking pipeline.
type Config struct {
	// Metrics spans the performance space. Default: IPC × Instructions.
	Metrics []metrics.Metric
	// Cluster configures the per-frame DBSCAN run.
	Cluster cluster.Config
	// MinBurstDurationNS drops bursts shorter than this before clustering;
	// fine-grain bursts carry little signal and inflate the frames.
	MinBurstDurationNS int64
	// TopDurationFrac keeps only the longest bursts covering this fraction
	// of total time (0 or >=1 keeps all).
	TopDurationFrac float64
	// MinCorrelation is the outlier cut for evaluator matrices; cells
	// below it are neglected ("occurrences with a very small probability,
	// 5% by default, are neglected as outliers").
	MinCorrelation float64
	// SPMDThreshold is the minimum reciprocal co-occurrence probability
	// for the SPMD evaluator to declare two same-frame clusters
	// simultaneous.
	SPMDThreshold float64
	// SPMDTaskSample caps how many task sequences enter the multiple
	// alignment (0 = 32). Sampling keeps the star alignment cheap on
	// wide runs without biasing column structure.
	SPMDTaskSample int
	// SequenceThreshold is the minimum agreement for the execution
	// sequence evaluator to bind two clusters when splitting a wide
	// relation.
	SequenceThreshold float64
	// DisableSPMD, DisableCallstack, DisableSequence and
	// DisableDisplacement switch individual evaluators off (ablation
	// studies; the trackeval quality gate nerfs the tracker through these
	// to prove the gate actually bites).
	DisableSPMD         bool
	DisableCallstack    bool
	DisableSequence     bool
	DisableDisplacement bool
}

// Validate reports a descriptive error for unusable configurations; zero
// values are fine (they select defaults), only actively contradictory
// settings are rejected.
func (c Config) Validate() error {
	for i, m := range c.Metrics {
		if !m.Valid() {
			return fmt.Errorf("core: metric %d is invalid (missing name or Eval)", i)
		}
	}
	if c.MinCorrelation < 0 || c.MinCorrelation > 1 {
		return fmt.Errorf("core: MinCorrelation %v outside [0,1]", c.MinCorrelation)
	}
	if c.SPMDThreshold < 0 || c.SPMDThreshold > 1 {
		return fmt.Errorf("core: SPMDThreshold %v outside [0,1]", c.SPMDThreshold)
	}
	if c.SequenceThreshold < 0 || c.SequenceThreshold > 1 {
		return fmt.Errorf("core: SequenceThreshold %v outside [0,1]", c.SequenceThreshold)
	}
	if c.TopDurationFrac < 0 || c.TopDurationFrac > 1 {
		return fmt.Errorf("core: TopDurationFrac %v outside [0,1]", c.TopDurationFrac)
	}
	if c.MinBurstDurationNS < 0 {
		return fmt.Errorf("core: negative MinBurstDurationNS")
	}
	return nil
}

// withDefaults returns a copy with zero values replaced by defaults.
func (c Config) withDefaults() Config {
	if len(c.Metrics) == 0 {
		c.Metrics = metrics.DefaultSpace()
	}
	if c.MinCorrelation <= 0 {
		c.MinCorrelation = 0.05
	}
	if c.SPMDThreshold <= 0 {
		c.SPMDThreshold = 0.30
	}
	if c.SPMDTaskSample <= 0 {
		c.SPMDTaskSample = 32
	}
	if c.SequenceThreshold <= 0 {
		c.SequenceThreshold = 0.5
	}
	return c
}

// ClusterInfo summarises one object of a frame.
type ClusterInfo struct {
	// ID is the 1-based cluster identifier within its frame.
	ID int
	// Size is the number of bursts in the cluster.
	Size int
	// TotalDurationNS is the summed duration of the cluster's bursts.
	TotalDurationNS float64
	// Centroid is the cluster mean in the cross-series normalised space.
	Centroid []float64
	// RawCentroid is the cluster mean in raw metric units.
	RawCentroid []float64
	// Stacks counts the call-stack references of the cluster's bursts.
	Stacks map[trace.CallstackRef]int
}

// Frame is one image of the sequence: the clustered performance space of
// one experiment (or one time window of an experiment).
type Frame struct {
	// Index is the frame position in the sequence.
	Index int
	// Label names the experiment the frame renders.
	Label string
	// Ranks is the process count of the experiment (used by scale
	// normalisation).
	Ranks int
	// Trace holds the filtered bursts the frame was built from; element i
	// corresponds to Points[i], Norm[i] and Labels[i].
	Trace *trace.Trace
	// Points holds the raw metric coordinates of each burst.
	Points [][]float64
	// Norm holds the cross-series normalised coordinates (filled by
	// normalizeSeries; nil until then).
	Norm [][]float64
	// Labels assigns each burst its cluster (1-based; 0 is noise).
	Labels []int
	// NumClusters is the number of objects detected.
	NumClusters int
	// Clusters holds per-object summaries, indexed 1..NumClusters
	// (index 0 is nil).
	Clusters []*ClusterInfo
	// Quarantined is the number of bursts excluded from the frame because
	// their values were corrupt (non-finite counters, negative times, out
	// of range tasks); QuarantinedBy breaks them down by fault class.
	Quarantined   int
	QuarantinedBy map[string]int
	// Degraded marks a frame the pipeline could not render reliably:
	// empty after quarantine and filtering, all-noise, or collapsed to a
	// single cluster while the rest of the series resolves several. The
	// tracker bridges across degraded frames instead of aborting.
	Degraded bool
	// DegradedReason says why the frame was marked degraded.
	DegradedReason string
}

// Cluster returns the info of cluster id, or nil when out of range.
func (f *Frame) Cluster(id int) *ClusterInfo {
	if id <= 0 || id >= len(f.Clusters) {
		return nil
	}
	return f.Clusters[id]
}

// ClusteredDurationNS returns the summed duration of all clustered (non
// noise) bursts.
func (f *Frame) ClusteredDurationNS() float64 {
	var sum float64
	for _, ci := range f.Clusters[1:] {
		sum += ci.TotalDurationNS
	}
	return sum
}

// burstFault classifies a corrupt burst, returning "" for healthy ones.
// Corruption here means values no metric evaluation can make sense of:
// non-finite or negative counters, negative times, tasks outside the
// declared rank range, and dead counter reads (zero instructions or
// cycles — no real burst retires nothing).
func burstFault(b trace.Burst, ranks int) string {
	switch {
	case b.DurationNS < 0:
		return "negative-duration"
	case b.StartNS < 0:
		return "negative-start"
	case b.Task < 0:
		return "negative-task"
	case ranks > 0 && b.Task >= ranks:
		return "task-out-of-range"
	}
	for _, v := range b.Counters {
		if math.IsNaN(v) {
			return "nan-counter"
		}
		if math.IsInf(v, 0) {
			return "inf-counter"
		}
		if v < 0 {
			return "negative-counter"
		}
	}
	if b.Counters[metrics.CtrInstructions] == 0 || b.Counters[metrics.CtrCycles] == 0 {
		return "zero-counter"
	}
	return ""
}

// quarantineBursts splits corrupt bursts out of a trace. When the trace
// is clean it is returned as-is with a nil reason map, so the healthy
// path stays allocation-free.
func quarantineBursts(t *trace.Trace) (*trace.Trace, map[string]int) {
	var reasons map[string]int
	var out *trace.Trace
	for i, b := range t.Bursts {
		r := burstFault(b, t.Meta.Ranks)
		if r == "" {
			if out != nil {
				out.Bursts = append(out.Bursts, b)
			}
			continue
		}
		if out == nil {
			out = &trace.Trace{Meta: t.Meta}
			out.Bursts = append(out.Bursts, t.Bursts[:i]...)
			reasons = map[string]int{}
		}
		reasons[r]++
	}
	if out == nil {
		return t, nil
	}
	return out, reasons
}

// BuildFrames converts one trace per experiment into the frame sequence:
// it quarantines corrupt bursts, filters, evaluates the metric space,
// clusters every frame independently (the paper stresses this is "an
// independent, non supervised process" whose numbering differs frame to
// frame) and finally normalises scales across the series.
//
// Frames that come out unusable — no bursts after quarantine/filtering,
// no clusters, or a single-cluster collapse while the rest of the series
// resolves several objects — are marked Degraded rather than failing the
// build, so one bad experiment coarsens the study instead of killing it.
// Only a sequence in which every frame is degraded is an error.
func BuildFrames(traces []*trace.Trace, cfg Config) ([]*Frame, error) {
	return BuildFramesContext(context.Background(), traces, cfg)
}

// BuildFramesContext is BuildFrames with cancellation: the per-frame
// filtering, metric evaluation and clustering loops poll ctx, so a
// cancelled or timed-out caller stops the build mid-frame instead of
// paying for the whole sequence. The first error returned after a cancel
// is ctx.Err().
func BuildFramesContext(ctx context.Context, traces []*trace.Trace, cfg Config) ([]*Frame, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if len(traces) == 0 {
		return nil, fmt.Errorf("core: no traces to build frames from")
	}
	// Thread cancellation into the clustering inner loops. The config is
	// a per-call copy, so mutating it here leaks nowhere.
	if ctx.Done() != nil {
		cfg.Cluster.Interrupt = func() error { return ctx.Err() }
	}
	// Frames are independent until the cross-series normalisation, so
	// they are clustered concurrently on the bounded worker pool: wide
	// studies (hundreds of time windows) would otherwise run every
	// frame's clustering at once and thrash both scheduler and caches.
	// Results are deterministic: each frame's outcome depends only on its
	// own trace.
	frames := make([]*Frame, len(traces))
	errs := make([]error, len(traces))
	poolErr := runBounded(len(traces), func(i int) {
		if err := ctx.Err(); err != nil {
			errs[i] = err
			return
		}
		f, err := buildFrame(ctx, i, traces[i], cfg)
		if err != nil {
			errs[i] = fmt.Errorf("core: frame %d (%s): %w", i, traces[i].Meta.Label, err)
			return
		}
		frames[i] = f
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if poolErr != nil {
		return nil, poolErr
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	markCollapsed(frames)
	if err := allDegraded(frames); err != nil {
		return nil, err
	}
	normalizeSeries(frames, cfg.Metrics)
	for _, f := range frames {
		f.fillClusterInfo(cfg)
	}
	return frames, nil
}

// markCollapsed flags single-cluster frames as degraded when the rest of
// the series resolves clearly more structure: the frame carries no
// trackable relations of its own, and bridging the neighbours preserves
// more information than forcing everything through one merged object.
// When the whole series is low-resolution (max < 3 clusters) nothing is
// marked — that is the study's genuine structure, not a collapse.
func markCollapsed(frames []*Frame) {
	maxC := 0
	for _, f := range frames {
		if f.NumClusters > maxC {
			maxC = f.NumClusters
		}
	}
	if maxC < 3 {
		return
	}
	for _, f := range frames {
		if !f.Degraded && f.NumClusters == 1 {
			f.Degraded = true
			f.DegradedReason = "clustering collapsed to a single object"
		}
	}
}

// allDegraded returns an error when no frame in the sequence is usable.
func allDegraded(frames []*Frame) error {
	for _, f := range frames {
		if !f.Degraded {
			return nil
		}
	}
	return fmt.Errorf("core: all %d frames are degraded (frame 0: %s)",
		len(frames), frames[0].DegradedReason)
}

func buildFrame(ctx context.Context, index int, t *trace.Trace, cfg Config) (*Frame, error) {
	ft, quarantined := quarantineBursts(t)
	qcount := 0
	for _, n := range quarantined {
		qcount += n
	}
	if cfg.MinBurstDurationNS > 0 {
		ft = ft.FilterMinDuration(cfg.MinBurstDurationNS)
	}
	if cfg.TopDurationFrac > 0 && cfg.TopDurationFrac < 1 {
		ft = ft.FilterTopDuration(cfg.TopDurationFrac)
	}
	f := &Frame{
		Index:         index,
		Label:         t.Meta.Label,
		Ranks:         t.Meta.Ranks,
		Trace:         ft,
		Quarantined:   qcount,
		QuarantinedBy: quarantined,
	}
	if len(ft.Bursts) == 0 {
		f.Degraded = true
		f.DegradedReason = "no bursts after quarantine and filtering"
		return f, nil
	}
	// One flat allocation backs all burst coordinates; Points rows are
	// full-capacity views into it, so the public [][]float64 shape
	// survives while the data stays contiguous for the clustering pass.
	nb := len(ft.Bursts)
	dims := len(cfg.Metrics)
	flat := make([]float64, nb*dims)
	coords := make([]float64, nb*dims)
	points := make([][]float64, nb)
	weights := make([]float64, nb)
	for i, b := range ft.Bursts {
		if i%8192 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		row := flat[i*dims : (i+1)*dims : (i+1)*dims]
		points[i] = metrics.SpaceInto(row, cfg.Metrics, b.Sample())
		transformSpaceInto(coords[i*dims:(i+1)*dims], cfg.Metrics, row, 1)
		weights[i] = float64(b.DurationNS)
	}
	res, err := cluster.RunFlat(coords, dims, weights, cfg.Cluster)
	if err != nil {
		return nil, err
	}
	f.Points = points
	f.Labels = res.Labels
	f.NumClusters = res.NumClusters
	if res.NumClusters == 0 {
		f.Degraded = true
		f.DegradedReason = "clustering found no objects"
	}
	return f, nil
}

// transformSpace maps raw metric values into the space distances are
// measured in: LogScale metrics (instructions, misses) are log10
// transformed because they span orders of magnitude across experiments,
// and rank-scaling metrics are multiplied by ranks first.
func transformSpace(ms []metrics.Metric, p []float64, ranks float64) []float64 {
	return transformSpaceInto(make([]float64, len(p)), ms, p, ranks)
}

// transformSpaceInto is transformSpace writing into q (len(q) == len(p)),
// for callers that lay whole frames out in one flat allocation.
func transformSpaceInto(q []float64, ms []metrics.Metric, p []float64, ranks float64) []float64 {
	if ranks <= 0 {
		ranks = 1
	}
	for d, v := range p {
		if ms[d].ScalesWithRanks {
			v *= ranks
		}
		if ms[d].LogScale {
			if v < 1e-12 {
				v = 1e-12
			}
			v = math.Log10(v)
		}
		q[d] = v
	}
	return q
}

// normalizeSeries implements the paper's scale transformation (Section 2):
// "metrics that are correlated with the number of processes (e.g.
// Instructions) are weighted by the number of cores, while the scale for
// the rest (e.g. IPC) is adjusted to the minimum and maximum values seen
// along all experiments". The result lives in Frame.Norm, each dimension
// in [0,1] across the whole sequence.
func normalizeSeries(frames []*Frame, ms []metrics.Metric) {
	dims := len(ms)
	ranges := make([]metrics.Range, dims)
	for d := range ranges {
		ranges[d] = metrics.EmptyRange()
	}
	// First pass: rank-weighted, log-transformed values + global ranges.
	// Each frame's normalised coordinates share one flat backing array.
	for _, f := range frames {
		flat := make([]float64, len(f.Points)*dims)
		f.Norm = make([][]float64, len(f.Points))
		for i, p := range f.Points {
			q := transformSpaceInto(flat[i*dims:(i+1)*dims:(i+1)*dims], ms, p, float64(f.Ranks))
			for d, v := range q {
				ranges[d].Extend(v)
			}
			f.Norm[i] = q
		}
	}
	// Second pass: min-max over the series.
	for _, f := range frames {
		for _, q := range f.Norm {
			for d := range q {
				q[d] = ranges[d].Normalize(q[d])
			}
		}
	}
}

// fillClusterInfo computes per-cluster summaries after normalisation.
func (f *Frame) fillClusterInfo(cfg Config) {
	dims := len(cfg.Metrics)
	f.Clusters = make([]*ClusterInfo, f.NumClusters+1)
	for c := 1; c <= f.NumClusters; c++ {
		f.Clusters[c] = &ClusterInfo{
			ID:          c,
			Centroid:    make([]float64, dims),
			RawCentroid: make([]float64, dims),
			Stacks:      map[trace.CallstackRef]int{},
		}
	}
	for i, l := range f.Labels {
		if l <= 0 || l > f.NumClusters {
			continue
		}
		ci := f.Clusters[l]
		ci.Size++
		ci.TotalDurationNS += float64(f.Trace.Bursts[i].DurationNS)
		for d := 0; d < dims; d++ {
			ci.Centroid[d] += f.Norm[i][d]
			ci.RawCentroid[d] += f.Points[i][d]
		}
		if st := f.Trace.Bursts[i].Stack; !st.IsZero() {
			ci.Stacks[st]++
		}
	}
	for c := 1; c <= f.NumClusters; c++ {
		ci := f.Clusters[c]
		if ci.Size == 0 {
			continue
		}
		for d := 0; d < dims; d++ {
			ci.Centroid[d] /= float64(ci.Size)
			ci.RawCentroid[d] /= float64(ci.Size)
		}
	}
}

// MetricOver computes an aggregate of metric m over the bursts of cluster
// id: the duration-weighted mean and the plain total. Aggregating every
// individual instance (rather than trusting static profiles) is the point
// the paper makes about multi-modal variability.
func (f *Frame) MetricOver(id int, m metrics.Metric) (weightedMean, total float64) {
	var sw, swx float64
	for i, l := range f.Labels {
		if l != id {
			continue
		}
		b := f.Trace.Bursts[i]
		v := m.Eval(b.Sample())
		w := float64(b.DurationNS)
		if w <= 0 {
			w = 1
		}
		sw += w
		swx += v * w
		total += v
	}
	if sw == 0 {
		return math.NaN(), total
	}
	return swx / sw, total
}
