package core

import (
	"context"
	"fmt"

	"perftrack/internal/align"
	"perftrack/internal/metrics"
)

// This file is the evaluate half of the streaming split. A SeqTracker
// holds a growing frame sequence and re-evaluates it after every
// appended window, producing a Result bit-exact with running
// BuildFrames + Track over the whole sequence — while only paying for
// what actually changed:
//
//   - cross-series normalisation ranges are maintained incrementally
//     (Range.Extend is a commutative min/max, so the running ranges
//     equal the batch ranges exactly); frames are renormalised only
//     when a new window actually widens a range ("epoch" bump);
//   - per-frame machinery (star alignment, consensus, SPMD matrices)
//     depends only on labels/trace, which are immutable after sealing,
//     so it is computed once per frame, ever;
//   - pair correlations depend on normalised coordinates, so they are
//     cached per (from,to) pair and invalidated on epoch bumps;
//   - the degraded-collapse rule (markCollapsed) is monotone as windows
//     append — maxClusters only grows — so recomputing it from scratch
//     each close matches the batch marking.
//
// Only the relation chaining and diagnostics are rebuilt every close;
// both are cheap relative to one window's clustering.
type SeqTracker struct {
	cfg Config
	tk  *Tracker

	frames []*Frame
	// tcoords holds each frame's rank-scaled, log-transformed metric
	// coordinates (normalizeSeries pass 1), flat-strided, immutable.
	tcoords [][]float64
	// intrinsic degraded state as sealed, before the collapse rule.
	intrinsicDegraded []bool
	intrinsicReason   []string

	ranges []metrics.Range
	// epoch counts range widenings; normEpoch[i] is the epoch frame i's
	// Norm and Clusters were last filled at.
	epoch     int
	normEpoch []int

	haveEval  []bool
	aligns    []*align.Alignment
	consensus [][]int
	spmdM     []*Matrix
	spmdPairs [][][2]int

	pairCache map[[2]int]*PairResult
}

// NewSeqTracker prepares an incremental tracker for a stream session.
func NewSeqTracker(cfg Config) (*SeqTracker, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	s := &SeqTracker{
		cfg:       cfg,
		tk:        NewTracker(cfg),
		ranges:    make([]metrics.Range, len(cfg.Metrics)),
		epoch:     1,
		pairCache: map[[2]int]*PairResult{},
	}
	for d := range s.ranges {
		s.ranges[d] = metrics.EmptyRange()
	}
	return s, nil
}

// Len returns the number of appended frames.
func (s *SeqTracker) Len() int { return len(s.frames) }

// Frames exposes the appended sequence (shared, do not mutate).
func (s *SeqTracker) Frames() []*Frame { return s.frames }

// Epoch returns the current normalisation epoch; it advances only when
// a window widened a metric range (forcing a series renormalisation).
func (s *SeqTracker) Epoch() int { return s.epoch }

// Append files one sealed frame into the sequence. The frame's index
// must equal Len() — windows arrive in order.
func (s *SeqTracker) Append(f *Frame) error {
	if f.Index != len(s.frames) {
		return fmt.Errorf("core: appended frame index %d, want %d", f.Index, len(s.frames))
	}
	dims := len(s.cfg.Metrics)
	flat := make([]float64, len(f.Points)*dims)
	grown := false
	for i, p := range f.Points {
		q := transformSpaceInto(flat[i*dims:(i+1)*dims:(i+1)*dims], s.cfg.Metrics, p, float64(f.Ranks))
		for d, v := range q {
			before := s.ranges[d]
			s.ranges[d].Extend(v)
			if s.ranges[d] != before {
				grown = true
			}
		}
	}
	if grown {
		s.epoch++
		// Displacement/sequence evidence reads normalised coordinates;
		// every cached pair is stale once the ranges move.
		clear(s.pairCache)
	}
	s.frames = append(s.frames, f)
	s.tcoords = append(s.tcoords, flat)
	s.intrinsicDegraded = append(s.intrinsicDegraded, f.Degraded)
	s.intrinsicReason = append(s.intrinsicReason, f.DegradedReason)
	s.normEpoch = append(s.normEpoch, 0)
	s.haveEval = append(s.haveEval, false)
	s.aligns = append(s.aligns, nil)
	s.consensus = append(s.consensus, nil)
	s.spmdM = append(s.spmdM, nil)
	s.spmdPairs = append(s.spmdPairs, nil)
	return nil
}

// Evaluate re-runs the tracking pipeline over the appended sequence.
// The Result is bit-exact with BuildFrames+Track over the same sealed
// window traces. It remains valid until the next Append (a later
// renormalisation rewrites Frame.Norm and Clusters in place).
func (s *SeqTracker) Evaluate(ctx context.Context) (*Result, error) {
	if len(s.frames) == 0 {
		return nil, fmt.Errorf("core: no frames to track")
	}
	cfg := s.tk.cfg

	// Effective degraded flags: intrinsic reasons are sticky, the
	// collapse rule is re-derived from the running max (monotone, so
	// marks only ever appear — exactly like batch markCollapsed).
	maxC := 0
	for _, f := range s.frames {
		if f.NumClusters > maxC {
			maxC = f.NumClusters
		}
	}
	for i, f := range s.frames {
		switch {
		case s.intrinsicDegraded[i]:
			f.Degraded, f.DegradedReason = true, s.intrinsicReason[i]
		case maxC >= 3 && f.NumClusters == 1:
			f.Degraded, f.DegradedReason = true, "clustering collapsed to a single object"
		default:
			f.Degraded, f.DegradedReason = false, ""
		}
	}
	if err := allDegraded(s.frames); err != nil {
		return nil, err
	}

	// Renormalise frames whose Norm predates the current ranges, and
	// refill their cluster summaries (centroids live in Norm space).
	dims := len(cfg.Metrics)
	for i, f := range s.frames {
		if s.normEpoch[i] == s.epoch {
			continue
		}
		flat := make([]float64, len(f.Points)*dims)
		f.Norm = make([][]float64, len(f.Points))
		tc := s.tcoords[i]
		for p := range f.Points {
			q := flat[p*dims : (p+1)*dims : (p+1)*dims]
			for d := 0; d < dims; d++ {
				q[d] = s.ranges[d].Normalize(tc[p*dims+d])
			}
			f.Norm[p] = q
		}
		f.fillClusterInfo(cfg)
		s.normEpoch[i] = s.epoch
	}

	// Per-frame machinery for newly-active frames; labels and traces are
	// immutable after sealing, so each frame is computed at most once.
	needAlign := !cfg.DisableSPMD || !cfg.DisableSequence
	var active, todo []int
	for i, f := range s.frames {
		if f.Degraded {
			continue
		}
		active = append(active, i)
		if !s.haveEval[i] {
			todo = append(todo, i)
		}
	}
	if len(active) == 0 {
		return nil, fmt.Errorf("core: every frame is degraded")
	}
	if err := runBounded(len(todo), func(k int) {
		i := todo[k]
		f := s.frames[i]
		if ctx.Err() != nil {
			return
		}
		if needAlign {
			s.aligns[i] = frameAlignment(f, cfg)
			s.consensus[i] = consensusOf(s.aligns[i])
		}
		if !cfg.DisableSPMD && ctx.Err() == nil {
			s.spmdM[i] = SPMDSimultaneity(f, s.aligns[i], cfg)
			s.spmdPairs[i] = SPMDPairs(s.spmdM[i], cfg)
		} else {
			s.spmdM[i] = NewMatrix("spmd", i, i, f.NumClusters, f.NumClusters)
		}
	}); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, i := range todo {
		s.haveEval[i] = true
	}

	// Consecutive-active pairs: steady state computes exactly one new
	// pair (previous frame -> new frame); epoch bumps recompute all.
	res := &Result{Frames: s.frames, Pairs: make([]*PairResult, max(0, len(active)-1))}
	res.Diagnostics = gatherFrameDiagnostics(s.frames)
	type pairKey struct{ k, i, j int }
	var missing []pairKey
	for k := 0; k+1 < len(active); k++ {
		i, j := active[k], active[k+1]
		if pr, ok := s.pairCache[[2]int{i, j}]; ok {
			res.Pairs[k] = pr
		} else {
			missing = append(missing, pairKey{k, i, j})
		}
	}
	if err := runBounded(len(missing), func(m int) {
		p := missing[m]
		res.Pairs[p.k] = s.tk.trackPair(ctx, s.frames[p.i], s.frames[p.j],
			s.spmdM[p.i], s.spmdM[p.j], s.spmdPairs[p.i], s.spmdPairs[p.j],
			s.consensus[p.i], s.consensus[p.j])
	}); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, p := range missing {
		s.pairCache[[2]int{p.i, p.j}] = res.Pairs[p.k]
	}
	for _, pr := range res.Pairs {
		if pr.To-pr.From > 1 {
			res.Diagnostics.FramesBridged += pr.To - pr.From - 1
			res.Diagnostics.Bridges = append(res.Diagnostics.Bridges, [2]int{pr.From, pr.To})
		}
	}
	s.tk.chain(res)
	return res, nil
}
