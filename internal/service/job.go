package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"time"

	"perftrack/internal/apps"
	"perftrack/internal/cluster"
	"perftrack/internal/core"
	"perftrack/internal/metrics"
	"perftrack/internal/store"
	"perftrack/internal/trace"
)

// JobState is the lifecycle of a submitted analysis.
type JobState string

const (
	// StateQueued means the job is waiting for a worker.
	StateQueued JobState = "queued"
	// StateRunning means a worker is executing the pipeline.
	StateRunning JobState = "running"
	// StateDone means the result is available.
	StateDone JobState = "done"
	// StateFailed means the pipeline returned an error (including
	// per-job timeouts).
	StateFailed JobState = "failed"
	// StateCanceled means the daemon shut down before the job finished.
	StateCanceled JobState = "canceled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// JobRequest is the POST /v1/jobs body: either a catalog study by name or
// an uploaded trace sequence (text or binary columnar), plus optional
// pipeline configuration. Exactly one of Study, Traces and TracesBin
// must be set.
type JobRequest struct {
	// Study names a catalog study ("WRF", "Synthetic", ...).
	Study string `json:"study,omitempty"`
	// Traces holds one perftrack-text-format trace per experiment.
	Traces []string `json:"traces,omitempty"`
	// TracesBin holds one binary columnar (colbin) trace per experiment.
	// JSON marshals each as base64, which is what lets a binary
	// submission survive the journal intent and mesh forwarding paths
	// unchanged. Raw colbin POST bodies are unpacked into this field at
	// the HTTP boundary.
	TracesBin [][]byte `json:"tracesBin,omitempty"`
	// Windows > 1 splits a single trace (or single-run study) into time
	// windows, the paper's evolution mode.
	Windows int `json:"windows,omitempty"`
	// Metrics names the axes of the performance space (default: the
	// study's own, or IPC × Instructions for uploads).
	Metrics []string `json:"metrics,omitempty"`
	// Config overrides individual pipeline knobs.
	Config *ConfigSpec `json:"config,omitempty"`
	// Lenient decodes uploaded traces tolerating malformed lines.
	Lenient bool `json:"lenient,omitempty"`
	// Series, when set, files the stored result under a named run
	// series in the persistent store — the history the trajectory and
	// regression endpoints mine. RunLabel names this run inside the
	// series (defaults to the input description). Neither influences
	// the cache key: the result bytes are a pure function of the
	// inputs; the series only says where they are filed.
	Series   string `json:"series,omitempty"`
	RunLabel string `json:"runLabel,omitempty"`
}

// ConfigSpec is the JSON-friendly subset of core.Config a client may
// override. Zero-valued fields inherit the base configuration.
type ConfigSpec struct {
	Eps                float64 `json:"eps,omitempty"`
	MinPts             int     `json:"minPts,omitempty"`
	MinClusterWeight   float64 `json:"minClusterWeight,omitempty"`
	MaxClusters        int     `json:"maxClusters,omitempty"`
	MinBurstDurationNS int64   `json:"minBurstDurationNs,omitempty"`
	TopDurationFrac    float64 `json:"topDurationFrac,omitempty"`
	MinCorrelation     float64 `json:"minCorrelation,omitempty"`
	SPMDThreshold      float64 `json:"spmdThreshold,omitempty"`
	SequenceThreshold  float64 `json:"sequenceThreshold,omitempty"`
	DisableSPMD        bool    `json:"disableSpmd,omitempty"`
	DisableCallstack   bool    `json:"disableCallstack,omitempty"`
	DisableSequence    bool    `json:"disableSequence,omitempty"`
}

// overlay applies the non-zero fields onto base.
func (cs *ConfigSpec) overlay(base core.Config) core.Config {
	if cs == nil {
		return base
	}
	if cs.Eps != 0 {
		base.Cluster.Eps = cs.Eps
	}
	if cs.MinPts != 0 {
		base.Cluster.MinPts = cs.MinPts
	}
	if cs.MinClusterWeight != 0 {
		base.Cluster.MinClusterWeight = cs.MinClusterWeight
	}
	if cs.MaxClusters != 0 {
		base.Cluster.MaxClusters = cs.MaxClusters
	}
	if cs.MinBurstDurationNS != 0 {
		base.MinBurstDurationNS = cs.MinBurstDurationNS
	}
	if cs.TopDurationFrac != 0 {
		base.TopDurationFrac = cs.TopDurationFrac
	}
	if cs.MinCorrelation != 0 {
		base.MinCorrelation = cs.MinCorrelation
	}
	if cs.SPMDThreshold != 0 {
		base.SPMDThreshold = cs.SPMDThreshold
	}
	if cs.SequenceThreshold != 0 {
		base.SequenceThreshold = cs.SequenceThreshold
	}
	if cs.DisableSPMD {
		base.DisableSPMD = true
	}
	if cs.DisableCallstack {
		base.DisableCallstack = true
	}
	if cs.DisableSequence {
		base.DisableSequence = true
	}
	return base
}

// jobSpec is a validated, runnable request: the resolved configuration,
// metric space and input (study or pre-parsed traces), plus the
// content-addressed cache key.
type jobSpec struct {
	study        *apps.Study
	traces       []*trace.Trace
	windows      int
	cfg          core.Config
	ms           []metrics.Metric
	linesSkipped int
	key          string
	label        string // human-readable input description
	series       string // perfdb series name ("" = unfiled)
	runLabel     string // this run's name inside the series
}

// uploadBase is the pipeline configuration uploaded traces and live
// streams start from (catalog studies carry their own tuning).
var uploadBase = core.Config{
	Cluster: cluster.Config{Eps: 0.07, MinPts: 5, MinClusterWeight: 0.002},
}

// pipelineConfig overlays a request's knob overrides onto base,
// validates the result, and sets the named metric axes (none keeps
// base's). Jobs and streams both resolve their configuration here.
func pipelineConfig(base core.Config, cs *ConfigSpec, metricNames []string) (core.Config, error) {
	cfg := cs.overlay(base)
	if err := cfg.Validate(); err != nil {
		return cfg, err
	}
	if len(metricNames) > 0 {
		ms := make([]metrics.Metric, 0, len(metricNames))
		for _, name := range metricNames {
			m, ok := metrics.ByName(name)
			if !ok {
				return cfg, fmt.Errorf("unknown metric %q", name)
			}
			ms = append(ms, m)
		}
		cfg.Metrics = ms
	}
	return cfg, nil
}

// resolveThrough validates the request and computes its cache key. A
// non-nil tc is the convert-on-first-read trace cache: each uploaded text
// trace is keyed by the SHA-256 of its raw bytes (plus decode mode) and
// parsed from its cached binary columnar conversion when one exists, so
// the text parse is paid exactly once per distinct upload.
func resolveThrough(req JobRequest, tc *store.TraceCache) (*jobSpec, error) {
	sources := 0
	if req.Study != "" {
		sources++
	}
	if len(req.Traces) > 0 {
		sources++
	}
	if len(req.TracesBin) > 0 {
		sources++
	}
	if sources != 1 {
		return nil, fmt.Errorf("exactly one of \"study\" and \"traces\" (or \"tracesBin\") must be set")
	}
	if req.Windows < 0 || req.Windows > 1024 {
		return nil, fmt.Errorf("windows %d outside [0, 1024]", req.Windows)
	}
	spec := &jobSpec{windows: req.Windows}

	if req.Study != "" {
		st, err := apps.ByName(req.Study)
		if err != nil {
			return nil, err
		}
		if req.Windows > 1 {
			st.Windows = req.Windows
		}
		spec.study = &st
		spec.cfg = st.Track
		spec.label = "study:" + st.Name
	} else {
		spec.cfg = uploadBase
		opts := trace.DecodeOptions{Strict: !req.Lenient}
		for i, text := range req.Traces {
			t, diag, err := parseTextCached([]byte(text), opts, tc)
			if err != nil {
				return nil, fmt.Errorf("trace %d: %w", i, err)
			}
			spec.linesSkipped += diag.Skipped()
			spec.traces = append(spec.traces, t)
		}
		for i, raw := range req.TracesBin {
			// tracesBin carries colbin only: text belongs in traces.
			if !trace.IsColbin(raw) {
				return nil, fmt.Errorf("trace %d: tracesBin entry is not colbin (missing %q magic)", i, trace.ColbinMagic)
			}
			t, diag, err := trace.DecodeAny(raw, opts)
			if err != nil {
				return nil, fmt.Errorf("trace %d: %w", i, err)
			}
			spec.linesSkipped += diag.Skipped()
			spec.traces = append(spec.traces, t)
		}
		if req.Windows > 1 && len(spec.traces) != 1 {
			return nil, fmt.Errorf("windows needs exactly one trace, got %d", len(spec.traces))
		}
		if req.Windows <= 1 && len(spec.traces) < 2 {
			return nil, fmt.Errorf("tracking needs at least two traces (or one trace with windows), got %d", len(spec.traces))
		}
		spec.label = fmt.Sprintf("upload:%d traces", len(spec.traces))
	}

	cfg, err := pipelineConfig(spec.cfg, req.Config, req.Metrics)
	if err != nil {
		return nil, err
	}
	spec.cfg = cfg
	spec.ms = cfg.Metrics
	if len(spec.ms) == 0 {
		spec.ms = metrics.DefaultSpace()
	}

	if err := validSeries(req.Series); err != nil {
		return nil, err
	}
	spec.series = req.Series
	spec.runLabel = req.RunLabel
	if spec.runLabel == "" {
		spec.runLabel = spec.label
	}

	spec.key = spec.fingerprint()
	return spec, nil
}

// parseTextCached parses one uploaded text trace, going through the
// binary conversion cache when one is available. Only clean parses are
// cached (a quarantining parse has diagnostics the binary form does not
// carry), and a cached entry that fails its CRC-checked binary decode is
// deleted and re-derived from the text — the cache can accelerate but
// never change an answer.
func parseTextCached(raw []byte, opts trace.DecodeOptions, tc *store.TraceCache) (*trace.Trace, trace.DecodeDiagnostics, error) {
	if tc == nil {
		return trace.ReadWith(bytes.NewReader(raw), opts)
	}
	key := store.TraceKey(raw, !opts.Strict)
	if bin, ok := tc.Get(key); ok {
		if t, err := trace.DecodeColbin(bin); err == nil {
			return t, trace.DecodeDiagnostics{}, nil
		}
		tc.Delete(key) // poisoned entry: rebuild from text below
	}
	t, diag, err := trace.ReadWith(bytes.NewReader(raw), opts)
	if err != nil {
		return nil, diag, err
	}
	if diag.Summary() == "" {
		tc.Put(key, trace.EncodeColbin(t)) // best-effort: a failed Put just re-parses next time
	}
	return t, diag, nil
}

// validSeries keeps series names short and URL-path-safe, since they
// appear as a path segment in /v1/series/{name}/....
func validSeries(name string) error {
	if len(name) > 128 {
		return fmt.Errorf("series name longer than 128 bytes")
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
		default:
			return fmt.Errorf("series name %q: only [A-Za-z0-9._-] allowed", name)
		}
	}
	return nil
}

// fingerprint derives the content-addressed cache key: SHA-256 over the
// canonicalized inputs (study name, or the canonical hashes of the
// uploaded traces) and every pipeline knob that can influence the output
// bytes. Catalog studies are deterministic by construction (seeded
// simulation), so the name plus configuration addresses their result.
func (s *jobSpec) fingerprint() string {
	h := sha256.New()
	fmt.Fprintf(h, "perftrack-job-v1\n")
	if s.study != nil {
		fmt.Fprintf(h, "study=%s\n", s.study.Name)
	} else {
		seq := trace.HashSequence(s.traces)
		fmt.Fprintf(h, "traces=%s\n", hex.EncodeToString(seq[:]))
	}
	fmt.Fprintf(h, "windows=%d\n", s.windows)
	names := make([]string, len(s.ms))
	for i, m := range s.ms {
		names[i] = m.Name
	}
	fmt.Fprintf(h, "metrics=%s\n", strings.Join(names, ","))
	c := s.cfg
	fmt.Fprintf(h, "cluster=%s,%g,%d,%g,%d\n",
		c.Cluster.Algorithm, c.Cluster.Eps, c.Cluster.MinPts,
		c.Cluster.MinClusterWeight, c.Cluster.MaxClusters)
	fmt.Fprintf(h, "filter=%d,%g\n", c.MinBurstDurationNS, c.TopDurationFrac)
	fmt.Fprintf(h, "thresholds=%g,%g,%d,%g\n",
		c.MinCorrelation, c.SPMDThreshold, c.SPMDTaskSample, c.SequenceThreshold)
	fmt.Fprintf(h, "disable=%t,%t,%t\n", c.DisableSPMD, c.DisableCallstack, c.DisableSequence)
	return hex.EncodeToString(h.Sum(nil))
}

// Job is one tracked analysis. Mutable fields are guarded by the server
// mutex; done is closed exactly once when the job reaches a terminal
// state, which is what waiters select on.
type Job struct {
	ID   string
	Key  string
	spec *jobSpec

	state    JobState
	cacheHit bool
	// journaled marks that an intent entry gates this job's resolution.
	// It is set only before the job is published to the queue and the
	// inflight table and never written afterwards, so workers may read
	// it without the server mutex.
	journaled bool
	// owner names the node a forwarded job was sent to ("" for a local
	// job). Like journaled, it is set before the job is published and
	// immutable afterwards.
	owner       string
	errMsg      string
	result      []byte
	diagnostics *core.Diagnostics

	submitted time.Time
	started   time.Time
	finished  time.Time

	done chan struct{}
}

// JobView is the JSON representation of a job's state.
type JobView struct {
	ID          string   `json:"id"`
	State       JobState `json:"state"`
	Input       string   `json:"input"`
	Key         string   `json:"key"`
	CacheHit    bool     `json:"cacheHit"`
	Error       string   `json:"error,omitempty"`
	Owner       string   `json:"owner,omitempty"`
	SubmittedAt string   `json:"submittedAt"`
	StartedAt   string   `json:"startedAt,omitempty"`
	FinishedAt  string   `json:"finishedAt,omitempty"`
	DurationMS  float64  `json:"durationMs,omitempty"`
	Diagnostics string   `json:"diagnostics,omitempty"`
	ResultURL   string   `json:"resultUrl,omitempty"`
}

// view snapshots the job under the server mutex.
func (j *Job) view() JobView {
	v := JobView{
		ID:          j.ID,
		State:       j.state,
		Input:       j.spec.label,
		Key:         j.Key,
		CacheHit:    j.cacheHit,
		Error:       j.errMsg,
		Owner:       j.owner,
		SubmittedAt: j.submitted.UTC().Format(time.RFC3339Nano),
	}
	if !j.started.IsZero() {
		v.StartedAt = j.started.UTC().Format(time.RFC3339Nano)
	}
	if !j.finished.IsZero() {
		v.FinishedAt = j.finished.UTC().Format(time.RFC3339Nano)
		ref := j.started
		if ref.IsZero() {
			ref = j.submitted
		}
		v.DurationMS = float64(j.finished.Sub(ref)) / float64(time.Millisecond)
	}
	if j.diagnostics != nil {
		v.Diagnostics = j.diagnostics.Summary()
	}
	if j.state == StateDone {
		v.ResultURL = "/v1/jobs/" + j.ID + "/result"
	}
	return v
}

// sortViews orders job views newest-first for listings.
func sortViews(vs []JobView) {
	sort.Slice(vs, func(i, j int) bool { return vs[i].SubmittedAt > vs[j].SubmittedAt })
}
