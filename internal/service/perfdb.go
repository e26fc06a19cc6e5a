package service

// perfdb wiring: the durable result store behind the LRU cache, and the
// trajectory/regression HTTP surface built on top of it.
//
// The cache stays the hot path; perfdb is the layer under it. Every
// completed analysis is appended to the store, and a cache miss consults
// the store before scheduling a pipeline execution, so a daemon restart
// loses no results. Results submitted with a series name accumulate into
// named run histories that /v1/series/{name}/trajectories chains into
// cross-run trajectories and /v1/series/{name}/regressions judges with
// the changepoint detector.

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"perftrack/internal/store"
	"perftrack/internal/trajectory"
)

type storeMetrics struct {
	hits               *Counter
	appendErrors       *Counter
	fsync              *Histogram
	trajectoryRequests *Counter
	regressionChecks   *Counter
	regressionsFlagged *Counter
}

// openStore opens the perfdb directory and registers its metrics. Called
// from New when Config.StoreDir is set.
func (s *Server) openStore() error {
	r := s.reg
	s.sm = storeMetrics{
		hits:               r.NewCounter("trackd_store_hits_total", "Cache misses served from the persistent result store."),
		appendErrors:       r.NewCounter("trackd_store_append_errors_total", "Failed appends to the persistent result store."),
		fsync:              r.NewHistogram("trackd_store_fsync_seconds", "Latency of store fsync batches.", nil),
		trajectoryRequests: r.NewCounter("trackd_trajectory_requests_total", "Series trajectory chainings served."),
		regressionChecks:   r.NewCounter("trackd_regression_checks_total", "Series regression detections served."),
		regressionsFlagged: r.NewCounter("trackd_regressions_flagged_total", "Notable verdicts (regressed/improved/vanished/new) across all regression checks."),
	}
	st, err := store.Open(s.cfg.StoreDir, store.Options{
		MaxSegmentBytes: s.cfg.StoreMaxSegmentBytes,
		SyncEvery:       s.cfg.StoreSyncEvery,
		OnFsync:         func(d time.Duration) { s.sm.fsync.Observe(d.Seconds()) },
		FS:              s.cfg.StoreFS,
	})
	if err != nil {
		return err
	}
	s.store = st
	r.NewGaugeFunc("trackd_store_records", "Live records in the persistent store.", func() int64 { return int64(st.Stats().Records) })
	r.NewGaugeFunc("trackd_store_segments", "Segment files in the persistent store.", func() int64 { return int64(st.Stats().Segments) })
	r.NewGaugeFunc("trackd_store_bytes", "On-disk bytes of the persistent store.", func() int64 { return st.Stats().Bytes })
	r.NewGaugeFunc("trackd_store_superseded", "Records superseded by a newer append to the same key; their bytes stay on disk.", func() int64 { return int64(st.Stats().Superseded) })
	r.NewGaugeFunc("trackd_store_appends", "Cumulative appends since open.", func() int64 { return int64(st.Stats().Appends) })
	r.NewGaugeFunc("trackd_store_fsyncs", "Cumulative fsyncs since open.", func() int64 { return int64(st.Stats().Fsyncs) })
	return nil
}

// Store exposes the persistent store (nil when disabled).
func (s *Server) Store() *store.Store { return s.store }

// appendLocked files one result in the store; callers hold s.mu. Append
// failures are counted, not fatal: the result is still served from memory.
func (s *Server) appendLocked(spec *jobSpec, payload []byte) {
	err := s.store.Append(store.Record{
		Key:      spec.key,
		Series:   spec.series,
		Label:    spec.runLabel,
		UnixNano: time.Now().UnixNano(),
		Payload:  payload,
	})
	if err != nil {
		s.sm.appendErrors.Inc()
	}
}

// storeGetLocked consults perfdb on a cache miss; callers hold s.mu. A
// hit repopulates the cache (read-through).
func (s *Server) storeGetLocked(spec *jobSpec) ([]byte, bool) {
	if s.store == nil {
		return nil, false
	}
	payload, ok, err := s.store.Get(spec.key)
	if err != nil || !ok {
		return nil, false
	}
	s.sm.hits.Inc()
	s.cache.Put(spec.key, payload)
	s.refileLocked(spec, payload)
	return payload, true
}

// stored reports whether perfdb holds a result for key.
func (s *Server) stored(key string) bool {
	if s.store == nil {
		return false
	}
	_, ok := s.store.GetMeta(key)
	return ok
}

// refileLocked records series membership for an already-stored result:
// resubmitting a known input under a (different) series name must still
// land it in that series' history. Callers hold s.mu.
func (s *Server) refileLocked(spec *jobSpec, payload []byte) {
	if s.store == nil || spec.series == "" {
		return
	}
	if m, ok := s.store.GetMeta(spec.key); ok && m.Series == spec.series && m.Label == spec.runLabel {
		return
	}
	s.appendLocked(spec, payload)
}

// ---- HTTP layer ----

func (s *Server) requireStore(w http.ResponseWriter) bool {
	if s.store == nil {
		writeError(w, http.StatusServiceUnavailable, "persistent store not enabled (start trackd with -store)")
		return false
	}
	return true
}

func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	if !s.requireStore(w) {
		return
	}
	series := r.URL.Query().Get("series")
	metas := s.store.List()
	if series != "" {
		metas = s.store.Series(series)
	}
	if s.mesh != nil && !viaMesh(r) {
		// Cluster-wide listing: any node answers for the whole corpus.
		s.mm.scatters.Inc()
		var remote []store.Meta
		s.scatterMetas(r.Context(), series, func(_ string, ms []store.Meta) { remote = append(remote, ms...) })
		metas = mergeMetas(metas, remote)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"results": metas,
		"stats":   s.store.Stats(),
	})
}

func (s *Server) handleResultPayload(w http.ResponseWriter, r *http.Request) {
	if !s.requireStore(w) {
		return
	}
	key, err := s.store.ResolveKey(r.PathValue("key"))
	if err == nil {
		payload, ok, gerr := s.store.Get(key)
		if gerr != nil {
			writeError(w, http.StatusInternalServerError, gerr.Error())
			return
		}
		if ok {
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("X-Store-Key", key)
			w.Write(payload)
			return
		}
	}
	// Local miss: in cluster mode the record may live on a peer.
	if s.mesh != nil && !viaMesh(r) {
		s.mm.scatters.Inc()
		if payload, fullKey, ok := s.clusterResultLookup(r.Context(), r.PathValue("key")); ok {
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("X-Store-Key", fullKey)
			w.Write(payload)
			return
		}
	}
	if err == nil {
		err = fmt.Errorf("no such result")
	}
	writeError(w, http.StatusNotFound, err.Error())
}

func (s *Server) handleSeriesList(w http.ResponseWriter, r *http.Request) {
	if !s.requireStore(w) {
		return
	}
	names := s.store.SeriesNames()
	if s.mesh != nil && !viaMesh(r) {
		s.mm.scatters.Inc()
		names = s.scatterSeriesNames(r.Context(), names)
	}
	// The per-stream raw series are crash-resume plumbing, not run
	// histories; keep them out of the public catalog.
	public := names[:0]
	for _, n := range names {
		if !strings.HasPrefix(n, streamShadowPrefix) {
			public = append(public, n)
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"series": public})
}

// loadSeriesRuns reads every stored result of a series, oldest first, and
// reduces each to its tracked objects.
func (s *Server) loadSeriesRuns(name string) ([]trajectory.Run, error) {
	metas := s.store.Series(name)
	runs := make([]trajectory.Run, 0, len(metas))
	for _, m := range metas {
		payload, ok, err := s.store.Get(m.Key)
		if err != nil {
			return nil, fmt.Errorf("reading %s: %w", m.Key, err)
		}
		if !ok {
			continue // compacted away between List and Get
		}
		run, err := trajectory.ParseRun(payload, m.Key, m.Label, m.UnixNano)
		if err != nil {
			return nil, err
		}
		runs = append(runs, run)
	}
	return runs, nil
}

// runHeads summarises a series' runs for API responses.
func runHeads(runs []trajectory.Run) []map[string]any {
	out := make([]map[string]any, len(runs))
	for i, r := range runs {
		out[i] = map[string]any{"key": r.Key, "label": r.Label, "unixNano": r.UnixNano, "objects": len(r.Objects)}
	}
	return out
}

func qFloat(r *http.Request, name string) float64 {
	v, err := strconv.ParseFloat(r.URL.Query().Get(name), 64)
	if err != nil {
		return 0
	}
	return v
}

func qInt(r *http.Request, name string) int {
	v, err := strconv.Atoi(r.URL.Query().Get(name))
	if err != nil {
		return 0
	}
	return v
}

func linkConfigFromQuery(r *http.Request) trajectory.LinkConfig {
	return trajectory.LinkConfig{
		MaxDist:  qFloat(r, "maxDist"),
		MinShare: qFloat(r, "linkMinShare"),
	}
}

func detectorConfigFromQuery(r *http.Request) trajectory.DetectorConfig {
	cfg := trajectory.DetectorConfig{
		Metric:    r.URL.Query().Get("metric"),
		Window:    qInt(r, "window"),
		MinPoints: qInt(r, "minPoints"),
		MADs:      qFloat(r, "mads"),
		MinRel:    qFloat(r, "minRel"),
		MinShare:  qFloat(r, "minShare"),
	}
	if v := r.URL.Query().Get("higherIsWorse"); v != "" {
		lower := v != "true" && v != "1"
		cfg.LowerIsWorse = &lower
	}
	return cfg
}

func (s *Server) handleTrajectories(w http.ResponseWriter, r *http.Request) {
	if !s.requireStore(w) {
		return
	}
	name := r.PathValue("name")
	runs, err := s.seriesRuns(r, name)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if len(runs) == 0 {
		writeError(w, http.StatusNotFound, "no such series")
		return
	}
	s.sm.trajectoryRequests.Inc()
	trajs := trajectory.Chain(runs, linkConfigFromQuery(r))
	writeJSON(w, http.StatusOK, map[string]any{
		"series":       name,
		"runs":         runHeads(runs),
		"trajectories": trajs,
	})
}

func (s *Server) handleRegressions(w http.ResponseWriter, r *http.Request) {
	if !s.requireStore(w) {
		return
	}
	name := r.PathValue("name")
	runs, err := s.seriesRuns(r, name)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if len(runs) == 0 {
		writeError(w, http.StatusNotFound, "no such series")
		return
	}
	s.sm.regressionChecks.Inc()
	trajs := trajectory.Chain(runs, linkConfigFromQuery(r))
	verdicts := trajectory.Detect(runs, trajs, detectorConfigFromQuery(r))
	notable := 0
	for _, v := range verdicts {
		if v.Notable() {
			notable++
		}
	}
	s.sm.regressionsFlagged.Add(uint64(notable))
	writeJSON(w, http.StatusOK, map[string]any{
		"series":   name,
		"runs":     runHeads(runs),
		"verdicts": verdicts,
		"notable":  notable,
	})
}
