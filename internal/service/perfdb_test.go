package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"perftrack/internal/trajectory"
)

// TestStoreSurvivesRestart is the perfdb contract: a result computed
// before a daemon restart is served after it without re-running the
// pipeline — the cache misses, the store answers.
func TestStoreSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	req := JobRequest{Study: "Synthetic", Series: "nightly", RunLabel: "run-1"}

	s1 := newTest(t, Config{Workers: 2, StoreDir: dir, StoreSyncEvery: 1})
	j1, _, err := s1.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s1, j1)
	res1, state, errMsg := s1.Result(j1)
	if state != StateDone {
		t.Fatalf("job state %s (%s)", state, errMsg)
	}
	if got := s1.Store().Stats().Records; got != 1 {
		t.Fatalf("store holds %d records, want 1", got)
	}
	shutdown(t, s1)

	// "Restart": a fresh server over the same directory, empty cache.
	s2 := newTest(t, Config{Workers: 2, StoreDir: dir})
	defer shutdown(t, s2)
	if got := s2.Store().Stats().Records; got != 1 {
		t.Fatalf("reopened store holds %d records, want 1", got)
	}
	j2, _, err := s2.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s2, j2)
	if v := s2.View(j2); !v.CacheHit {
		t.Fatal("post-restart submission was not served as a hit")
	}
	res2, _, _ := s2.Result(j2)
	if !bytes.Equal(res1, res2) {
		t.Fatalf("restarted store returned different bytes: %d vs %d", len(res1), len(res2))
	}
	if got := s2.m.jobsExecuted.Value(); got != 0 {
		t.Fatalf("pipeline executed %d times after restart, want 0", got)
	}
	if got := s2.sm.hits.Value(); got != 1 {
		t.Fatalf("store hits %d, want 1", got)
	}
	// Series membership survived too.
	metas := s2.Store().Series("nightly")
	if len(metas) != 1 || metas[0].Label != "run-1" {
		t.Fatalf("series metas %+v, want one run-1 record", metas)
	}
}

// TestRefileIntoSeries: resubmitting a known result under a series name
// must file it there even when the bytes come from cache or store.
func TestRefileIntoSeries(t *testing.T) {
	s := newTest(t, Config{Workers: 2, StoreDir: t.TempDir()})
	defer shutdown(t, s)

	j1, _, err := s.Submit(JobRequest{Study: "Synthetic"}) // unfiled
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, j1)
	if got := s.Store().SeriesNames(); len(got) != 0 {
		t.Fatalf("series present before any was named: %v", got)
	}

	j2, _, err := s.Submit(JobRequest{Study: "Synthetic", Series: "nightly", RunLabel: "n1"})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, j2)
	if v := s.View(j2); !v.CacheHit {
		t.Fatal("resubmission was not a cache hit")
	}
	metas := s.Store().Series("nightly")
	if len(metas) != 1 || metas[0].Label != "n1" {
		t.Fatalf("refile did not land in series: %+v", metas)
	}
	if got := s.m.jobsExecuted.Value(); got != 1 {
		t.Fatalf("pipeline executed %d times, want 1", got)
	}
}

// TestSeriesValidation: series names are path segments and must be safe.
func TestSeriesValidation(t *testing.T) {
	for _, bad := range []string{"a/b", "a b", "höhe", strings.Repeat("x", 200)} {
		if _, err := resolveThrough(JobRequest{Study: "Synthetic", Series: bad}, nil); err == nil {
			t.Errorf("series %q accepted", bad)
		}
	}
	if _, err := resolveThrough(JobRequest{Study: "Synthetic", Series: "nightly-v1.2_x"}, nil); err != nil {
		t.Errorf("valid series rejected: %v", err)
	}
}

// TestStoreDisabledEndpoints: without -store the perfdb endpoints answer
// 503, not 404s that would mask a deployment mistake.
func TestStoreDisabledEndpoints(t *testing.T) {
	s := newTest(t, Config{Workers: 1})
	defer shutdown(t, s)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	for _, path := range []string{
		"/v1/results", "/v1/results/abc", "/v1/series",
		"/v1/series/x/trajectories", "/v1/series/x/regressions",
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("%s: status %d, want 503", path, resp.StatusCode)
		}
	}
}

// TestSeriesEndpointsHTTP drives the stored-history API end to end: four
// distinct submissions filed into one series, then listing, payload
// fetch by key prefix, trajectory chaining and regression verdicts over
// HTTP.
func TestSeriesEndpointsHTTP(t *testing.T) {
	s := newTest(t, Config{Workers: 2, StoreDir: t.TempDir()})
	defer shutdown(t, s)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// Four runs of the same study with fingerprint-only perturbations:
	// same behaviours every run, so every trajectory must chain through
	// and judge steady.
	const nRuns = 4
	for i := 0; i < nRuns; i++ {
		req := JobRequest{
			Study:    "Synthetic",
			Series:   "nightly",
			RunLabel: fmt.Sprintf("run-%d", i),
			Config:   &ConfigSpec{MinCorrelation: 0.2 + float64(i+1)*1e-12},
		}
		j, _, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, s, j)
		if _, state, errMsg := s.Result(j); state != StateDone {
			t.Fatalf("run %d state %s (%s)", i, state, errMsg)
		}
	}

	get := func(path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, b
	}

	// Listing: all four records, filterable by series.
	_, body := get("/v1/results")
	var listing struct {
		Results []struct {
			Key    string `json:"key"`
			Series string `json:"series"`
			Label  string `json:"label"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Results) != nRuns {
		t.Fatalf("listing has %d results, want %d", len(listing.Results), nRuns)
	}

	// Payload by abbreviated key.
	key := listing.Results[0].Key
	resp, payload := get("/v1/results/" + key[:12])
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result fetch status %d: %s", resp.StatusCode, payload)
	}
	if resp.Header.Get("X-Store-Key") != key {
		t.Fatalf("X-Store-Key %q, want %q", resp.Header.Get("X-Store-Key"), key)
	}
	if !json.Valid(payload) {
		t.Fatal("stored payload is not valid JSON")
	}

	// Series listing.
	_, body = get("/v1/series")
	if !bytes.Contains(body, []byte("nightly")) {
		t.Fatalf("series listing missing nightly: %s", body)
	}

	// Trajectories: every run contributes, and at least one trajectory
	// spans all four.
	_, body = get("/v1/series/nightly/trajectories")
	var tres struct {
		Runs         []map[string]any        `json:"runs"`
		Trajectories []trajectory.Trajectory `json:"trajectories"`
	}
	if err := json.Unmarshal(body, &tres); err != nil {
		t.Fatal(err)
	}
	if len(tres.Runs) != nRuns {
		t.Fatalf("trajectories ran over %d runs, want %d", len(tres.Runs), nRuns)
	}
	if len(tres.Trajectories) == 0 {
		t.Fatal("no trajectories chained")
	}
	if got := len(tres.Trajectories[0].Points); got != nRuns {
		t.Fatalf("dominant trajectory spans %d runs, want %d", got, nRuns)
	}

	// Regressions: identical runs must produce zero notable verdicts.
	_, body = get("/v1/series/nightly/regressions")
	var rres struct {
		Verdicts []trajectory.Verdict `json:"verdicts"`
		Notable  int                  `json:"notable"`
	}
	if err := json.Unmarshal(body, &rres); err != nil {
		t.Fatal(err)
	}
	if rres.Notable != 0 {
		t.Fatalf("identical runs produced %d notable verdicts: %+v", rres.Notable, rres.Verdicts)
	}
	if len(rres.Verdicts) == 0 {
		t.Fatal("no verdicts at all")
	}
	for _, v := range rres.Verdicts {
		if v.Kind != trajectory.KindSteady && v.Kind != trajectory.KindInsufficient {
			t.Fatalf("verdict %+v on identical runs", v)
		}
	}

	// Unknown series is a 404.
	if r, _ := get("/v1/series/nope/regressions"); r.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown series status %d, want 404", r.StatusCode)
	}

	// Store metrics are exposed.
	_, body = get("/metrics")
	for _, want := range []string{
		"trackd_store_records 4",
		"trackd_trajectory_requests_total 1",
		"trackd_regression_checks_total 1",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
