package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"perftrack/internal/apps"
	"perftrack/internal/mpisim"
	"perftrack/internal/trace"
)

// syntheticReq is the cheapest fully deterministic workload: the default
// synthetic robustness study (16 ranks, 4 frames).
func syntheticReq() JobRequest { return JobRequest{Study: "Synthetic"} }

// newTest starts a server, failing the test on store-open errors.
func newTest(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

func waitDone(t *testing.T, s *Server, j *Job) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Wait(ctx, j); err != nil {
		t.Fatalf("waiting for job %s: %v", j.ID, err)
	}
}

func shutdown(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestSubmitTwiceServesSecondFromCache is the core cache contract: the
// same study submitted twice returns byte-identical results, with the
// second submission served from the content-addressed cache without a
// second pipeline execution.
func TestSubmitTwiceServesSecondFromCache(t *testing.T) {
	s := newTest(t, Config{Workers: 2})
	defer shutdown(t, s)

	j1, coalesced, err := s.Submit(syntheticReq())
	if err != nil {
		t.Fatalf("first submit: %v", err)
	}
	if coalesced {
		t.Fatal("first submission reported coalesced")
	}
	waitDone(t, s, j1)
	res1, state, errMsg := s.Result(j1)
	if state != StateDone {
		t.Fatalf("first job state %s (%s)", state, errMsg)
	}
	if len(res1) == 0 {
		t.Fatal("first job produced empty result")
	}

	j2, _, err := s.Submit(syntheticReq())
	if err != nil {
		t.Fatalf("second submit: %v", err)
	}
	waitDone(t, s, j2)
	v2 := s.View(j2)
	if !v2.CacheHit {
		t.Fatal("second submission was not a cache hit")
	}
	res2, _, _ := s.Result(j2)
	if !bytes.Equal(res1, res2) {
		t.Fatalf("cache returned different bytes: %d vs %d", len(res1), len(res2))
	}
	if j1.Key != j2.Key {
		t.Fatalf("identical requests got different keys %s vs %s", j1.Key, j2.Key)
	}
	if got := s.m.jobsExecuted.Value(); got != 1 {
		t.Fatalf("pipeline executed %d times, want 1", got)
	}
	if got := s.m.cacheHits.Value(); got != 1 {
		t.Fatalf("cache hits %d, want 1", got)
	}
}

// TestConfigChangesCacheKey: any knob that influences the output must
// change the cache key, so near-identical submissions never alias.
func TestConfigChangesCacheKey(t *testing.T) {
	base, err := resolveThrough(syntheticReq(), nil)
	if err != nil {
		t.Fatal(err)
	}
	variants := []JobRequest{
		{Study: "Synthetic", Config: &ConfigSpec{Eps: 0.08}},
		{Study: "Synthetic", Config: &ConfigSpec{MinPts: 6}},
		{Study: "Synthetic", Config: &ConfigSpec{MinCorrelation: 0.3}},
		{Study: "Synthetic", Config: &ConfigSpec{DisableSPMD: true}},
		{Study: "Synthetic", Metrics: []string{"IPC"}},
		{Study: "WRF"},
	}
	seen := map[string]int{base.key: -1}
	for i, req := range variants {
		spec, err := resolveThrough(req, nil)
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if prev, dup := seen[spec.key]; dup {
			t.Fatalf("variant %d collides with %d", i, prev)
		}
		seen[spec.key] = i
	}
}

// TestSingleflightConcurrentSubmissions: N concurrent identical
// submissions while the first is still executing must all attach to one
// job — the pipeline runs exactly once.
func TestSingleflightConcurrentSubmissions(t *testing.T) {
	s := newTest(t, Config{Workers: 2, QueueDepth: 16})
	s.testGate = make(chan struct{})
	defer shutdown(t, s)

	const n = 8
	jobs := make([]*Job, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			j, _, err := s.Submit(syntheticReq())
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			jobs[i] = j
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	close(s.testGate) // release the one real execution

	var first []byte
	for i, j := range jobs {
		waitDone(t, s, j)
		res, state, errMsg := s.Result(j)
		if state != StateDone {
			t.Fatalf("job %d state %s (%s)", i, state, errMsg)
		}
		if first == nil {
			first = res
		} else if !bytes.Equal(first, res) {
			t.Fatalf("job %d returned different bytes", i)
		}
	}
	if got := s.m.jobsExecuted.Value(); got != 1 {
		t.Fatalf("pipeline executed %d times for %d identical submissions, want 1", got, n)
	}
	if got := s.m.jobsCoalesced.Value() + s.m.cacheHits.Value(); got != n-1 {
		t.Fatalf("coalesced+hits = %d, want %d", got, n-1)
	}
}

// TestQueueFullRejectsWithoutDroppingInflight: a saturated queue must
// reject new work with ErrQueueFull while every admitted job still runs
// to completion.
func TestQueueFullRejectsWithoutDroppingInflight(t *testing.T) {
	s := newTest(t, Config{Workers: 1, QueueDepth: 1, RetryAfter: 2 * time.Second})
	s.testGate = make(chan struct{})
	defer shutdown(t, s)

	// Distinct keys so nothing coalesces: vary an output-relevant knob.
	reqN := func(i int) JobRequest {
		return JobRequest{Study: "Synthetic", Config: &ConfigSpec{MinCorrelation: 0.1 + float64(i)*1e-9}}
	}

	j0, _, err := s.Submit(reqN(0)) // taken by the (gated) worker
	if err != nil {
		t.Fatalf("submit 0: %v", err)
	}
	// Wait for the worker to pull j0 off the queue so the single queue
	// slot is free for j1 and the saturation below is deterministic.
	deadline := time.Now().Add(5 * time.Second)
	for s.View(j0).State != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("worker never started job 0")
		}
		time.Sleep(5 * time.Millisecond)
	}
	j1, _, err := s.Submit(reqN(1)) // occupies the queue slot
	if err != nil {
		t.Fatalf("submit 1: %v", err)
	}
	if _, _, err := s.Submit(reqN(2)); err != ErrQueueFull {
		t.Fatalf("submit 2: got %v, want ErrQueueFull", err)
	}
	if got := s.m.jobsRejected.Value(); got != 1 {
		t.Fatalf("rejected counter %d, want 1", got)
	}

	close(s.testGate)
	waitDone(t, s, j0)
	waitDone(t, s, j1)
	for i, j := range []*Job{j0, j1} {
		if _, state, errMsg := s.Result(j); state != StateDone {
			t.Fatalf("in-flight job %d dropped: state %s (%s)", i, state, errMsg)
		}
	}
}

// TestShutdownCancelsInflight: Shutdown must cancel the running job and
// mark queued jobs canceled, never leaving a waiter hanging.
func TestShutdownCancelsInflight(t *testing.T) {
	s := newTest(t, Config{Workers: 1, QueueDepth: 4})
	s.testGate = make(chan struct{}) // never closed: jobs block until ctx cancel

	running, _, err := s.Submit(JobRequest{Study: "Synthetic"})
	if err != nil {
		t.Fatal(err)
	}
	queued, _, err := s.Submit(JobRequest{Study: "Synthetic", Config: &ConfigSpec{MinPts: 6}})
	if err != nil {
		t.Fatal(err)
	}

	shutdown(t, s)

	for i, j := range []*Job{running, queued} {
		select {
		case <-j.done:
		case <-time.After(5 * time.Second):
			t.Fatalf("job %d never reached a terminal state", i)
		}
		if v := s.View(j); v.State != StateCanceled {
			t.Fatalf("job %d state %s, want canceled", i, v.State)
		}
	}
	if got := s.m.jobsCanceled.Value(); got != 2 {
		t.Fatalf("canceled counter %d, want 2", got)
	}
	if _, _, err := s.Submit(syntheticReq()); err != ErrShuttingDown {
		t.Fatalf("submit after shutdown: got %v, want ErrShuttingDown", err)
	}
}

// TestResolveValidation rejects malformed requests before they reach the
// queue.
func TestResolveValidation(t *testing.T) {
	cases := []struct {
		name string
		req  JobRequest
		want string
	}{
		{"neither", JobRequest{}, "exactly one"},
		{"both", JobRequest{Study: "WRF", Traces: []string{"x"}}, "exactly one"},
		{"unknown study", JobRequest{Study: "NoSuchApp"}, "unknown study"},
		{"bad windows", JobRequest{Study: "WRF", Windows: 9999}, "windows"},
		{"unknown metric", JobRequest{Study: "WRF", Metrics: []string{"Bogons"}}, "unknown metric"},
		{"one trace no windows", JobRequest{Traces: []string{emptyTraceText(t)}}, "at least two"},
		{"garbage trace", JobRequest{Traces: []string{"not a trace\n", "also not\n"}}, "trace 0"},
		{"bad config", JobRequest{Study: "WRF", Config: &ConfigSpec{MinCorrelation: 3}}, "MinCorrelation"},
	}
	for _, tc := range cases {
		_, err := resolveThrough(tc.req, nil)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want error containing %q", tc.name, err, tc.want)
		}
	}
}

// emptyTraceText serialises an empty trace: valid header, no bursts.
func emptyTraceText(t *testing.T) string {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.Write(&buf, &trace.Trace{}); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestUploadTraces drives the upload path: simulate the synthetic study,
// serialise its runs to the text format, and submit them as raw traces —
// with a corrupt line in lenient mode, whose skip count must surface in
// the job diagnostics and the /healthz degraded-mode aggregation.
func TestUploadTraces(t *testing.T) {
	st, err := apps.ByName("Synthetic")
	if err != nil {
		t.Fatal(err)
	}
	traces, err := mpisim.SimulateSeries(st.Runs)
	if err != nil {
		t.Fatal(err)
	}
	texts := make([]string, len(traces))
	for i, tr := range traces {
		var buf bytes.Buffer
		if err := trace.Write(&buf, tr); err != nil {
			t.Fatal(err)
		}
		texts[i] = buf.String()
	}
	// Corrupt one line of the first trace.
	texts[0] += "B this line is garbage\n"

	s := newTest(t, Config{Workers: 2})
	defer shutdown(t, s)

	// Strict decoding rejects the corruption outright.
	if _, _, err := s.Submit(JobRequest{Traces: texts}); err == nil {
		t.Fatal("strict submit of corrupt trace succeeded")
	}

	j, _, err := s.Submit(JobRequest{Traces: texts, Lenient: true})
	if err != nil {
		t.Fatalf("lenient submit: %v", err)
	}
	waitDone(t, s, j)
	res, state, errMsg := s.Result(j)
	if state != StateDone {
		t.Fatalf("upload job state %s (%s)", state, errMsg)
	}
	if len(res) == 0 {
		t.Fatal("upload job produced empty result")
	}
	if v := s.View(j); !strings.Contains(v.Diagnostics, "skipped") {
		t.Fatalf("diagnostics %q missing skipped-line note", v.Diagnostics)
	}
	h := s.Healthz()
	if h.Status != "degraded" || h.DegradedMode.LinesSkipped == 0 {
		t.Fatalf("healthz did not surface degraded decode: %+v", h)
	}
}

// TestHTTPEndToEnd drives the whole API surface over HTTP: submit, poll,
// fetch, resubmit for a hit, and scrape /metrics and /healthz.
func TestHTTPEndToEnd(t *testing.T) {
	s := newTest(t, Config{Workers: 2})
	defer shutdown(t, s)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	post := func(body string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, b
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

	// Submit: 202, Location header, miss.
	resp, body := post(`{"study":"Synthetic"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("X-Cache %q, want miss", got)
	}
	var view JobView
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatalf("decoding job view: %v", err)
	}
	loc := resp.Header.Get("Location")
	if loc != "/v1/jobs/"+view.ID {
		t.Fatalf("Location %q does not match job id %q", loc, view.ID)
	}

	// Poll until done.
	var result1 []byte
	deadline := time.Now().Add(30 * time.Second)
	for {
		r, b := get(loc + "/result")
		if r.StatusCode == http.StatusOK {
			result1 = b
			break
		}
		if r.StatusCode != http.StatusAccepted {
			t.Fatalf("result status %d: %s", r.StatusCode, b)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !json.Valid(result1) {
		t.Fatal("result is not valid JSON")
	}

	// Resubmit: 200 + X-Cache: hit, identical bytes.
	resp, body = post(`{"study":"Synthetic"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cached submit status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("cached submit X-Cache %q, want hit", got)
	}
	var hitView JobView
	if err := json.Unmarshal(body, &hitView); err != nil {
		t.Fatal(err)
	}
	_, result2 := get("/v1/jobs/" + hitView.ID + "/result")
	if !bytes.Equal(result1, result2) {
		t.Fatal("cached result differs from original")
	}

	// Bad request surfaces as 400.
	if r, _ := post(`{"study":"NoSuchApp"}`); r.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad study status %d, want 400", r.StatusCode)
	}

	// Job listing includes both jobs.
	_, body = get("/v1/jobs")
	var listing struct {
		Jobs []JobView `json:"jobs"`
	}
	if err := json.Unmarshal(body, &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Jobs) != 2 {
		t.Fatalf("listing has %d jobs, want 2", len(listing.Jobs))
	}

	// Studies catalog includes the paper's table plus Synthetic.
	_, body = get("/v1/studies")
	if !bytes.Contains(body, []byte("Synthetic")) || !bytes.Contains(body, []byte("WRF")) {
		t.Fatalf("studies listing missing entries: %s", body)
	}

	// Metrics expose the counters this test just exercised.
	r, body := get("/metrics")
	if ct := r.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	for _, want := range []string{
		"trackd_jobs_accepted_total 2",
		"trackd_jobs_executed_total 1",
		"trackd_cache_hits_total 1",
		"trackd_stage_track_seconds_count 1",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// Healthz reports ok with consistent counters.
	_, body = get("/healthz")
	var h Health
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Fatalf("health status %q, want ok", h.Status)
	}
	if h.Jobs.Completed != 2 || h.Jobs.Executed != 1 {
		t.Fatalf("health jobs %+v", h.Jobs)
	}

	// Unknown job is a 404.
	if r, _ := get("/v1/jobs/never"); r.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job status %d, want 404", r.StatusCode)
	}
}

// TestHTTPQueueFull429 exercises the backpressure path over HTTP: 429
// with a Retry-After hint.
func TestHTTPQueueFull429(t *testing.T) {
	s := newTest(t, Config{Workers: 1, QueueDepth: 1, RetryAfter: 3 * time.Second})
	s.testGate = make(chan struct{})
	defer shutdown(t, s)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	submit := func(i int) *http.Response {
		t.Helper()
		body := fmt.Sprintf(`{"study":"Synthetic","config":{"minCorrelation":%g}}`, 0.1+float64(i)*1e-9)
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}

	if r := submit(0); r.StatusCode != http.StatusAccepted {
		t.Fatalf("submit 0 status %d", r.StatusCode)
	}
	// Wait for the worker to start job 0 so the queue slot is free.
	deadline := time.Now().Add(5 * time.Second)
	for s.m.workersBusy.Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if r := submit(1); r.StatusCode != http.StatusAccepted {
		t.Fatalf("submit 1 status %d", r.StatusCode)
	}
	r := submit(2)
	if r.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated submit status %d, want 429", r.StatusCode)
	}
	if got := r.Header.Get("Retry-After"); got != "3" {
		t.Fatalf("Retry-After %q, want \"3\"", got)
	}
	close(s.testGate)
}
