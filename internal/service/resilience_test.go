package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func httpPostJSON(t *testing.T, s *Server, path string, v any) (string, int) {
	t.Helper()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return string(b), resp.StatusCode
}

func httpGet(t *testing.T, s *Server, path string) (string, int) {
	t.Helper()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return string(b), resp.StatusCode
}

// ---- breaker ----

// TestBreakerLifecycle: closed → open after threshold consecutive
// failures, probes admitted after cooldown, probe success closes it.
func TestBreakerLifecycle(t *testing.T) {
	now := time.Unix(0, 0)
	var flips []bool
	b := newBreaker(3, time.Second, func(open bool) { flips = append(flips, open) })
	b.now = func() time.Time { return now }

	for i := 0; i < 2; i++ {
		b.Failure()
		if !b.Allow() || b.Open() {
			t.Fatalf("open after %d failures, threshold 3", i+1)
		}
	}
	b.Failure()
	if !b.Open() || b.Allow() {
		t.Fatal("not open after 3 consecutive failures")
	}
	if !b.Blocked() {
		t.Fatal("freshly-opened breaker not blocked")
	}

	now = now.Add(500 * time.Millisecond)
	if b.Allow() {
		t.Fatal("probe admitted before cooldown")
	}
	now = now.Add(600 * time.Millisecond)
	if b.Blocked() {
		t.Fatal("blocked after cooldown elapsed")
	}
	if !b.Allow() {
		t.Fatal("probe refused after cooldown")
	}
	if b.Allow() {
		t.Fatal("second probe admitted inside the same cooldown window")
	}
	b.Success()
	if b.Open() || !b.Allow() {
		t.Fatal("probe success did not close the breaker")
	}
	// A success resets the consecutive-failure count.
	b.Failure()
	b.Failure()
	b.Success()
	b.Failure()
	b.Failure()
	if b.Open() {
		t.Fatal("interleaved successes must reset the failure count")
	}
	if len(flips) != 2 || !flips[0] || flips[1] {
		t.Fatalf("transition log %v, want [open, close]", flips)
	}
}

// TestBreakerProbeFailureReopens: a failed probe restarts the cooldown.
func TestBreakerProbeFailureReopens(t *testing.T) {
	now := time.Unix(0, 0)
	b := newBreaker(1, time.Second, nil)
	b.now = func() time.Time { return now }
	b.Failure()
	now = now.Add(time.Second)
	if !b.Allow() {
		t.Fatal("probe refused")
	}
	b.Failure()
	if b.Allow() {
		t.Fatal("probe admitted immediately after a failed probe")
	}
	now = now.Add(time.Second)
	if !b.Allow() {
		t.Fatal("probe refused after second cooldown")
	}
}

// TestBackoffDelayBounds: each attempt's delay stays inside
// [base·2ⁿ/2, base·2ⁿ) and saturates at max.
func TestBackoffDelayBounds(t *testing.T) {
	base, max := 10*time.Millisecond, 80*time.Millisecond
	for attempt := 0; attempt < 8; attempt++ {
		want := base << attempt
		if want > max {
			want = max
		}
		for i := 0; i < 50; i++ {
			d := backoffDelay(attempt, base, max)
			if d < want/2 || d >= want {
				t.Fatalf("attempt %d: delay %v outside [%v, %v)", attempt, d, want/2, want)
			}
		}
	}
}

// ---- service-level resilience ----

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	return s
}

func waitReady(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if r := s.Readyz(); r.Ready {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never became ready: %+v", s.Readyz())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPersistRetrySucceeds: transient store-append failures are retried
// with backoff and the result still lands durably; the journal intent
// resolves and the breaker stays closed.
func TestPersistRetrySucceeds(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Config{
		Workers: 1, StoreDir: dir, StoreSyncEvery: 1,
		RetryBase: time.Millisecond, RetryMax: 4 * time.Millisecond,
	})
	fails := 2
	s.testAppendFault = func(string) error {
		if fails > 0 {
			fails--
			return errors.New("transient disk error")
		}
		return nil
	}
	req := simUploads(t)[0]
	j, _, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	s.Wait(context.Background(), j)
	if _, state, msg := s.Result(j); state != StateDone {
		t.Fatalf("job %s: %s", state, msg)
	}
	if _, ok, _ := s.store.Get(j.Key); !ok {
		t.Fatal("result not persisted despite retries")
	}
	if got := s.rm.retryAttempts.Value(); got != 2 {
		t.Fatalf("retry attempts %d, want 2", got)
	}
	if got := s.journal.Stats().Pending; got != 0 {
		t.Fatalf("journal pending %d after successful persist, want 0", got)
	}
	if s.storeBreaker.Open() {
		t.Fatal("breaker open after recovered transient failures")
	}
}

// TestStoreBreakerDegradesToReadOnly: persistent store failure exhausts
// the retries, trips the breaker, and the service refuses new write
// work with ErrDegraded while still serving reads; the completed-but-
// unpersisted job's intent stays pending and a restart lands it in the
// store.
func TestStoreBreakerDegradesToReadOnly(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Workers: 1, StoreDir: dir, StoreSyncEvery: 1,
		StoreRetries: 5, RetryBase: time.Millisecond, RetryMax: 2 * time.Millisecond,
		BreakerThreshold: 3, BreakerCooldown: time.Hour,
	}
	s := newTestServer(t, cfg)
	s.testAppendFault = func(string) error { return errors.New("disk on fire") }

	reqs := simUploads(t)
	j, _, err := s.Submit(reqs[0])
	if err != nil {
		t.Fatal(err)
	}
	s.Wait(context.Background(), j)
	result, state, msg := s.Result(j)
	if state != StateDone || len(result) == 0 {
		t.Fatalf("job should complete from memory despite store failure: %s %s", state, msg)
	}
	if !s.storeBreaker.Open() {
		t.Fatal("store breaker not open after exhausted retries")
	}
	if got := s.journal.Stats().Pending; got != 1 {
		t.Fatalf("journal pending %d, want 1 (unpersisted result stays pending)", got)
	}

	// New write work is refused 503-style...
	if _, _, err := s.Submit(reqs[1]); !errors.Is(err, ErrDegraded) {
		t.Fatalf("submit while degraded: err %v, want ErrDegraded", err)
	}
	if got := s.rm.degradedResponses.Value(); got == 0 {
		t.Fatal("degraded responses not counted")
	}
	// ...but reads keep flowing: the same key resolves from cache.
	hit, _, err := s.Submit(reqs[0])
	if err != nil {
		t.Fatalf("cached read while degraded: %v", err)
	}
	if _, hState, _ := s.Result(hit); hState != StateDone {
		t.Fatal("cache hit not served while degraded")
	}
	if r := s.Readyz(); r.Ready {
		t.Fatal("readyz reports ready with the store breaker open")
	}

	// Restart over the same dir: replay persists the pending result
	// without recomputing it (store works again — no fault hook).
	s.Shutdown(context.Background())
	s2 := newTestServer(t, cfg)
	execs := 0
	s2.testExecHook = func(string) { execs++ }
	waitReady(t, s2)
	if _, ok, _ := s2.store.Get(j.Key); !ok {
		t.Fatal("replayed result did not land in the store")
	}
	if got := s2.journal.Stats().Pending; got != 0 {
		t.Fatalf("journal pending %d after replay, want 0", got)
	}
}

// TestExecBreakerTripsOnPipelineFailures: consecutive execution
// failures (forced via a nanosecond job timeout) open the execution
// breaker, refuse new work, and resolve the failed jobs' intents as
// definitive errors (no replay).
func TestExecBreakerTripsOnPipelineFailures(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Workers: 1, StoreDir: dir,
		JobTimeout:       time.Nanosecond,
		BreakerThreshold: 2, BreakerCooldown: time.Hour,
	}
	s := newTestServer(t, cfg)
	reqs := simUploads(t)
	for i := 0; i < 2; i++ {
		j, _, err := s.Submit(reqs[i])
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		s.Wait(context.Background(), j)
		if _, state, _ := s.Result(j); state != StateFailed {
			t.Fatalf("job %d state %s, want failed (timeout)", i, state)
		}
	}
	if !s.execBreaker.Open() {
		t.Fatal("exec breaker not open after consecutive failures")
	}
	if _, _, err := s.Submit(reqs[2]); !errors.Is(err, ErrDegraded) {
		t.Fatalf("submit with exec breaker open: err %v, want ErrDegraded", err)
	}
	if got := s.journal.Stats().Pending; got != 0 {
		t.Fatalf("journal pending %d, want 0 (definitive failures resolve)", got)
	}
	if r := s.Readyz(); r.Ready {
		t.Fatal("readyz ready with exec breaker open")
	}
}

// TestWorkerPanicFailsOneJob: a panic inside a job's execution ends that
// job failed with a "panic: ..." error, resolves its journal intent,
// counts as a breaker failure, and leaves the node serving: the next job
// succeeds and /healthz still answers.
func TestWorkerPanicFailsOneJob(t *testing.T) {
	reqs := simUploads(t)
	bad, err := resolveThrough(reqs[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{
		Workers: 1, StoreDir: t.TempDir(), StoreSyncEvery: 1,
		BreakerThreshold: 2, BreakerCooldown: time.Hour,
		testExecHook: func(key string) {
			if key == bad.key {
				panic("evaluator bug")
			}
		},
	})
	waitReady(t, s)

	j, _, err := s.Submit(reqs[0])
	if err != nil {
		t.Fatal(err)
	}
	s.Wait(context.Background(), j)
	if _, state, msg := s.Result(j); state != StateFailed || msg != "panic: evaluator bug" {
		t.Fatalf("panicking job: state %s, error %q; want failed with the panic", state, msg)
	}
	if got := s.journal.Stats().Pending; got != 0 {
		t.Fatalf("journal pending %d after a panicked job, want 0", got)
	}
	s.execBreaker.mu.Lock()
	fails := s.execBreaker.fails
	s.execBreaker.mu.Unlock()
	if fails != 1 {
		t.Fatalf("exec breaker saw %d failures, want 1", fails)
	}

	j2, _, err := s.Submit(reqs[1])
	if err != nil {
		t.Fatal(err)
	}
	s.Wait(context.Background(), j2)
	if _, state, msg := s.Result(j2); state != StateDone {
		t.Fatalf("job after the panic: state %s (%s), want done", state, msg)
	}

	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz after a panicked job: %s", resp.Status)
	}
}

// TestReplayAfterShutdownWithQueuedJobs: jobs acknowledged but not
// finished when the daemon stops stay pending in the journal; the next
// startup replays them to completion and /readyz flips only when the
// backlog is done.
func TestReplayAfterShutdownWithQueuedJobs(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 1, QueueDepth: 8, StoreDir: dir, StoreSyncEvery: 1}
	s := newTestServer(t, cfg)
	s.testGate = make(chan struct{}) // never closed: jobs block until shutdown

	reqs := simUploads(t)
	keys := make([]string, len(reqs))
	for i, req := range reqs {
		j, _, err := s.Submit(req)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		keys[i] = j.Key
	}
	if got := s.journal.Stats().Pending; got != len(reqs) {
		t.Fatalf("journal pending %d, want %d", got, len(reqs))
	}
	s.Shutdown(context.Background())

	s2 := newTestServer(t, cfg)
	execs := map[string]int{}
	var mu = make(chan struct{}, 1)
	mu <- struct{}{}
	s2.testExecHook = func(key string) { <-mu; execs[key]++; mu <- struct{}{} }
	waitReady(t, s2)
	for _, key := range keys {
		if _, ok, _ := s2.store.Get(key); !ok {
			t.Fatalf("acknowledged key %.8s not stored after replay", key)
		}
	}
	if got := s2.journal.Stats().Pending; got != 0 {
		t.Fatalf("journal pending %d after replay", got)
	}
	// Resubmissions resolve instantly as hits, no recomputation.
	for i, req := range reqs {
		j, _, err := s2.Submit(req)
		if err != nil {
			t.Fatalf("resubmit %d: %v", i, err)
		}
		select {
		case <-j.done:
		default:
			t.Fatalf("replayed key %.8s did not resolve instantly", j.Key)
		}
	}
}

// TestReadyzNoJournal: without a store the journal is off and the
// server is ready immediately.
func TestReadyzNoJournal(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	if r := s.Readyz(); !r.Ready {
		t.Fatalf("fresh storeless server not ready: %+v", r)
	}
	if s.Journal() != nil {
		t.Fatal("journal open without a store dir")
	}
}

// TestJournalDisabled: StoreDir with JournalDisabled keeps the old
// memory-only acknowledgement behavior.
func TestJournalDisabled(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, StoreDir: t.TempDir(), JournalDisabled: true})
	if s.Journal() != nil {
		t.Fatal("journal open despite JournalDisabled")
	}
	j, _, err := s.Submit(simUploads(t)[0])
	if err != nil {
		t.Fatal(err)
	}
	s.Wait(context.Background(), j)
	if _, state, msg := s.Result(j); state != StateDone {
		t.Fatalf("job %s: %s", state, msg)
	}
}

// TestQueueFullResolvesIntent: a 429'd submission must not leave a
// pending intent behind (it would be replayed as a ghost job).
func TestQueueFullResolvesIntent(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 1, StoreDir: dir})
	s.testGate = make(chan struct{})
	reqs := simUploads(t)
	// First job occupies the worker (blocked on the gate), second fills
	// the queue, third must be rejected.
	if _, _, err := s.Submit(reqs[0]); err != nil {
		t.Fatal(err)
	}
	var rejected bool
	for i := 1; i < len(reqs); i++ {
		_, _, err := s.Submit(reqs[i])
		if errors.Is(err, ErrQueueFull) {
			rejected = true
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !rejected {
		t.Skip("queue never filled (worker raced ahead)") // gate prevents this
	}
	st := s.journal.Stats()
	admitted := int(s.m.jobsAccepted.Value() - s.m.jobsRejected.Value())
	if st.Pending != admitted {
		t.Fatalf("journal pending %d, want %d (rejected submissions must resolve their intents)", st.Pending, admitted)
	}
	close(s.testGate)
}

// TestStageTimeout: a per-stage budget far smaller than the job budget
// fails a job whose stage stalls. The nanosecond stage budget expires
// before the simulation stage starts, while JobTimeout stays generous —
// proving the failure came from the stage budget.
func TestStageTimeout(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, JobTimeout: time.Hour, StageTimeout: time.Nanosecond})
	j, _, err := s.Submit(simUploads(t)[0])
	if err != nil {
		t.Fatal(err)
	}
	s.Wait(context.Background(), j)
	if _, state, _ := s.Result(j); state != StateFailed {
		t.Fatalf("state %s, want failed from stage timeout", state)
	}
	if s.m.jobsFailed.Value() != 1 {
		t.Fatal("stage-timeout failure not counted")
	}
}

// TestDegradedHTTPResponse: the HTTP layer maps ErrDegraded to 503 with
// a Retry-After header.
func TestDegradedHTTPResponse(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Config{
		Workers: 1, StoreDir: dir,
		JobTimeout: time.Nanosecond, BreakerThreshold: 1, BreakerCooldown: time.Hour,
	})
	req := simUploads(t)[0]
	j, _, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	s.Wait(context.Background(), j) // fails, trips exec breaker

	body, status := httpPostJSON(t, s, "/v1/jobs", simUploads(t)[1])
	if status != 503 {
		t.Fatalf("degraded submit status %d, want 503: %s", status, body)
	}
	rbody, rstatus := httpGet(t, s, "/readyz")
	if rstatus != 503 {
		t.Fatalf("readyz status %d, want 503: %s", rstatus, rbody)
	}
}
