package service

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"perftrack/internal/oracle"
	"perftrack/internal/trace"
)

// Deterministic whole-schedule simulation of the daemon + store: a seeded
// event scheduler drives submit / duplicate-burst / crash / restart
// interleavings against an in-process server, and after every quiescent
// point two invariants are enforced over the entire schedule:
//
//	no result lost      — once a key completed, every later submission
//	                      of it (same generation or after any number of
//	                      crash/restart cycles) resolves instantly with
//	                      byte-identical result bytes;
//	no double compute   — the pipeline runs at most once per distinct
//	                      key across the whole schedule, crashes
//	                      included: total executions over all server
//	                      generations equals the number of distinct keys
//	                      ever completed.
//
// This extends PR 2's singleflight test and PR 3's recovery tests from
// single-fault scenarios to thousands of seeded whole schedules, all
// under -race. The scheduler keeps a virtual clock (logical ticks, no
// wall time) so a failing schedule's event log reads as a reproducible
// timeline; rerunning the same seed replays the same schedule.

// simUploads builds the distinct upload requests the scheduler submits.
// Deliberately tiny traces (2 ranks × 2 iterations) keep one pipeline
// execution in the microsecond range so thousands of schedules fit in
// the test budget.
func simUploads(t *testing.T) []JobRequest {
	t.Helper()
	enc := func(tr *trace.Trace) string {
		var sb strings.Builder
		if err := trace.Write(&sb, tr); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	reqs := make([]JobRequest, 3)
	for i := range reqs {
		reqs[i] = JobRequest{
			Traces: []string{
				enc(oracle.GenTraces(uint64(100+i), fmt.Sprintf("u%da", i), 2, 2, 2+i%2)),
				enc(oracle.GenTraces(uint64(200+i), fmt.Sprintf("u%db", i), 2, 2, 2+i%2)),
			},
			Config: &ConfigSpec{Eps: 0.07, MinPts: 3},
		}
	}
	return reqs
}

// simSchedule is the state of one seeded schedule run.
type simSchedule struct {
	t    *testing.T
	seed uint64
	rng  *rand.Rand
	dir  string
	cfg  Config
	srv  *Server
	reqs []JobRequest

	clock     int64 // virtual time: one tick per scheduler event
	execPrior uint64
	pending   []*Job
	results   map[string][]byte // key -> first observed result bytes
	log       []string
}

func (s *simSchedule) tick(format string, args ...any) {
	s.clock++
	s.log = append(s.log, fmt.Sprintf("t=%03d %s", s.clock, fmt.Sprintf(format, args...)))
}

func (s *simSchedule) fail(format string, args ...any) {
	s.t.Helper()
	s.t.Fatalf("schedule seed %d:\n  %s\nevent log:\n  %s",
		s.seed, fmt.Sprintf(format, args...), strings.Join(s.log, "\n  "))
}

// submit issues one request, draining once and retrying if the bounded
// queue pushes back (the documented 429 client protocol).
func (s *simSchedule) submit(ri int) *Job {
	j, _, err := s.srv.Submit(s.reqs[ri])
	if err == ErrQueueFull {
		s.tick("queue full, draining")
		s.drain()
		j, _, err = s.srv.Submit(s.reqs[ri])
	}
	if err != nil {
		s.fail("submit req %d: %v", ri, err)
	}
	return j
}

// record verifies a terminal job and folds its result into the ledger.
func (s *simSchedule) record(j *Job) {
	result, state, errMsg := s.srv.Result(j)
	if state != StateDone {
		s.fail("job %s (key %.8s) state %s: %s", j.ID, j.Key, state, errMsg)
	}
	if prev, ok := s.results[j.Key]; ok {
		if !bytes.Equal(prev, result) {
			s.fail("key %.8s returned different bytes than first completion", j.Key)
		}
	} else {
		s.results[j.Key] = result
	}
}

// drain waits out all pending jobs and checks the global no-double-
// compute invariant at the quiescent point.
func (s *simSchedule) drain() {
	for _, j := range s.pending {
		if err := s.srv.Wait(context.Background(), j); err != nil {
			s.fail("wait: %v", err)
		}
		s.record(j)
	}
	s.pending = s.pending[:0]
	total := s.execPrior + s.srv.m.jobsExecuted.Value()
	if total != uint64(len(s.results)) {
		s.fail("executions %d != distinct completed keys %d (lost or double-computed work)",
			total, len(s.results))
	}
}

// crashRestart shuts the server down (durable state only survives via
// the store) and brings up a fresh one over the same directory, then
// proves no completed result was lost: every known key must resolve
// instantly, as a hit, with identical bytes.
func (s *simSchedule) crashRestart() {
	s.drain()
	s.execPrior += s.srv.m.jobsExecuted.Value()
	if err := s.srv.Shutdown(context.Background()); err != nil {
		s.fail("shutdown: %v", err)
	}
	srv, err := New(s.cfg)
	if err != nil {
		s.fail("restart: %v", err)
	}
	s.srv = srv
	s.tick("crash+restart (gen executions so far: %d)", s.execPrior)

	for ri := range s.reqs {
		j, _, err := s.srv.Submit(s.reqs[ri])
		if err != nil {
			s.fail("post-restart submit req %d: %v", ri, err)
		}
		if _, ok := s.results[j.Key]; !ok {
			// Never completed before the crash; it may legitimately
			// compute now.
			s.pending = append(s.pending, j)
			continue
		}
		select {
		case <-j.done:
		default:
			s.fail("key %.8s completed before crash but did not resolve instantly after restart", j.Key)
		}
		if !s.srv.View(j).CacheHit {
			s.fail("key %.8s resolved after restart but not marked as a hit", j.Key)
		}
		s.record(j)
	}
	s.drain()
}

func runSchedule(t *testing.T, seed uint64, baseDir string, reqs []JobRequest) {
	dir := filepath.Join(baseDir, fmt.Sprintf("s%d", seed))
	s := &simSchedule{
		t:    t,
		seed: seed,
		rng:  rand.New(rand.NewPCG(seed, 0x51a0)),
		dir:  dir,
		reqs: reqs,
		cfg: Config{
			Workers:    2,
			QueueDepth: 4,
			// A 2-entry cache in front of 3 keys forces evictions, so
			// schedules also exercise the store read-through path while
			// the server is up, not only across restarts.
			CacheMaxEntries: 2,
			StoreDir:        dir,
			StoreSyncEvery:  64,
		},
		results: map[string][]byte{},
	}
	srv, err := New(s.cfg)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	s.srv = srv
	defer func() {
		s.srv.Shutdown(context.Background())
		os.RemoveAll(dir)
	}()

	crashes := 0
	nOps := 6 + s.rng.IntN(6)
	for op := 0; op < nOps; op++ {
		ri := s.rng.IntN(len(s.reqs))
		switch k := s.rng.IntN(10); {
		case k < 4: // submit and wait
			s.tick("submit+wait req %d", ri)
			j := s.submit(ri)
			s.pending = append(s.pending, j)
			s.drain()
		case k < 7: // submit asynchronously, poll later
			s.tick("submit async req %d", ri)
			s.pending = append(s.pending, s.submit(ri))
		case k < 9: // concurrent duplicate burst
			s.tick("duplicate burst req %d", ri)
			s.drain()
			_, seen := s.results[keyOfReq(s, ri)]
			before := s.srv.m.jobsExecuted.Value()
			a := s.submit(ri)
			b := s.submit(ri)
			s.pending = append(s.pending, a, b)
			s.drain()
			delta := s.srv.m.jobsExecuted.Value() - before
			if seen && delta != 0 {
				s.fail("duplicate burst on completed key executed %d times", delta)
			}
			if !seen && delta != 1 {
				s.fail("duplicate burst on fresh key executed %d times, want exactly 1", delta)
			}
			ra, _, _ := s.srv.Result(a)
			rb, _, _ := s.srv.Result(b)
			if !bytes.Equal(ra, rb) {
				s.fail("duplicate submissions returned different bytes")
			}
		default: // crash and restart
			if crashes >= 2 {
				s.tick("crash budget spent, submitting instead (req %d)", ri)
				s.pending = append(s.pending, s.submit(ri))
				continue
			}
			crashes++
			s.crashRestart()
		}
	}
	s.crashRestart() // final: drain, crash, prove everything survives
}

// keyOfReq returns the cache key of request ri as the server would
// compute it (resolve is deterministic).
func keyOfReq(s *simSchedule, ri int) string {
	spec, err := resolveThrough(s.reqs[ri], nil)
	if err != nil {
		s.fail("resolve req %d: %v", ri, err)
	}
	return spec.key
}

func TestDeterministicSimulationSchedules(t *testing.T) {
	schedules := uint64(1100)
	if testing.Short() {
		schedules = 120
	}
	base := t.TempDir()
	reqs := simUploads(t)
	for seed := uint64(0); seed < schedules; seed++ {
		runSchedule(t, seed, base, reqs)
	}
}
