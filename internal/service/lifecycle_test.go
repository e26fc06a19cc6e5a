package service

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"perftrack/internal/mesh"
	"perftrack/internal/oracle"
	"perftrack/internal/trace"
)

// uploadReq is a small two-trace upload; seed varies the inputs (and so
// the key).
func uploadReq(t *testing.T, seed uint64) JobRequest {
	t.Helper()
	enc := func(seed uint64, name string) string {
		var sb strings.Builder
		if err := trace.Write(&sb, oracle.GenTraces(seed, name, 2, 2, 2)); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	return JobRequest{
		Traces: []string{enc(seed, fmt.Sprintf("rel%da", seed)), enc(seed+1000, fmt.Sprintf("rel%db", seed))},
		Config: &ConfigSpec{Eps: 0.07, MinPts: 3},
	}
}

// checkReleased asserts j ended in state want and no longer pins its
// decoded input traces.
func checkReleased(t *testing.T, s *Server, j *Job, want JobState) {
	t.Helper()
	waitDone(t, s, j)
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.state != want {
		t.Fatalf("job %s state %s (%s), want %s", j.ID, j.state, j.errMsg, want)
	}
	if j.spec.traces != nil {
		t.Fatalf("%s job %s still holds %d decoded traces", want, j.ID, len(j.spec.traces))
	}
}

// TestTerminalJobsReleaseTraces: every terminal transition drops the
// job's decoded upload, so the job table kept for status polls does not
// pin uploaded traces for the life of the process.
func TestTerminalJobsReleaseTraces(t *testing.T) {
	t.Run("done-and-cache-hit", func(t *testing.T) {
		s := newTest(t, Config{Workers: 1})
		defer shutdown(t, s)
		j, _, err := s.Submit(uploadReq(t, 1))
		if err != nil {
			t.Fatal(err)
		}
		checkReleased(t, s, j, StateDone)
		hit, _, err := s.Submit(uploadReq(t, 1))
		if err != nil {
			t.Fatal(err)
		}
		if !hit.cacheHit {
			t.Fatal("resubmission was not a cache hit")
		}
		checkReleased(t, s, hit, StateDone)
	})

	t.Run("failed", func(t *testing.T) {
		s := newTest(t, Config{Workers: 1, testExecHook: func(string) { panic("injected") }})
		defer shutdown(t, s)
		j, _, err := s.Submit(uploadReq(t, 2))
		if err != nil {
			t.Fatal(err)
		}
		checkReleased(t, s, j, StateFailed)
	})

	t.Run("canceled", func(t *testing.T) {
		s := newTest(t, Config{Workers: 1, QueueDepth: 4})
		s.testGate = make(chan struct{}) // never opened: the worker blocks until shutdown
		running, _, err := s.Submit(uploadReq(t, 3))
		if err != nil {
			t.Fatal(err)
		}
		queued, _, err := s.Submit(uploadReq(t, 4))
		if err != nil {
			t.Fatal(err)
		}
		shutdown(t, s)
		checkReleased(t, s, running, StateCanceled)
		checkReleased(t, s, queued, StateCanceled)
	})

	t.Run("forwarded", func(t *testing.T) {
		ids := []string{"na", "nb"}
		peers := []mesh.Peer{{ID: "na", URL: "http://na.mesh"}, {ID: "nb", URL: "http://nb.mesh"}}
		net := newClusterNet()
		dir := t.TempDir()
		srvs := make([]*Server, len(ids))
		for i, id := range ids {
			srv := newTest(t, Config{
				Workers:  1,
				StoreDir: filepath.Join(dir, id),
				Mesh:     mesh.Config{NodeID: id, Peers: peers, VNodes: 64, ProbeFailures: 1, Transport: net},
			})
			srvs[i] = srv
			net.setHandler(id, srv.Handler())
			defer srv.Shutdown(context.Background())
		}
		req, _ := reqOwnedBy(t, "nb", mesh.NewRing(ids, 64))
		j, _, err := srvs[0].Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		if j.owner != "nb" {
			t.Fatal("job owned by nb was not forwarded")
		}
		checkReleased(t, srvs[0], j, StateDone)
	})
}

// TestShutdownDrainObservesJobLatency: a job canceled while still queued
// reaches trackd_job_seconds like every other terminal job.
func TestShutdownDrainObservesJobLatency(t *testing.T) {
	s := newTest(t, Config{Workers: 1, QueueDepth: 4})
	s.testGate = make(chan struct{})
	for i := uint64(0); i < 2; i++ {
		if _, _, err := s.Submit(uploadReq(t, 10+i)); err != nil {
			t.Fatal(err)
		}
	}
	shutdown(t, s)
	if got := s.m.jobLatency.Count(); got != 2 {
		t.Fatalf("trackd_job_seconds observed %d jobs, want 2 (running + drained)", got)
	}
}
