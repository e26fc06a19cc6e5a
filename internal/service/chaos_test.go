package service

// Chaos simulation: seeded whole-lifetime schedules that combine every
// fault the robustness layer defends against — hard crashes without
// draining, torn journal tails (truncation anywhere at or beyond the
// durable mark), and filesystem fault injection (short writes, fsync
// errors) under the store and journal — across several server
// generations over one directory. Two invariants hold throughout:
//
//	durability  — every acknowledged submission (Submit returned nil
//	              while the journal was on, so its intent fsynced)
//	              yields exactly one stored result after the final
//	              fault-free recovery, byte-identical to what any
//	              earlier generation served;
//	idempotence — within one server generation, a key executes at most
//	              1 + (persist failures for that key) times: replay and
//	              resubmission deduplicate against the cache, the
//	              inflight table and the store, and only a result that
//	              failed to persist may be recomputed.
//
// The per-generation bound is the honest refinement of "no fingerprint
// computed twice": losing a batched resolution or a persist means the
// *next* generation must recompute — that is the recovery working — but
// nothing may compute twice without a persist failure explaining it.
//
// Schedules are deterministic per seed: rerunning a seed replays the
// same interleaving decisions, and the event log of a failing schedule
// reads as a timeline.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"perftrack/internal/faults"
	"perftrack/internal/store"
)

// chaosRun is one seeded schedule's state across server generations.
type chaosRun struct {
	t    *testing.T
	seed uint64
	rng  *rand.Rand
	dir  string
	reqs []JobRequest

	srv *Server
	gen int

	// Hook-fed per-generation counters (workers call the hooks
	// concurrently).
	hookMu      sync.Mutex
	exec        map[string]int
	persistFail map[string]int

	// Cross-generation truth.
	acked   map[string]bool   // keys whose 202 was backed by a durable intent
	results map[string][]byte // key -> first observed result bytes
	pending []*Job
	clock   int64
	log     []string
}

func (c *chaosRun) tick(format string, args ...any) {
	c.clock++
	c.log = append(c.log, fmt.Sprintf("t=%03d g%d %s", c.clock, c.gen, fmt.Sprintf(format, args...)))
}

func (c *chaosRun) fail(format string, args ...any) {
	c.t.Helper()
	c.t.Fatalf("chaos seed %d:\n  %s\nevent log:\n  %s",
		c.seed, fmt.Sprintf(format, args...), strings.Join(c.log, "\n  "))
}

// startGen boots a server generation over the shared directory. Non-final
// generations may run on a faulty filesystem; the final one never does,
// so the closing verification measures what recovery salvaged, not what
// the injector is currently breaking.
func (c *chaosRun) startGen(faulted bool) {
	c.hookMu.Lock()
	c.exec = map[string]int{}
	c.persistFail = map[string]int{}
	c.hookMu.Unlock()

	cfg := Config{
		Workers:    2,
		QueueDepth: 4,
		// 2-entry cache over 3 keys: evictions force the store
		// read-through (and, after a persist failure, a legitimate
		// recompute) paths mid-generation.
		CacheMaxEntries:  2,
		StoreDir:         c.dir,
		StoreSyncEvery:   1,
		JournalSyncEvery: 1 + c.rng.IntN(8),
		// No mid-run compaction: the crash simulator cuts the active
		// generation file, and compaction swapping files under the
		// snapshot would retarget the cut. Open-time compaction still
		// collapses history every generation.
		JournalCompactEvery: 1 << 20,
		StoreRetries:        2,
		RetryBase:           time.Millisecond,
		RetryMax:            2 * time.Millisecond,
		BreakerThreshold:    3,
		BreakerCooldown:     2 * time.Millisecond,
		testExecHook: func(key string) {
			c.hookMu.Lock()
			c.exec[key]++
			c.hookMu.Unlock()
		},
		testPersistHook: func(key string, err error) {
			if err == nil {
				return
			}
			c.hookMu.Lock()
			c.persistFail[key]++
			c.hookMu.Unlock()
		},
	}
	if faulted {
		cfg.StoreFS = faults.NewFaultFS(faults.FSFaults{
			ShortWriteEveryN: 7 + c.rng.IntN(13),
			SyncFailEveryN:   5 + c.rng.IntN(13),
			TornRename:       true, // nothing may depend on rename atomicity
		})
		c.tick("boot (faulty fs)")
	} else {
		c.tick("boot")
	}
	srv, err := New(cfg)
	if err != nil && faulted {
		// The injector broke recovery itself (e.g. the open-time
		// compaction fsync): a crash at boot. Reboot on a healthy disk —
		// nothing durable may have been lost.
		c.tick("boot failed under faults (%v), retrying clean", err)
		cfg.StoreFS = nil
		srv, err = New(cfg)
	}
	if err != nil {
		c.fail("boot: %v", err)
	}
	c.srv = srv
	c.waitReplayed()
}

// waitReplayed blocks until startup replay drove every recovered intent
// to a terminal state. (Not Readyz: a generation may legitimately end
// degraded with a breaker open, which only a probe success clears.)
func (c *chaosRun) waitReplayed() {
	select {
	case <-c.srv.replayDone:
	case <-time.After(30 * time.Second):
		c.fail("startup replay did not finish")
	}
}

// submit issues request ri, tolerating backpressure (429) and degraded
// refusals (503) — both documented client outcomes, neither an ack.
func (c *chaosRun) submit(ri int) {
	j, _, err := c.srv.Submit(c.reqs[ri])
	switch {
	case err == nil:
		c.acked[j.Key] = true
		c.pending = append(c.pending, j)
	case err == ErrQueueFull:
		c.tick("req %d rejected: queue full", ri)
	case isDegraded(err):
		c.tick("req %d refused: degraded", ri)
		time.Sleep(3 * time.Millisecond) // let the breaker cool down
	default:
		c.fail("submit req %d: %v", ri, err)
	}
}

func isDegraded(err error) bool {
	return err != nil && strings.Contains(err.Error(), ErrDegraded.Error())
}

// drain waits out all pending jobs, records their results against the
// ledger, and checks the per-generation execution bound.
func (c *chaosRun) drain() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, j := range c.pending {
		if err := c.srv.Wait(ctx, j); err != nil {
			c.fail("wait %.8s: %v", j.Key, err)
		}
		c.record(j, true)
	}
	c.pending = c.pending[:0]
	c.checkExecBound()
}

// record folds one terminal job into the ledger. requireDone fails on
// anything but a completed job; a hard crash passes false because its
// jobs may legitimately end canceled.
func (c *chaosRun) record(j *Job, requireDone bool) {
	result, state, errMsg := c.srv.Result(j)
	if state != StateDone {
		if requireDone {
			c.fail("job for key %.8s: state %s: %s", j.Key, state, errMsg)
		}
		return
	}
	if prev, ok := c.results[j.Key]; ok {
		if !bytes.Equal(prev, result) {
			c.fail("key %.8s returned different bytes than its first completion", j.Key)
		}
	} else {
		c.results[j.Key] = result
	}
}

// checkExecBound enforces the per-generation idempotence invariant.
func (c *chaosRun) checkExecBound() {
	c.hookMu.Lock()
	defer c.hookMu.Unlock()
	for key, n := range c.exec {
		if n > 1+c.persistFail[key] {
			c.fail("key %.8s executed %d times this generation with %d persist failures (bound is 1+failures)",
				key, n, c.persistFail[key])
		}
	}
}

// crash ends the generation. clean drains first (every job terminal,
// resolutions appended); hard shuts down with work still queued or
// running, leaving those intents pending. Either way the journal may
// then be torn: truncated at a point at or beyond the durable mark of
// the active generation — exactly the region a real crash can lose.
func (c *chaosRun) crash(clean bool) {
	if clean {
		c.drain()
		c.tick("clean shutdown")
	} else {
		c.tick("hard crash with %d jobs in flight", len(c.pending))
	}
	st := c.srv.journal.Stats()
	if err := c.srv.Shutdown(context.Background()); err != nil {
		// A faulty-fs generation may fail its closing fsync; the torn
		// state left behind is the point of the exercise.
		c.tick("shutdown error absorbed: %v", err)
	}
	if !clean {
		for _, j := range c.pending {
			<-j.done // Shutdown resolved every job one way or the other
			c.record(j, false)
		}
		c.pending = c.pending[:0]
		c.checkExecBound()
	}
	if c.rng.IntN(2) == 0 {
		c.tear(st)
	}
}

// tear truncates the journal generation that was active at the stats
// snapshot to a random length in [SyncedBytes, size]: everything past
// the durable mark is fair game, everything before it — every
// acknowledged intent — must survive.
func (c *chaosRun) tear(st store.JournalStats) {
	path := filepath.Join(c.dir, fmt.Sprintf("journal-%06d.wal", st.ActiveGen))
	fi, err := os.Stat(path)
	if err != nil || fi.Size() <= st.SyncedBytes {
		return
	}
	cut := st.SyncedBytes + c.rng.Int64N(fi.Size()-st.SyncedBytes+1)
	if err := os.Truncate(path, cut); err != nil {
		c.fail("tearing journal: %v", err)
	}
	c.tick("journal torn: %d -> %d bytes (durable mark %d)", fi.Size(), cut, st.SyncedBytes)
}

// finalVerify boots the last, fault-free generation's closing check:
// every acknowledged key must be in the store with ledger-identical
// bytes, and resubmitting it must resolve instantly without recompute.
func (c *chaosRun) finalVerify() {
	c.drain()
	keyOf := make(map[string]int, len(c.reqs))
	for ri := range c.reqs {
		spec, err := resolveThrough(c.reqs[ri], nil)
		if err != nil {
			c.fail("resolve req %d: %v", ri, err)
		}
		keyOf[spec.key] = ri
	}
	for key := range c.acked {
		payload, ok, err := c.srv.store.Get(key)
		if err != nil || !ok {
			c.fail("acked key %.8s missing from the store after recovery (err %v)", key, err)
		}
		if prev, seen := c.results[key]; seen && !bytes.Equal(prev, payload) {
			c.fail("acked key %.8s stored with different bytes than it served", key)
		}
		j, _, err := c.srv.Submit(c.reqs[keyOf[key]])
		if err != nil {
			c.fail("final resubmit of %.8s: %v", key, err)
		}
		select {
		case <-j.done:
		default:
			c.fail("acked key %.8s did not resolve instantly after recovery", key)
		}
		result, state, errMsg := c.srv.Result(j)
		if state != StateDone {
			c.fail("final resubmit of %.8s: state %s: %s", key, state, errMsg)
		}
		if !bytes.Equal(result, payload) {
			c.fail("final resubmit of %.8s served different bytes than the store holds", key)
		}
	}
	if got := c.srv.journal.Stats().Pending; got != 0 {
		c.fail("journal still has %d pending intents after full recovery", got)
	}
	c.checkExecBound()
}

func runChaosSchedule(t *testing.T, seed uint64, baseDir string, reqs []JobRequest) {
	c := &chaosRun{
		t:       t,
		seed:    seed,
		rng:     rand.New(rand.NewPCG(seed, 0xc4a0)),
		dir:     filepath.Join(baseDir, fmt.Sprintf("c%d", seed)),
		reqs:    reqs,
		acked:   map[string]bool{},
		results: map[string][]byte{},
	}
	defer func() {
		if c.srv != nil {
			c.srv.Shutdown(context.Background())
		}
		os.RemoveAll(c.dir)
	}()

	nGens := 2 + c.rng.IntN(3)
	for c.gen = 0; c.gen < nGens; c.gen++ {
		final := c.gen == nGens-1
		c.startGen(!final && c.rng.IntN(2) == 0)
		nOps := 2 + c.rng.IntN(5)
		for op := 0; op < nOps; op++ {
			ri := c.rng.IntN(len(c.reqs))
			switch k := c.rng.IntN(10); {
			case k < 4: // submit and wait
				c.tick("submit+wait req %d", ri)
				c.submit(ri)
				c.drain()
			case k < 7: // submit asynchronously
				c.tick("submit async req %d", ri)
				c.submit(ri)
			case k < 9: // duplicate burst
				c.tick("duplicate burst req %d", ri)
				c.submit(ri)
				c.submit(ri)
			default: // overload: slam the queue until it pushes back
				c.tick("overload burst")
				for i := 0; i < 8; i++ {
					c.submit(c.rng.IntN(len(c.reqs)))
				}
			}
		}
		if final {
			c.finalVerify()
			c.srv.Shutdown(context.Background())
			c.srv = nil
		} else {
			c.crash(c.rng.IntN(2) == 0)
			c.srv = nil
		}
	}
}

// TestChaosSchedules runs the seeded crash/fault/overload schedules.
// 500 seeds in full mode satisfies the robustness acceptance bar; short
// mode keeps a representative sample.
func TestChaosSchedules(t *testing.T) {
	seeds := uint64(500)
	if testing.Short() {
		seeds = 60
	}
	base := t.TempDir()
	reqs := simUploads(t)
	for seed := uint64(0); seed < seeds; seed++ {
		runChaosSchedule(t, seed, base, reqs)
	}
}

// ---- replay latency bound ----

// nosyncFS strips fsync so the test can build a large journal quickly;
// the file contents are complete after Close, which is all replay reads.
type nosyncFS struct{ faults.OS }

func (fs nosyncFS) OpenFile(path string, flag int, perm os.FileMode) (faults.File, error) {
	f, err := fs.OS.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return nosyncFile{f}, nil
}

type nosyncFile struct{ faults.File }

func (nosyncFile) Sync() error { return nil }

// TestJournalReplayBound: a 10k-entry journal — resolved history plus a
// handful of pending intents whose results are already stored — must
// replay to readiness in under a second, without recomputing anything.
func TestJournalReplayBound(t *testing.T) {
	dir := t.TempDir()
	reqs := simUploads(t)
	cfg := Config{Workers: 2, StoreDir: dir, StoreSyncEvery: 64}

	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, len(reqs))
	for i, req := range reqs {
		j, _, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		s.Wait(context.Background(), j)
		if _, state, msg := s.Result(j); state != StateDone {
			t.Fatalf("seed job %d: %s %s", i, state, msg)
		}
		keys[i] = j.Key
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Grow the journal to 10k entries: resolved intent/done pairs (the
	// bulk of any long-lived daemon's journal between compactions) plus
	// real pending intents for the three stored keys.
	jn, err := store.OpenJournal(dir, store.JournalOptions{
		SyncEvery: 1 << 20, CompactEvery: 1 << 20, FS: nosyncFS{},
	})
	if err != nil {
		t.Fatal(err)
	}
	entries := 0
	for i := 0; entries < 10_000-len(reqs); i++ {
		key := fmt.Sprintf("resolved-%06d", i)
		if err := jn.Intent(key, []byte(`{}`)); err != nil {
			t.Fatal(err)
		}
		if err := jn.Resolve(key, "", true); err != nil {
			t.Fatal(err)
		}
		entries += 2
	}
	for i, req := range reqs {
		payload, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if err := jn.Intent(keys[i], payload); err != nil {
			t.Fatal(err)
		}
		entries++
	}
	if err := jn.Close(); err != nil {
		t.Fatal(err)
	}
	t.Logf("journal built: %d entries", entries)

	var execs atomic.Int64
	cfg2 := cfg
	cfg2.testExecHook = func(string) { execs.Add(1) }
	t0 := time.Now()
	s2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Shutdown(context.Background())
	select {
	case <-s2.replayDone:
	case <-time.After(10 * time.Second):
		t.Fatal("replay never finished")
	}
	elapsed := time.Since(t0)
	if elapsed > time.Second {
		t.Fatalf("replaying a %d-entry journal took %v, bound is 1s", entries, elapsed)
	}
	if n := execs.Load(); n != 0 {
		t.Fatalf("replay recomputed %d stored results", n)
	}
	if got := s2.journal.Stats().Pending; got != 0 {
		t.Fatalf("journal pending %d after replay", got)
	}
	for _, key := range keys {
		if _, ok, _ := s2.store.Get(key); !ok {
			t.Fatalf("key %.8s missing after replay", key)
		}
	}
	t.Logf("replayed %d entries in %v", entries, elapsed)
}
