package service

// Job-journal wiring: the durable half of the submission contract. When
// the store is enabled (and the journal not explicitly disabled), every
// new job is journaled as an intent BEFORE Submit returns — the 202 a
// client sees means "this job survives a crash". The intent is resolved
// once the result is appended to perfdb (done) or the job reaches a
// definitive error (fail); jobs interrupted by a crash or shutdown stay
// pending and are replayed by the next startup, which consults the
// store first so nothing already persisted is recomputed.

import (
	"encoding/json"
	"path/filepath"
	"time"

	"perftrack/internal/store"
)

type journalMetrics struct {
	replayed *Counter
	fsync    *Histogram
}

// openJournal opens the job journal next to the store and registers its
// metrics. Called from New after openStore.
func (s *Server) openJournal() error {
	r := s.reg
	s.jm = journalMetrics{
		replayed: r.NewCounter("trackd_journal_replayed_total", "Pending journal intents processed at startup (re-executed or deduplicated against the store)."),
		fsync:    r.NewHistogram("trackd_journal_fsync_seconds", "Latency of journal fsyncs.", nil),
	}
	j, err := s.openJournalIn("", func(d time.Duration) { s.jm.fsync.Observe(d.Seconds()) })
	if err != nil {
		return err
	}
	s.journal = j
	// j.Stats() is a snapshot read behind its own mutex — no directory
	// listing, no waiting behind the journal mutex the intent-fsync path
	// holds — so the per-gauge fan-out below costs a scrape nothing.
	r.NewGaugeFunc("trackd_journal_pending", "Unresolved journal intents (acknowledged jobs not yet stored or definitively failed).", func() int64 { return int64(j.Stats().Pending) })
	r.NewGaugeFunc("trackd_journal_bytes", "On-disk bytes of the active journal generation.", func() int64 { return j.Stats().Bytes })
	r.NewGaugeFunc("trackd_journal_appends", "Cumulative journal entries written since open.", func() int64 { return int64(j.Stats().Appends) })
	r.NewGaugeFunc("trackd_journal_fsyncs", "Cumulative journal fsyncs since open.", func() int64 { return int64(j.Stats().Fsyncs) })
	r.NewGaugeFunc("trackd_journal_compactions", "Cumulative journal compactions since open.", func() int64 { return int64(j.Stats().Compactions) })
	r.NewGaugeFunc("trackd_journal_truncations", "Torn bytes truncated off journal generations at open.", func() int64 { return j.Stats().TornTruncated })
	return nil
}

// openJournalIn opens a journal in the store subdirectory sub (""
// for the store directory itself) with the configured sync and
// compaction cadence on the store's filesystem. The job, stream and
// mesh hand-off journals all open through here.
func (s *Server) openJournalIn(sub string, onFsync func(time.Duration)) (*store.Journal, error) {
	return store.OpenJournal(filepath.Join(s.cfg.StoreDir, sub), store.JournalOptions{
		SyncEvery:    s.cfg.JournalSyncEvery,
		CompactEvery: s.cfg.JournalCompactEvery,
		OnFsync:      onFsync,
		FS:           s.cfg.StoreFS,
	})
}

// Journal exposes the job journal (nil when disabled). Tests and the
// chaos harness use it to inspect durability state.
func (s *Server) Journal() *store.Journal { return s.journal }

// resolveJournal marks a finished job's intent done or failed. Called
// WITHOUT the server mutex (the journal fsyncs). Reading j.journaled
// here without the lock is race-free because the flag is set only
// before the job is published to the queue and inflight table, and
// never written afterwards.
func (s *Server) resolveJournal(j *Job, errMsg string, ok bool) {
	if s.journal == nil || !j.journaled {
		return
	}
	s.journal.Resolve(j.Key, errMsg, ok)
}

// replay processes the pending intents recovered from the journal, in
// journal order. Each intent is deduplicated against the persistent
// store (a result that landed before the crash is not recomputed — the
// "no fingerprint computed twice" half of the recovery invariant) and
// otherwise resubmitted through the normal queue. replayDone closes
// once every replayed job reaches a terminal state; /readyz reports 503
// until then.
func (s *Server) replay(pending []store.PendingIntent) {
	defer close(s.replayDone)
	var waits []*Job
	for _, p := range pending {
		s.jm.replayed.Inc()
		if j := s.replayIntent(p); j != nil {
			waits = append(waits, j)
		}
	}
	for _, j := range waits {
		select {
		case <-j.done:
		case <-s.rootCtx.Done():
			return
		}
	}
}

// replayIntent resubmits one journaled intent. It returns the job to
// wait on, or nil when there is none (a found result, undecodable
// payload, fingerprint mismatch, or shutdown).
func (s *Server) replayIntent(p store.PendingIntent) *Job {
	var req JobRequest
	if err := json.Unmarshal(p.Payload, &req); err != nil {
		s.journal.Resolve(p.Key, "replay: undecodable intent: "+err.Error(), false)
		return nil
	}
	spec, err := resolveThrough(req, s.tcache)
	if err != nil {
		s.journal.Resolve(p.Key, "replay: "+err.Error(), false)
		return nil
	}
	if spec.key != p.Key {
		// A journal written by a different fingerprint scheme (or a
		// corrupted-but-CRC-valid payload): executing it would store the
		// result under a key nobody asked for. Fail it definitively.
		s.journal.Resolve(p.Key, "replay: fingerprint mismatch", false)
		return nil
	}

	// The same lookup and placement as Submit. A hit settles the intent
	// (done when the result is durable; an in-flight job resolves the
	// shared per-key intent itself), and in cluster mode placement
	// re-routes through the mesh: the key may be owned elsewhere (or have
	// been re-owned by a rebalance while this node was down), and the
	// owner's singleflight keeps the recovered job exactly-once
	// cluster-wide.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	if h := s.lookupLocked(spec); h.done || h.running != nil {
		s.mu.Unlock()
		s.settleIntent(p.Key, h.durable)
		return h.running
	}
	j, _ := s.placeLocked(spec, false, p.Payload, true)
	s.mu.Unlock()
	if j.owner == "" {
		// Replay must not drop acknowledged work on a full queue: it
		// waits for capacity (or shutdown, which cancels the job).
		s.enqueueWait(j)
	}
	return j
}
