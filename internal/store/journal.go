package store

// The job journal: trackd's write-ahead log. A job is journaled as an
// *intent* before the HTTP 202 is returned — the intent fsyncs
// immediately, so an acknowledged job survives any crash — and is
// *resolved* (done or fail) once its result lands in perfdb or it
// reaches a definitive error. On startup the service replays unresolved
// intents, consulting the store first so nothing already persisted is
// recomputed.
//
// The on-disk discipline is the segment log the store itself runs on
// (log.go): CRC-framed records (record.go), sequential scan, torn-tail
// truncation, heal-on-failed-append. The journal adds only its pending
// map and the intent/resolve/compaction policy on top. Entries reuse the
// Record frame with the Series field carrying the entry type
// ("intent"/"done"/"fail"), Label carrying a fail's error message, and
// Payload carrying the serialized job request.
//
// Instead of one growing file, the journal keeps *generation* files
// (journal-NNNNNN.wal). Compaction never renames or rewrites in place —
// rename is exactly the operation the fault injector shows to be
// non-atomic on hostile filesystems. It writes the still-pending intents
// into a brand-new generation, fsyncs it, and only then deletes the old
// files. Recovery unions all generations in id order, so a crash at any
// point of compaction leaves either the old files, both (harmless
// duplicate intents; resolutions still apply), or just the new one.
//
// Durability contract: Intent returns nil only after its bytes are
// fsynced. Resolutions batch (SyncEvery) — losing a tail of resolutions
// re-replays jobs whose results are already stored, which replay
// deduplicates against the store.

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"perftrack/internal/faults"
)

const (
	entryIntent = "intent"
	entryDone   = "done"
	entryFail   = "fail"
)

// JournalOptions parametrises OpenJournal.
type JournalOptions struct {
	// SyncEvery batches resolution fsyncs (default 8). Intents always
	// sync immediately; only done/fail entries batch.
	SyncEvery int
	// CompactEvery triggers compaction after this many resolutions
	// (default 512).
	CompactEvery int
	// OnFsync, when set, observes every fsync latency (metrics hook).
	OnFsync func(time.Duration)
	// FS is the filesystem (default the real one); tests plug in
	// faults.FaultFS.
	FS faults.FS
	// Now supplies timestamps (default time.Now); the deterministic
	// simulations pin it.
	Now func() time.Time
}

func (o JournalOptions) withDefaults() JournalOptions {
	if o.SyncEvery <= 0 {
		o.SyncEvery = 8
	}
	if o.CompactEvery <= 0 {
		o.CompactEvery = 512
	}
	if o.FS == nil {
		o.FS = faults.OS{}
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// PendingIntent is one journaled job awaiting resolution.
type PendingIntent struct {
	Key      string
	Payload  []byte
	Seq      uint64
	UnixNano int64
}

// JournalStats snapshots the journal's state and cumulative activity.
type JournalStats struct {
	// Pending is the number of unresolved intents.
	Pending int
	// Generations is the number of on-disk generation files.
	Generations int
	// ActiveGen is the id of the generation currently appended to.
	ActiveGen int
	// Bytes is the size of the active generation; SyncedBytes the prefix
	// of it known durable (crash simulations may truncate anywhere at or
	// beyond SyncedBytes, never before).
	Bytes       int64
	SyncedBytes int64
	// Appends counts intents + resolutions written; Fsyncs, Compactions
	// and WriteHeals cumulative operations.
	Appends     uint64
	Fsyncs      uint64
	Compactions uint64
	WriteHeals  uint64
	// TornTruncated counts bytes cut off generation tails at open;
	// CorruptDropped counts unreadable mid-file regions skipped.
	TornTruncated  int64
	CorruptDropped uint64
}

// Journal is an open job journal. Safe for concurrent use.
type Journal struct {
	opts JournalOptions

	mu       sync.Mutex
	log      *segLog
	seq      uint64
	pending  map[string]PendingIntent
	resolved int // resolutions since the last compaction
	stats    JournalStats
	closed   bool

	// statsMu guards statsSnap, the read-side copy of the journal state.
	// j.mu is held across fsyncs, so Stats readers (metrics scrapes,
	// health snapshots) get their own mutex and never queue behind the
	// intent fsync path. statsSnap is republished, with j.mu held, at the
	// end of every mutating operation.
	statsMu   sync.Mutex
	statsSnap JournalStats
}

// publishLocked refreshes the read-side stats snapshot; callers hold j.mu.
func (j *Journal) publishLocked() {
	st := j.stats
	st.Pending = len(j.pending)
	st.ActiveGen = j.log.activeID
	st.Bytes = j.log.size()
	st.SyncedBytes = j.log.synced
	st.Generations = len(j.log.sizes)
	st.Fsyncs = j.log.fsyncs
	st.WriteHeals = j.log.heals
	st.TornTruncated = j.log.torn
	st.CorruptDropped = j.log.corrupt
	j.statsMu.Lock()
	j.statsSnap = st
	j.statsMu.Unlock()
}

// OpenJournal scans dir for journal generations, truncates any torn
// tail off the newest, unions intents and resolutions into the pending
// set, and compacts multi-generation state down to one fresh file.
func OpenJournal(dir string, opts JournalOptions) (*Journal, error) {
	opts = opts.withDefaults()
	j := &Journal{opts: opts, pending: map[string]PendingIntent{}}
	l, err := openLog(opts.FS, dir, "journal-", ".wal", opts.OnFsync, j.applyEntry)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	j.log = l
	// Collapse history into a single fresh generation: replay then needs
	// to look at exactly one file, and stale resolutions stop occupying
	// disk. Skipped only when there is nothing to collapse.
	if len(l.sizes) > 1 || l.size() > 0 {
		err = j.compactLocked()
	} else if err = l.openActive(); err != nil {
		err = fmt.Errorf("journal: %w", err)
	}
	if err != nil {
		return nil, err
	}
	j.publishLocked()
	return j, nil
}

// applyEntry folds one scanned entry into the pending set.
func (j *Journal) applyEntry(rec Record, seq uint64, _ entry) {
	if seq > j.seq {
		j.seq = seq
	}
	switch rec.Series {
	case entryIntent:
		// Keep the earliest intent for a key (compaction duplicates and
		// resubmits after done both funnel through here; the payload is
		// identical for identical keys by construction).
		if _, ok := j.pending[rec.Key]; !ok {
			j.pending[rec.Key] = PendingIntent{
				Key: rec.Key, Payload: rec.Payload, Seq: seq, UnixNano: rec.UnixNano,
			}
		}
	case entryDone, entryFail:
		delete(j.pending, rec.Key)
	}
}

// appendLocked frames and writes one entry; the log heals the generation
// on a failed write.
func (j *Journal) appendLocked(typ, key, label string, payload []byte) error {
	j.seq++
	rec := Record{Key: key, Series: typ, Label: label, UnixNano: j.opts.Now().UnixNano(), Payload: payload}
	if _, _, err := j.log.append(encodeRecord(nil, rec, j.seq)); err != nil {
		return fmt.Errorf("journal: appending %s: %w", typ, err)
	}
	j.stats.Appends++
	return nil
}

// syncLocked fsyncs the active generation and advances the durable mark.
func (j *Journal) syncLocked() error {
	if err := j.log.sync(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}

// Intent durably journals a job before it is acknowledged: on nil
// return the intent is fsynced and will be replayed after any crash
// until resolved. payload is the serialized job request replay feeds
// back through submission.
func (j *Journal) Intent(key string, payload []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	defer j.publishLocked()
	if j.closed {
		return fmt.Errorf("journal: closed")
	}
	if err := j.appendLocked(entryIntent, key, "", payload); err != nil {
		return err
	}
	if err := j.syncLocked(); err != nil {
		// Written but not durable: the caller will refuse the job, so
		// balance the intent with a best-effort fail entry. If the crash
		// comes first, replay executes an unacknowledged job once —
		// harmless, the client never got its 202.
		j.pending[key] = PendingIntent{Key: key, Payload: payload, Seq: j.seq, UnixNano: j.opts.Now().UnixNano()}
		j.resolveLocked(key, "intent not durable", false)
		return err
	}
	j.pending[key] = PendingIntent{Key: key, Payload: payload, Seq: j.seq, UnixNano: j.opts.Now().UnixNano()}
	return nil
}

// Resolve marks an intent finished: ok=true once the result is stored
// in perfdb, ok=false with errMsg for a definitive failure. Resolution
// fsyncs are batched; a crash may replay a resolved job, which replay
// deduplicates against the store.
func (j *Journal) Resolve(key, errMsg string, ok bool) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	defer j.publishLocked()
	if j.closed {
		return fmt.Errorf("journal: closed")
	}
	return j.resolveLocked(key, errMsg, ok)
}

func (j *Journal) resolveLocked(key, errMsg string, ok bool) error {
	if _, exists := j.pending[key]; !exists {
		return nil // double resolve (e.g. replay raced a duplicate submit)
	}
	typ := entryDone
	if !ok {
		typ = entryFail
	}
	if err := j.appendLocked(typ, key, errMsg, nil); err != nil {
		return err
	}
	delete(j.pending, key)
	j.resolved++
	if j.log.dirty >= j.opts.SyncEvery {
		if err := j.syncLocked(); err != nil {
			return err
		}
	}
	if j.resolved >= j.opts.CompactEvery {
		return j.compactLocked()
	}
	return nil
}

// compactLocked rewrites the pending intents into a brand-new
// generation, fsyncs it, then deletes every older generation. A crash
// at any point leaves a recoverable union.
func (j *Journal) compactLocked() error {
	live := j.sortedPending()
	frames := make([][]byte, len(live))
	for i, p := range live {
		frames[i] = encodeRecord(nil, Record{
			Key: p.Key, Series: entryIntent, UnixNano: p.UnixNano, Payload: p.Payload,
		}, p.Seq)
	}
	if err := j.log.rewrite(frames); err != nil {
		return fmt.Errorf("journal: compact: %w", err)
	}
	j.resolved = 0
	j.stats.Compactions++
	return nil
}

// Pending returns the unresolved intents in journal order — the replay
// work list.
func (j *Journal) Pending() []PendingIntent {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.sortedPending()
}

func (j *Journal) sortedPending() []PendingIntent {
	out := make([]PendingIntent, 0, len(j.pending))
	for _, p := range j.pending {
		out = append(out, p)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Seq < out[b].Seq })
	return out
}

// Stats returns the journal state as of the last completed operation.
// It reads a snapshot behind its own mutex — no directory listing and
// no waiting behind j.mu, which is held across intent fsyncs — so
// metrics scrapes and health checks never stall on a slow disk.
func (j *Journal) Stats() JournalStats {
	j.statsMu.Lock()
	defer j.statsMu.Unlock()
	return j.statsSnap
}

// Sync forces batched resolutions to disk.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	defer j.publishLocked()
	if j.closed {
		return nil
	}
	return j.syncLocked()
}

// Close syncs and releases the journal. Pending intents stay on disk
// for the next open to replay.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	defer j.publishLocked()
	if j.closed {
		return nil
	}
	j.closed = true
	first := j.syncLocked()
	if err := j.log.close(); err != nil && first == nil {
		first = err
	}
	return first
}
