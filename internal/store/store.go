// Package store is perfdb: a durable, content-addressed, append-only
// result store. trackd keeps its in-memory LRU for hot results, but every
// completed analysis is also appended here, so a daemon restart loses
// nothing and series of runs accumulate into the history the trajectory
// engine mines.
//
// Layout: a directory of segment files (perfdb-NNNNNN.seg) holding
// length-prefixed, CRC-checked records (see record.go). Writes only ever
// append to the newest segment; when it exceeds the size bound a new one
// is started. The in-memory index (key -> newest record location) is
// rebuilt by scanning the segments at open; a torn tail — the result of a
// crash mid-append — is truncated away rather than treated as fatal, so
// the store recovers exactly the prefix of intact records. Appending the
// same key again supersedes the older record, which stays on disk. The
// file discipline itself — listing, scanning, healing, fsync and
// rotation — is the segment log shared with the job journal (log.go).
//
// Durability is batched: appends accumulate and fsync runs every
// SyncEvery records (or on Sync/Close), trading a bounded window of
// recent results against fsync-per-write latency. The trackd cache sits
// in front as a read-through layer, so the hot path never touches disk.
package store

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"perftrack/internal/faults"
)

// Options parametrises Open.
type Options struct {
	// MaxSegmentBytes bounds each segment file; the active segment rolls
	// over once it exceeds this (default 64 MiB).
	MaxSegmentBytes int64
	// SyncEvery batches fsync: the active segment is synced after this
	// many appends (default 8; 1 = sync every append).
	SyncEvery int
	// OnFsync, when set, observes the latency of every fsync (metrics
	// hook).
	OnFsync func(time.Duration)
	// FS is the filesystem the store operates on (default the real one).
	// Tests plug in faults.FaultFS here to exercise short writes, fsync
	// errors, ENOSPC and torn renames under the store.
	FS faults.FS
}

func (o Options) withDefaults() Options {
	if o.MaxSegmentBytes <= 0 {
		o.MaxSegmentBytes = 64 << 20
	}
	if o.SyncEvery <= 0 {
		o.SyncEvery = 8
	}
	if o.FS == nil {
		o.FS = faults.OS{}
	}
	return o
}

// Stats is a snapshot of the store's state and cumulative activity.
type Stats struct {
	// Records is the number of live (non-superseded) records.
	Records int
	// Segments is the number of segment files.
	Segments int
	// Bytes is the total on-disk size of all segments.
	Bytes int64
	// Appends and Fsyncs count cumulative operations since open.
	Appends uint64
	Fsyncs  uint64
	// Superseded counts records replaced by a newer append to the same
	// key; their bytes stay on disk.
	Superseded uint64
	// CorruptDropped counts records dropped at open because their CRC or
	// structure was invalid; TornTruncated counts bytes cut off the tail
	// of the newest segment after a crash mid-append.
	CorruptDropped uint64
	TornTruncated  int64
	// WriteHeals counts failed appends whose torn bytes were cut back
	// off the active segment (or sealed behind a rotation) so later
	// appends never land behind garbage.
	WriteHeals uint64
}

// entry locates one live record.
type entry struct {
	seg  int // segment id
	off  int64
	size int64 // framed size on disk
	meta Meta
}

// Store is an open perfdb directory. All methods are safe for concurrent
// use.
type Store struct {
	opts Options

	mu     sync.Mutex
	log    *segLog
	seq    uint64
	index  map[string]entry
	stats  Stats
	closed bool
}

// Open scans dir (created if missing), rebuilds the index, truncates any
// torn tail off the newest segment, and readies the store for appends.
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	s := &Store{opts: opts, index: map[string]entry{}}
	l, err := openLog(opts.FS, dir, "perfdb-", ".seg", opts.OnFsync, s.indexRecord)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s.log = l
	// The newest scanned segment continues to fill until it crosses the
	// size bound.
	if l.size() >= opts.MaxSegmentBytes {
		err = l.roll()
	} else {
		err = l.openActive()
	}
	if err != nil {
		l.close()
		return nil, fmt.Errorf("store: %w", err)
	}
	return s, nil
}

// indexRecord folds one scanned or appended record into the index,
// superseding older sequence numbers.
func (s *Store) indexRecord(rec Record, seq uint64, at entry) {
	if seq > s.seq {
		s.seq = seq
	}
	at.meta = Meta{
		Key: rec.Key, Series: rec.Series, Label: rec.Label,
		UnixNano: rec.UnixNano, Seq: seq, Size: len(rec.Payload),
	}
	if old, ok := s.index[rec.Key]; ok {
		if old.meta.Seq >= seq {
			return // stale duplicate
		}
		s.stats.Superseded++
	}
	s.index[rec.Key] = at
}

// Append durably stores rec, superseding any earlier record with the same
// key. The write lands in the active segment immediately; fsync is
// batched per Options.SyncEvery.
func (s *Store) Append(rec Record) error {
	if rec.Key == "" {
		return fmt.Errorf("store: record without key")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	s.seq++
	seq := s.seq
	buf := encodeRecord(nil, rec, seq)
	id, off, err := s.log.append(buf)
	if err != nil {
		return fmt.Errorf("store: appending: %w", err)
	}
	s.indexRecord(rec, seq, entry{seg: id, off: off, size: int64(len(buf))})
	s.stats.Appends++

	if s.log.dirty >= s.opts.SyncEvery {
		if err := s.syncLocked(); err != nil {
			return err
		}
	}
	if s.log.size() >= s.opts.MaxSegmentBytes {
		if err := s.syncLocked(); err != nil {
			return err
		}
		if err := s.log.roll(); err != nil {
			return fmt.Errorf("store: rotating segment: %w", err)
		}
	}
	return nil
}

// syncLocked fsyncs the active segment if it holds unsynced appends;
// callers hold s.mu.
func (s *Store) syncLocked() error {
	if s.log.dirty == 0 {
		return nil
	}
	if err := s.log.sync(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// Sync forces any batched appends to disk.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.syncLocked()
}

// Get returns the newest payload stored under key.
func (s *Store) Get(key string) ([]byte, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.index[key]
	if !ok {
		return nil, false, nil
	}
	rec, err := s.readAtLocked(e)
	if err != nil {
		return nil, false, err
	}
	return rec.Payload, true, nil
}

// GetMeta returns the index entry for key without touching the payload.
func (s *Store) GetMeta(key string) (Meta, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.index[key]
	return e.meta, ok
}

// readAtLocked decodes the record at e; callers hold s.mu. Batched writes
// may not be synced yet, but they are visible to reads: the data is in
// the file (or page cache) as soon as Append returns.
func (s *Store) readAtLocked(e entry) (Record, error) {
	rec, err := s.log.read(e)
	if err != nil {
		return Record{}, fmt.Errorf("store: record at seg %d off %d: %w", e.seg, e.off, err)
	}
	return rec, nil
}

// List returns the metadata of every live record, oldest append first.
func (s *Store) List() []Meta {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Meta, 0, len(s.index))
	for _, e := range s.index {
		out = append(out, e.meta)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Series returns the live records belonging to the named series, oldest
// append first — the input the trajectory engine chains over.
func (s *Store) Series(name string) []Meta {
	all := s.List()
	out := all[:0:0]
	for _, m := range all {
		if m.Series == name {
			out = append(out, m)
		}
	}
	return out
}

// SeriesNames returns the distinct non-empty series names present.
func (s *Store) SeriesNames() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	seen := map[string]bool{}
	for _, e := range s.index {
		if e.meta.Series != "" {
			seen[e.meta.Series] = true
		}
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ResolveKey resolves a possibly abbreviated key: an exact match wins,
// otherwise a unique prefix of a live key.
func (s *Store) ResolveKey(prefix string) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.index[prefix]; ok {
		return prefix, nil
	}
	var found string
	for k := range s.index {
		if strings.HasPrefix(k, prefix) {
			if found != "" {
				return "", fmt.Errorf("store: key prefix %q is ambiguous", prefix)
			}
			found = k
		}
	}
	if found == "" {
		return "", fmt.Errorf("store: no result with key %q", prefix)
	}
	return found, nil
}

// Stats snapshots the store state.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Records = len(s.index)
	st.Fsyncs = s.log.fsyncs
	st.CorruptDropped = s.log.corrupt
	st.TornTruncated = s.log.torn
	st.WriteHeals = s.log.heals
	st.Segments = len(s.log.sizes)
	for _, sz := range s.log.sizes {
		st.Bytes += sz
	}
	return st
}

// Close syncs and releases every file handle. The store is unusable
// afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	first := s.syncLocked()
	if err := s.log.close(); err != nil && first == nil {
		first = err
	}
	return first
}
