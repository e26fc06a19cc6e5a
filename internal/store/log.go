package store

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"perftrack/internal/faults"
)

// segLog is the one on-disk mechanism under perfdb and the job journal:
// a directory of numbered files (<prefix>NNNNNN<suffix>) of CRC-framed
// records (record.go). It lists and scans the files in id order,
// truncates the newest file's torn tail at open, appends to the newest
// file with heal-on-failure, fsyncs and rolls to the next file on
// request, and rewrites itself into a single fresh file for journal
// compaction. It never renames: rename is the operation the fault
// injector shows to be non-atomic on hostile filesystems. Several logs
// with different prefixes or suffixes share one directory without
// seeing each other's files. Callers serialise access.
type segLog struct {
	fs             faults.FS
	dir            string
	prefix, suffix string
	onFsync        func(time.Duration)

	sizes    map[int]int64 // file id -> intact byte size
	active   faults.File   // newest file, opened for append (nil until opened)
	activeID int
	synced   int64 // durable prefix of the active file
	dirty    int   // appends since the last fsync
	readers  map[int]faults.File

	fsyncs, heals, corrupt uint64
	torn                   int64
}

func (l *segLog) path(id int) string {
	return filepath.Join(l.dir, fmt.Sprintf("%s%06d%s", l.prefix, id, l.suffix))
}

// openLog creates dir if missing and scans every file of the log in id
// order, passing each intact record with its location to visit. The
// newest file becomes the active one but is not opened for append yet:
// callers decide whether to continue it (openActive), start the next
// one (roll) or replace the log (rewrite).
func openLog(fsys faults.FS, dir, prefix, suffix string, onFsync func(time.Duration), visit func(Record, uint64, entry)) (*segLog, error) {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("creating %s: %w", dir, err)
	}
	l := &segLog{
		fs: fsys, dir: dir, prefix: prefix, suffix: suffix, onFsync: onFsync,
		sizes: map[int]int64{}, readers: map[int]faults.File{},
	}
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", dir, err)
	}
	var ids []int
	for _, de := range names {
		name := de.Name()
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
			continue
		}
		var id int
		if _, err := fmt.Sscanf(name, prefix+"%d"+suffix, &id); err != nil {
			continue
		}
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for i, id := range ids {
		if err := l.scan(id, i == len(ids)-1, visit); err != nil {
			return nil, err
		}
		l.activeID = id
	}
	l.synced = l.size()
	return l, nil
}

// scan walks one file. Scanning stops at the first invalid record: for
// the newest file the tail beyond that point is truncated away (crash
// recovery); in an older file the remainder is counted corrupt and
// skipped.
func (l *segLog) scan(id int, newest bool, visit func(Record, uint64, entry)) error {
	path := l.path(id)
	f, err := l.fs.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return fmt.Errorf("opening %s: %w", path, err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	r := io.NewSectionReader(f, 0, fi.Size())
	var off int64
	for {
		rec, seq, n, err := readRecord(r)
		if err == io.EOF {
			break
		}
		if err != nil {
			if newest {
				// Torn or trailing-corrupt tail after a crash: cut it off
				// so the file ends at the last intact record.
				f.Close()
				if err := l.fs.Truncate(path, off); err != nil {
					return fmt.Errorf("truncating torn tail of %s: %w", path, err)
				}
				l.torn += fi.Size() - off
				l.sizes[id] = off
				return nil
			}
			l.corrupt++
			off = fi.Size()
			break
		}
		visit(rec, seq, entry{seg: id, off: off, size: n})
		off += n
	}
	f.Close()
	l.sizes[id] = off
	return nil
}

// size is the intact byte size of the active file.
func (l *segLog) size() int64 { return l.sizes[l.activeID] }

// openActive opens (or creates) the active file for append.
func (l *segLog) openActive() error {
	if _, ok := l.sizes[l.activeID]; !ok {
		l.sizes[l.activeID] = 0
	}
	f, err := l.fs.OpenFile(l.path(l.activeID), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("opening %s: %w", l.path(l.activeID), err)
	}
	l.active = f
	return nil
}

// roll closes the active file and starts the next one. When the open
// fails the log is left without an active file, and the next append
// retries the open.
func (l *segLog) roll() error {
	var err error
	if l.active != nil {
		err = l.active.Close()
		l.active = nil
	}
	l.activeID++
	l.synced, l.dirty = 0, 0
	if oerr := l.openActive(); err == nil {
		err = oerr
	}
	return err
}

// append writes one framed record to the active file and returns where
// it landed. A failed write may leave a torn frame behind, so the file
// is healed before the error is reported and the next append never
// lands behind garbage bytes.
func (l *segLog) append(buf []byte) (int, int64, error) {
	if l.active == nil {
		// A previous heal or roll could not open the next file (e.g.
		// transient ENOSPC); retry here.
		if err := l.openActive(); err != nil {
			return 0, 0, err
		}
	}
	id, off := l.activeID, l.size()
	if _, err := l.active.Write(buf); err != nil {
		l.heal(off)
		return 0, 0, err
	}
	l.sizes[id] = off + int64(len(buf))
	l.dirty++
	return id, off, nil
}

// heal recovers the active file after a failed append that may have
// persisted a torn frame at offset off. Preferred cure: truncate the
// file back to off — the O_APPEND handle then continues exactly where
// the last intact record ended. If even the truncate fails (the
// injectors model disks where everything is failing), the file is
// sealed at its intact prefix and the next one started, so the torn
// bytes are left behind a boundary the scanner never crosses mid-file.
func (l *segLog) heal(off int64) {
	l.heals++
	l.sizes[l.activeID] = off
	if l.fs.Truncate(l.path(l.activeID), off) == nil {
		return
	}
	l.active.Sync()
	l.roll() // on failure the next append retries the open
}

// fsync syncs f, counting the fsync and reporting its latency.
func (l *segLog) fsync(f faults.File) error {
	t0 := time.Now()
	if err := f.Sync(); err != nil {
		return err
	}
	l.fsyncs++
	if l.onFsync != nil {
		l.onFsync(time.Since(t0))
	}
	return nil
}

// sync fsyncs the active file and advances the durable mark.
func (l *segLog) sync() error {
	if l.active == nil {
		return nil
	}
	if err := l.fsync(l.active); err != nil {
		return fmt.Errorf("fsync: %w", err)
	}
	l.synced, l.dirty = l.size(), 0
	return nil
}

// rewrite replaces the log with one new file holding frames: the file is
// written under the next id and fsynced, adopted as the active file, and
// only then are the older files deleted. A crash at any point leaves the
// old files, both, or just the new one; a failed write or fsync removes
// the half-written file and leaves the log as it was.
func (l *segLog) rewrite(frames [][]byte) error {
	id := l.activeID + 1
	path := l.path(id)
	f, err := l.fs.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	var written int64
	for _, fr := range frames {
		if _, err = f.Write(fr); err != nil {
			break
		}
		written += int64(len(fr))
	}
	if err == nil {
		if err = l.fsync(f); err != nil {
			err = fmt.Errorf("fsync: %w", err)
		}
	}
	f.Close()
	if err != nil {
		l.fs.Remove(path)
		return err
	}

	// The append handle must be an O_APPEND reopen, not the O_TRUNC
	// handle used to write the file: heal truncates a failed partial
	// append back to the intact prefix, and a non-append handle's offset
	// would stay past the new end — the next write would then punch a
	// zero-filled hole that recovery reads as the end of the log,
	// silently dropping every record after it.
	if l.active != nil {
		l.active.Close()
		l.active = nil
	}
	l.activeID = id
	l.sizes[id] = written
	l.synced, l.dirty = written, 0
	// The new file is durable whether or not the reopen succeeds; on
	// failure the next append retries the open.
	_ = l.openActive()
	for old := range l.sizes {
		if old < id && l.fs.Remove(l.path(old)) == nil {
			delete(l.sizes, old)
		}
	}
	return nil
}

// read decodes the record at e, opening a read handle for its file
// lazily.
func (l *segLog) read(e entry) (Record, error) {
	f, ok := l.readers[e.seg]
	if !ok {
		var err error
		if f, err = l.fs.OpenFile(l.path(e.seg), os.O_RDONLY, 0); err != nil {
			return Record{}, err
		}
		l.readers[e.seg] = f
	}
	rec, _, _, err := readRecord(io.NewSectionReader(f, e.off, e.size))
	return rec, err
}

// close releases every file handle without syncing.
func (l *segLog) close() error {
	var first error
	if l.active != nil {
		first = l.active.Close()
		l.active = nil
	}
	for _, f := range l.readers {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	l.readers = nil
	return first
}
