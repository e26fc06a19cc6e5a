package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"

	"perftrack/internal/faults"
)

// The on-disk file names are part of the format: a store and a journal
// sharing one directory tell their files apart by them.
func segName(id int) string { return fmt.Sprintf("perfdb-%06d.seg", id) }
func genName(id int) string { return fmt.Sprintf("journal-%06d.wal", id) }

// TestRotatedSegmentKeepsFS: every segment after a rotation must be
// opened through Options.FS, so injected fsync and write faults keep
// reaching Append.
func TestRotatedSegmentKeepsFS(t *testing.T) {
	for _, tc := range []struct {
		name  string
		arm   func(*faults.FSFaults)
		fired func(faults.FSReport) int
	}{
		{"fsync", func(f *faults.FSFaults) { f.SyncFailEveryN = 1 }, func(r faults.FSReport) int { return r.SyncErrors }},
		{"write", func(f *faults.FSFaults) { f.ShortWriteEveryN = 1 }, func(r faults.FSReport) int { return r.ShortWrites }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ffs := faults.NewFaultFS(faults.FSFaults{})
			s := mustOpen(t, t.TempDir(), Options{MaxSegmentBytes: 256, SyncEvery: 1, FS: ffs})
			defer s.Close()
			for i := 0; s.Stats().Segments < 2; i++ {
				if i == 20 {
					t.Fatal("no rotation after 20 appends with a 256-byte bound")
				}
				if err := s.Append(rec(i, "rot")); err != nil {
					t.Fatal(err)
				}
			}
			tc.arm(&ffs.Faults)
			if err := s.Append(rec(100, "rot")); err == nil {
				t.Fatal("append on the rotated segment succeeded despite an injected fault")
			}
			if tc.fired(ffs.Report()) == 0 {
				t.Fatal("injected fault never reached the rotated segment")
			}
		})
	}
}

// failOpenFS refuses to open one path for append while armed.
type failOpenFS struct {
	faults.OS
	path  string
	armed *bool
}

func (f failOpenFS) OpenFile(path string, flag int, perm os.FileMode) (faults.File, error) {
	if *f.armed && path == f.path && flag&os.O_APPEND != 0 {
		return nil, syscall.ENOSPC
	}
	return f.OS.OpenFile(path, flag, perm)
}

// TestRotationOpenFailureRetries: when the next segment cannot be opened
// during a rotation, the failure is reported and no closed handle is
// left as the active segment; the next Append retries the open and
// lands in the new segment.
func TestRotationOpenFailureRetries(t *testing.T) {
	dir := t.TempDir()
	armed := true
	s := mustOpen(t, dir, Options{MaxSegmentBytes: 256, SyncEvery: 1,
		FS: failOpenFS{path: filepath.Join(dir, segName(1)), armed: &armed}})
	var err error
	n := 0
	for ; err == nil && n < 20; n++ {
		err = s.Append(rec(n, "roll"))
	}
	if err == nil {
		t.Fatal("rotation into an unopenable segment reported no error")
	}
	armed = false
	if err := s.Append(rec(n, "roll")); err != nil {
		t.Fatalf("append after the failed rotation: %v", err)
	}
	s.Close()

	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	if got := len(s2.List()); got != n+1 {
		t.Fatalf("reopen found %d records, want %d", got, n+1)
	}
	if fi, err := os.Stat(filepath.Join(dir, segName(1))); err != nil || fi.Size() == 0 {
		t.Fatalf("retried append did not land in the next segment: %v", err)
	}
}

// hugeHeader is a frame header claiming a maxBodyBytes body that never
// arrives.
func hugeHeader() []byte {
	return binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, maxBodyBytes), 0)
}

// logSeeds seeds the raw-byte fuzz targets: valid frames, a torn tail,
// a journal entry mix, and the 1 GiB header alone and after valid
// frames.
func logSeeds(f *testing.F) {
	var valid []byte
	for i := 0; i < 3; i++ {
		valid = EncodeFrame(valid, rec(i, "fuzz"), uint64(i+1))
	}
	var entries []byte
	for i, e := range []Record{
		{Key: "a", Series: entryIntent, Payload: []byte("{}")},
		{Key: "b", Series: entryIntent},
		{Key: "a", Series: entryDone},
	} {
		entries = EncodeFrame(entries, e, uint64(i+1))
	}
	f.Add([]byte{})
	f.Add(valid)
	f.Add(valid[:len(valid)-5])
	f.Add(entries)
	f.Add(hugeHeader())
	f.Add(append(append([]byte(nil), valid...), hugeHeader()...))
}

// validPrefix is the byte length of the longest prefix of data made of
// whole valid frames.
func validPrefix(data []byte) int64 {
	r := bytes.NewReader(data)
	var n int64
	for {
		if _, _, err := ReadFrame(r); err != nil {
			return n
		}
		n = int64(len(data) - r.Len())
	}
}

// noSyncFS skips fsync: the fuzz targets check content, not durability,
// and fsync would dominate their run time.
type noSyncFS struct{ faults.OS }

func (noSyncFS) OpenFile(path string, flag int, perm os.FileMode) (faults.File, error) {
	f, err := os.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return noSyncFile{f}, nil
}

type noSyncFile struct{ *os.File }

func (noSyncFile) Sync() error { return nil }

// FuzzLogOpen writes arbitrary bytes as a store segment and as a journal
// generation. Open and OpenJournal must never fail on content, must cut
// the file back to its longest valid record prefix, and a second open
// must truncate nothing and see the same records.
func FuzzLogOpen(f *testing.F) {
	logSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		torn := int64(len(data)) - validPrefix(data)

		dir := t.TempDir()
		seg := filepath.Join(dir, segName(0))
		if err := os.WriteFile(seg, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s := mustOpen(t, dir, Options{FS: noSyncFS{}})
		metas, st := s.List(), s.Stats()
		s.Close()
		if st.TornTruncated != torn {
			t.Fatalf("store truncated %d bytes, want %d", st.TornTruncated, torn)
		}
		if fi, err := os.Stat(seg); err != nil || fi.Size() != int64(len(data))-torn {
			t.Fatalf("segment not cut to its valid prefix: %v", err)
		}
		s2 := mustOpen(t, dir, Options{FS: noSyncFS{}})
		if got := s2.Stats().TornTruncated; got != 0 {
			t.Fatalf("second store open truncated %d bytes", got)
		}
		if !reflect.DeepEqual(s2.List(), metas) {
			t.Fatalf("second store open sees %v, first saw %v", s2.List(), metas)
		}
		s2.Close()

		jdir := t.TempDir()
		if err := os.WriteFile(filepath.Join(jdir, genName(0)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		j := mustOpenJournal(t, jdir, JournalOptions{FS: noSyncFS{}})
		pending, jst := j.Pending(), j.Stats()
		j.Close()
		if jst.TornTruncated != torn {
			t.Fatalf("journal truncated %d bytes, want %d", jst.TornTruncated, torn)
		}
		j2 := mustOpenJournal(t, jdir, JournalOptions{FS: noSyncFS{}})
		defer j2.Close()
		if got := j2.Stats().TornTruncated; got != 0 {
			t.Fatalf("second journal open truncated %d bytes", got)
		}
		if !reflect.DeepEqual(j2.Pending(), pending) {
			t.Fatalf("second journal open sees %v, first saw %v", j2.Pending(), pending)
		}
	})
}
