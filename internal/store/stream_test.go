package store

import (
	"bytes"
	"errors"
	"io"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
)

func openStreamTestStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(filepath.Join(t.TempDir(), "db"), Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestStreamRoundTrip(t *testing.T) {
	recs := []Record{
		{Key: "aaa", Series: "s1", Label: "r1", UnixNano: 100, Payload: []byte(`{"a":1}`)},
		{Key: "bbb", Series: "s1", Label: "r2", UnixNano: 200, Payload: []byte(`{"b":2}`)},
		{Key: "ccc", Label: "r3", UnixNano: 300, Payload: []byte(`{"c":3}`)},
	}
	var buf bytes.Buffer
	for i, r := range recs {
		buf.Write(EncodeFrame(nil, r, uint64(i+1)))
	}

	dst := openStreamTestStore(t)
	applied, skipped, err := dst.ImportFrames(bytes.NewReader(buf.Bytes()))
	if err != nil || applied != 3 || skipped != 0 {
		t.Fatalf("ImportFrames = %d applied, %d skipped, %v", applied, skipped, err)
	}
	for _, r := range recs {
		got, ok, err := dst.Get(r.Key)
		if err != nil || !ok || !bytes.Equal(got, r.Payload) {
			t.Fatalf("Get(%s) after import = %q, %v, %v", r.Key, got, ok, err)
		}
		m, _ := dst.GetMeta(r.Key)
		if m.Series != r.Series || m.Label != r.Label || m.UnixNano != r.UnixNano {
			t.Fatalf("meta mismatch after import: %+v vs %+v", m, r)
		}
	}

	// Re-importing the same stream is a no-op: idempotent replication.
	applied, skipped, err = dst.ImportFrames(bytes.NewReader(buf.Bytes()))
	if err != nil || applied != 0 || skipped != 3 {
		t.Fatalf("re-import = %d applied, %d skipped, %v", applied, skipped, err)
	}
}

func TestImportSupersede(t *testing.T) {
	dst := openStreamTestStore(t)
	if err := dst.Append(Record{Key: "k", UnixNano: 500, Payload: []byte("new")}); err != nil {
		t.Fatal(err)
	}
	// Older copy arriving late (e.g. rebalance retry) must not clobber.
	if ok, err := dst.ImportRecord(Record{Key: "k", UnixNano: 100, Payload: []byte("old")}); ok || err != nil {
		t.Fatalf("stale import applied: %v, %v", ok, err)
	}
	if got, _, _ := dst.Get("k"); string(got) != "new" {
		t.Fatalf("payload clobbered by stale import: %q", got)
	}
	// Same-time re-delivery is also a skip.
	if ok, _ := dst.ImportRecord(Record{Key: "k", UnixNano: 500, Payload: []byte("new")}); ok {
		t.Fatal("same-time re-delivery applied")
	}
	// A genuinely newer copy supersedes.
	if ok, err := dst.ImportRecord(Record{Key: "k", UnixNano: 900, Payload: []byte("newer")}); !ok || err != nil {
		t.Fatalf("newer import skipped: %v, %v", ok, err)
	}
	if got, _, _ := dst.Get("k"); string(got) != "newer" {
		t.Fatalf("newer import not visible: %q", got)
	}
}

func TestImportBadFrame(t *testing.T) {
	var buf bytes.Buffer
	good := EncodeFrame(nil, Record{Key: "ok", UnixNano: 1, Payload: []byte("p")}, 1)
	buf.Write(good)
	bad := EncodeFrame(nil, Record{Key: "bad", UnixNano: 2, Payload: []byte("q")}, 2)
	bad[len(bad)-1] ^= 0xff // corrupt the payload under the CRC
	buf.Write(bad)

	dst := openStreamTestStore(t)
	applied, _, err := dst.ImportFrames(&buf)
	if !errors.Is(err, ErrBadFrame) {
		t.Fatalf("corrupt frame error = %v, want ErrBadFrame", err)
	}
	if applied != 1 {
		t.Fatalf("frames before the corruption: applied = %d, want 1", applied)
	}
	if _, ok, _ := dst.Get("ok"); !ok {
		t.Fatal("good frame before corruption was not applied")
	}

	// A truncated stream (cut mid-frame) is also ErrBadFrame, not EOF.
	if _, _, err := ReadFrame(bytes.NewReader(good[:len(good)-3])); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("truncated frame error = %v, want ErrBadFrame", err)
	}
	if _, _, err := ReadFrame(bytes.NewReader(nil)); err != io.EOF {
		t.Fatalf("empty stream = %v, want io.EOF", err)
	}
}

// streamOnly hides the length a bytes.Reader knows, so ReadFrame sees a
// network-like stream of unknown size.
type streamOnly struct{ io.Reader }

// TestImportFramesHugeHeaderAllocation: a frame header claiming a 1 GiB
// body followed by nothing must cost memory in proportion to the bytes
// that arrived, not to the length it claims.
func TestImportFramesHugeHeaderAllocation(t *testing.T) {
	dst := openStreamTestStore(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := dst.ImportFrames(streamOnly{bytes.NewReader(hugeHeader())})
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrBadFrame) {
		t.Fatalf("huge header error = %v, want ErrBadFrame", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("8-byte input allocated %d bytes", got)
	}
}

// FuzzImportFrames feeds raw bytes to the replication importer: it must
// never panic, must apply or skip exactly the valid leading frames, and a
// reopened store must hold exactly their keys.
func FuzzImportFrames(f *testing.F) {
	logSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		want := map[string]bool{}
		frames := 0
		r := bytes.NewReader(data)
		for {
			rec, _, err := ReadFrame(r)
			if err != nil || rec.Key == "" {
				break
			}
			want[rec.Key] = true
			frames++
		}

		dir := filepath.Join(t.TempDir(), "db")
		s := mustOpen(t, dir, Options{FS: noSyncFS{}})
		applied, skipped, _ := s.ImportFrames(streamOnly{bytes.NewReader(data)})
		s.Close()
		if applied+skipped != frames {
			t.Fatalf("applied %d + skipped %d, want %d valid leading frames", applied, skipped, frames)
		}
		s2 := mustOpen(t, dir, Options{FS: noSyncFS{}})
		defer s2.Close()
		got := map[string]bool{}
		for _, m := range s2.List() {
			got[m.Key] = true
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("reopened store holds %v, want %v", got, want)
		}
	})
}
