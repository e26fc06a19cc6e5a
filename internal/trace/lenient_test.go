package trace

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// encodeSample serialises the shared sample trace.
func encodeSample(t *testing.T) string {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, sampleTrace()); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// injectBadLines splices malformed records into an encoded trace after
// the header, returning the new text and the count of injected lines.
func injectBadLines(enc string, bad ...string) string {
	lines := strings.Split(enc, "\n")
	// Insert after the #counters header so the bad lines sit between
	// valid burst records.
	for i, l := range lines {
		if strings.HasPrefix(l, "#counters") {
			rest := append([]string{}, lines[i+1:]...)
			return strings.Join(append(append(lines[:i+1:i+1], bad...), rest...), "\n")
		}
	}
	return enc
}

func TestLenientQuarantinesBadLines(t *testing.T) {
	enc := injectBadLines(encodeSample(t),
		"B 0 0 nonsense",             // invalid start field
		"Z what is this",             // unrecognised record
		"B 9 0 0 10 f f.c 1 0 1 2 3", // short counter vector
	)
	tr, diag, err := ReadWith(strings.NewReader(enc), DecodeOptions{Strict: false})
	if err != nil {
		t.Fatalf("lenient decode failed: %v", err)
	}
	if len(tr.Bursts) != len(sampleTrace().Bursts) {
		t.Errorf("want %d healthy bursts, got %d", len(sampleTrace().Bursts), len(tr.Bursts))
	}
	if diag.Skipped() != 3 {
		t.Fatalf("want 3 quarantined lines, got %d: %+v", diag.Skipped(), diag.BadLines)
	}
	// Line numbers are 1-based positions in the actual input.
	if diag.BadLines[0].Line != 5 || diag.BadLines[2].Line != 7 {
		t.Errorf("bad line numbers: %+v", diag.BadLines)
	}
	if !strings.Contains(diag.BadLines[0].Reason, "start") {
		t.Errorf("first reason should name the start field: %q", diag.BadLines[0].Reason)
	}
	if !strings.Contains(diag.BadLines[2].Reason, "counter") {
		t.Errorf("third reason should name the counter field: %q", diag.BadLines[2].Reason)
	}
	if s := diag.Summary(); !strings.Contains(s, "skipped 3") {
		t.Errorf("summary: %q", s)
	}
}

func TestStrictErrorNamesLineAndField(t *testing.T) {
	enc := injectBadLines(encodeSample(t), "B 0 0 12 oops f f.c 1 0 1 2 3 4 5 6")
	_, err := readStrict(strings.NewReader(enc))
	if err == nil {
		t.Fatal("strict decode accepted a malformed duration")
	}
	msg := err.Error()
	if !strings.Contains(msg, "line 5") {
		t.Errorf("error should carry the line number: %q", msg)
	}
	if !strings.Contains(msg, "duration") || !strings.Contains(msg, `"oops"`) {
		t.Errorf("error should name the offending field and token: %q", msg)
	}
}

func TestMaxBadLines(t *testing.T) {
	enc := injectBadLines(encodeSample(t), "junk 1", "junk 2", "junk 3")
	_, diag, err := ReadWith(strings.NewReader(enc), DecodeOptions{MaxBadLines: 2})
	if err == nil {
		t.Fatal("want an error past MaxBadLines")
	}
	if !strings.Contains(err.Error(), "giving up") {
		t.Errorf("error: %v", err)
	}
	if diag.Skipped() != 3 {
		t.Errorf("diagnostics should still list the bad lines seen: %d", diag.Skipped())
	}
	// Unlimited tolerance is the zero value.
	_, diag, err = ReadWith(strings.NewReader(enc), DecodeOptions{})
	if err != nil || diag.Skipped() != 3 {
		t.Errorf("unlimited lenient decode: err=%v skipped=%d", err, diag.Skipped())
	}
}

func TestMissingHeader(t *testing.T) {
	enc := encodeSample(t)
	noMagic := strings.Join(strings.Split(enc, "\n")[1:], "\n")
	if _, err := readStrict(strings.NewReader(noMagic)); err == nil {
		t.Error("strict decode accepted a header-less trace")
	}
	tr, diag, err := ReadWith(strings.NewReader(noMagic), DecodeOptions{})
	if err != nil {
		t.Fatalf("lenient decode failed: %v", err)
	}
	if !diag.MissingHeader {
		t.Error("diagnostics should flag the missing header")
	}
	if len(tr.Bursts) != len(sampleTrace().Bursts) {
		t.Errorf("bursts should still parse: got %d", len(tr.Bursts))
	}
	if s := diag.Summary(); !strings.Contains(s, "missing #PERFTRACK header") {
		t.Errorf("summary: %q", s)
	}
}

// failWriter fails every write after the first n bytes.
type failWriter struct {
	n       int
	written int
}

var errDiskFull = errors.New("disk full")

func (w *failWriter) Write(p []byte) (int, error) {
	if w.written+len(p) > w.n {
		can := w.n - w.written
		if can < 0 {
			can = 0
		}
		w.written += can
		return can, errDiskFull
	}
	w.written += len(p)
	return len(p), nil
}

func TestWritePropagatesErrors(t *testing.T) {
	// A trace big enough to overflow bufio's 4KB buffer mid-body, plus a
	// limit small enough to also fail during the header flush: every
	// write site must surface the error.
	big := sampleTrace()
	for i := 0; i < 500; i++ {
		big.Bursts = append(big.Bursts, burst(i%4, int64(i)*1000, 500, "f", 1, 1))
	}
	for _, limit := range []int{0, 10, 4096, 8192} {
		err := Write(&failWriter{n: limit}, big)
		if !errors.Is(err, errDiskFull) {
			t.Errorf("limit %d: want disk-full error, got %v", limit, err)
		}
	}
	// Sanity: an unbounded writer succeeds.
	if err := Write(&bytes.Buffer{}, big); err != nil {
		t.Errorf("unbounded write failed: %v", err)
	}
}
