package service

// Content-type sniffing at the service boundary and the convert-on-
// first-read trace cache: binary columnar bodies on /v1/jobs and stream
// appends, the equivalence of text and binary submissions of the same
// traces, and the cache hit/miss/poison lifecycle.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"perftrack/internal/apps"
	"perftrack/internal/mpisim"
	"perftrack/internal/trace"
)

// uploadPair simulates the synthetic study and returns its runs both as
// text strings and colbin encodings.
func uploadPair(t *testing.T) (texts []string, bins [][]byte) {
	t.Helper()
	st, err := apps.ByName("Synthetic")
	if err != nil {
		t.Fatal(err)
	}
	traces, err := mpisim.SimulateSeries(st.Runs)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range traces {
		var buf bytes.Buffer
		if err := trace.Write(&buf, tr); err != nil {
			t.Fatal(err)
		}
		texts = append(texts, buf.String())
		// Encode the PARSED text, not the in-memory trace: the text
		// writer canonicalises burst order, and the binary submission
		// must fingerprint identically to the text one.
		parsed, _, err := trace.ReadWith(bytes.NewReader(buf.Bytes()), trace.DecodeOptions{Strict: true})
		if err != nil {
			t.Fatal(err)
		}
		bins = append(bins, trace.EncodeColbin(parsed))
	}
	return texts, bins
}

// TestBinarySubmitMatchesText is the ingest equivalence contract: the
// same traces submitted as a JSON text upload and as a raw concatenated
// colbin body resolve to the same fingerprint, so the second submission
// is a content-addressed cache hit of the first.
func TestBinarySubmitMatchesText(t *testing.T) {
	texts, bins := uploadPair(t)
	s := newTest(t, Config{Workers: 2})
	defer shutdown(t, s)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	jsonBody, err := json.Marshal(JobRequest{Traces: texts})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(jsonBody))
	if err != nil {
		t.Fatal(err)
	}
	var textView JobView
	json.NewDecoder(resp.Body).Decode(&textView)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("text submit: %s", resp.Status)
	}

	var raw []byte
	for _, b := range bins {
		raw = append(raw, b...)
	}
	resp, err = http.Post(srv.URL+"/v1/jobs", "application/octet-stream", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var binView JobView
	json.NewDecoder(resp.Body).Decode(&binView)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		t.Fatalf("binary submit: %s", resp.Status)
	}
	if binView.Key != textView.Key {
		t.Fatalf("binary submission fingerprints %s, text %s — formats are not equivalent", binView.Key, textView.Key)
	}
	if got := s.m.jobsBinary.Value(); got != 1 {
		t.Fatalf("binary submissions counter %d, want 1", got)
	}

	// The TracesBin round trip through JSON (journal intents, mesh
	// forwarding) must preserve the key too.
	intent, err := json.Marshal(JobRequest{TracesBin: bins})
	if err != nil {
		t.Fatal(err)
	}
	var back JobRequest
	if err := json.Unmarshal(intent, &back); err != nil {
		t.Fatal(err)
	}
	spec, err := resolveThrough(back, nil)
	if err != nil {
		t.Fatal(err)
	}
	if spec.key != textView.Key {
		t.Fatalf("re-marshalled tracesBin fingerprints %s, want %s", spec.key, textView.Key)
	}
}

// TestTracesBinRejectsText: a JSON tracesBin entry must carry the colbin
// magic. Text belongs in traces, so a text payload there is a 400 even
// though the decoder underneath sniffs both formats.
func TestTracesBinRejectsText(t *testing.T) {
	texts, bins := uploadPair(t)
	s := newTest(t, Config{Workers: 1})
	defer shutdown(t, s)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	for _, lenient := range []bool{false, true} {
		for name, entries := range map[string][][]byte{
			"all text": {[]byte(texts[0]), []byte(texts[1])},
			"one text": {bins[0], []byte(texts[1])},
			"no magic": {bins[0], bins[1][len(trace.ColbinMagic):]},
		} {
			body, err := json.Marshal(JobRequest{TracesBin: entries, Lenient: lenient})
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s (lenient=%v): got %s, want 400", name, lenient, resp.Status)
			}
		}
	}
}

// TestSubmitBodySniffing pins the 4xx-vs-accept decisions at the job
// boundary for every body shape the sniffer distinguishes.
func TestSubmitBodySniffing(t *testing.T) {
	_, bins := uploadPair(t)
	s := newTest(t, Config{Workers: 1})
	defer shutdown(t, s)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	valid := append(append([]byte(nil), bins[0]...), bins[1]...)
	corruptMagic := append([]byte(nil), valid...)
	corruptMagic[6] ^= 0xFF // inside the magic: not colbin, not JSON
	torn := valid[:len(valid)-10]
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x01 // valid magic, broken section CRC

	cases := []struct {
		name string
		body []byte
		want []int
	}{
		{"valid binary", valid, []int{http.StatusOK, http.StatusAccepted}},
		{"corrupt magic", corruptMagic, []int{http.StatusBadRequest}},
		{"torn binary", torn, []int{http.StatusBadRequest}},
		{"crc broken binary", flipped, []int{http.StatusBadRequest}},
		{"empty body", nil, []int{http.StatusBadRequest}},
		{"garbage text", []byte("not json, not colbin"), []int{http.StatusBadRequest}},
		{"single binary trace", bins[0], []int{http.StatusBadRequest}}, // needs >= 2 traces or windows
	}
	for _, tc := range cases {
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/octet-stream", bytes.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		ok := false
		for _, w := range tc.want {
			ok = ok || resp.StatusCode == w
		}
		if !ok {
			t.Errorf("%s: got %s, want one of %v", tc.name, resp.Status, tc.want)
		}
	}

	// windows=N rides the query string on binary submissions.
	resp, err := http.Post(srv.URL+"/v1/jobs?windows=4", "application/octet-stream", bytes.NewReader(bins[0]))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		t.Errorf("single binary trace with ?windows=4: got %s, want accept", resp.Status)
	}
	resp, err = http.Post(srv.URL+"/v1/jobs?windows=bogus", "application/octet-stream", bytes.NewReader(bins[0]))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("windows=bogus: got %s, want 400", resp.Status)
	}
}

// TestStreamAppendSniffing drives the same format decisions on the
// stream ingest boundary: text chunks, binary chunks, corrupt binary,
// and empty bodies in strict and lenient mode.
func TestStreamAppendSniffing(t *testing.T) {
	texts, bins := uploadPair(t)
	s := newTest(t, Config{Workers: 1})
	defer shutdown(t, s)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/v1/streams", "application/json",
		strings.NewReader(`{"label":"sniff","window":{"countN":64}}`))
	if err != nil {
		t.Fatal(err)
	}
	var sv StreamView
	json.NewDecoder(resp.Body).Decode(&sv)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("stream create: %s", resp.Status)
	}
	appendURL := srv.URL + "/v1/streams/" + sv.ID + "/bursts"

	post := func(url string, body []byte) (int, StreamAppendResponse) {
		t.Helper()
		resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var ar StreamAppendResponse
		json.NewDecoder(resp.Body).Decode(&ar)
		resp.Body.Close()
		return resp.StatusCode, ar
	}

	if code, ar := post(appendURL, []byte(texts[0])); code != http.StatusOK || ar.Appended == 0 {
		t.Fatalf("text chunk: code %d, appended %d", code, ar.Appended)
	}
	code, ar := post(appendURL, bins[1])
	if code != http.StatusOK || ar.Appended == 0 {
		t.Fatalf("binary chunk: code %d, appended %d", code, ar.Appended)
	}

	corrupt := append([]byte(nil), bins[0]...)
	corrupt[len(corrupt)/2] ^= 0x10
	if code, _ := post(appendURL+"?strict=1", corrupt); code != http.StatusBadRequest {
		t.Errorf("strict corrupt binary chunk: code %d, want 400", code)
	}
	// Lenient mode may quarantine the damage instead, but must not 500.
	if code, _ := post(appendURL, corrupt); code != http.StatusOK && code != http.StatusBadRequest {
		t.Errorf("lenient corrupt binary chunk: code %d", code)
	}
	// An empty body is an empty lenient chunk (0 bursts) but a strict 400.
	if code, ar := post(appendURL, nil); code != http.StatusOK || ar.Appended != 0 {
		t.Errorf("lenient empty chunk: code %d appended %d", code, ar.Appended)
	}
	if code, _ := post(appendURL+"?strict=1", nil); code != http.StatusBadRequest {
		t.Errorf("strict empty chunk: code %d, want 400", code)
	}
}

// TestTraceCacheConvertOnFirstRead exercises the cache lifecycle end to
// end: first text submission converts and files the colbin entries,
// repeat submissions decode from them, and poisoned entries fall back to
// the text parse and are re-derived.
func TestTraceCacheConvertOnFirstRead(t *testing.T) {
	texts, _ := uploadPair(t)
	dir := t.TempDir()
	s := newTest(t, Config{Workers: 2, TraceCacheDir: dir})
	defer shutdown(t, s)

	submit := func(series string) {
		t.Helper()
		j, _, err := s.Submit(JobRequest{Traces: texts, Series: series})
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, s, j)
	}

	submit("")
	st := s.tcache.Stats()
	if st.Misses != int64(len(texts)) || st.Hits != 0 || st.Entries != len(texts) {
		t.Fatalf("after first submit: %+v", st)
	}

	// Same traces again (different series so the job itself is not an
	// instant result-cache short-circuit of resolve — though resolve
	// runs per submission regardless).
	submit("reread")
	st = s.tcache.Stats()
	if st.Hits != int64(len(texts)) {
		t.Fatalf("repeat submit did not hit the conversion cache: %+v", st)
	}

	// Poison every cached conversion: decode fails its CRC, the text
	// parse takes over, and the entries are re-derived.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	poisoned := 0
	for _, e := range ents {
		p := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(p)
		if err != nil || len(data) < 20 {
			continue
		}
		data[len(data)/2] ^= 0xFF
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		poisoned++
	}
	if poisoned == 0 {
		t.Fatal("no cache files found to poison")
	}
	submit("poisoned")
	st = s.tcache.Stats()
	if st.Rejected == 0 {
		t.Fatalf("poisoned entries were not rejected: %+v", st)
	}
	if st.Entries != len(texts) {
		t.Fatalf("poisoned entries were not re-derived: %+v", st)
	}

	// The rebuilt entries must decode again.
	submit("rebuilt")
	if st = s.tcache.Stats(); st.Hits < 2*int64(len(texts)) {
		t.Fatalf("rebuilt entries did not serve hits: %+v", st)
	}
}

// TestTraceCacheKeyedByMode: strict and lenient parses of the same bytes
// must never share a cache entry.
func TestTraceCacheKeyedByMode(t *testing.T) {
	texts, _ := uploadPair(t)
	dir := t.TempDir()
	s := newTest(t, Config{Workers: 2, TraceCacheDir: dir})
	defer shutdown(t, s)

	j, _, err := s.Submit(JobRequest{Traces: texts})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, j)
	j, _, err = s.Submit(JobRequest{Traces: texts, Lenient: true})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, j)
	if st := s.tcache.Stats(); st.Entries != 2*len(texts) {
		t.Fatalf("strict and lenient share entries: %+v", st)
	}
}

// withCraftedBlock returns a copy of the colbin encoding data with one
// extra burst block spliced in before the end marker, claiming 2^64-10
// bursts: a count that wraps negative if converted to int unchecked.
func withCraftedBlock(t *testing.T, data []byte) []byte {
	t.Helper()
	out := append([]byte(nil), data[:len(trace.ColbinMagic)]...)
	for off := len(trace.ColbinMagic); off < len(data); {
		bodyLen := int(binary.LittleEndian.Uint32(data[off:]))
		frame := data[off : off+8+bodyLen]
		if frame[8] == 'E' {
			body := []byte{'B', 0xf6, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}
			var hdr [8]byte
			binary.LittleEndian.PutUint32(hdr[:], uint32(len(body)))
			binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
			out = append(append(out, hdr[:]...), body...)
		}
		out = append(out, frame...)
		off += 8 + bodyLen
	}
	return out
}

// TestCraftedBlockCountRejected sends a colbin body whose block burst
// count overflows int to both ingest boundaries. Strict decoding must
// answer 400, lenient decoding may salvage but never 5xx, and the node
// must keep serving afterwards: the decoder once panicked on this input
// inside a worker goroutine, killing the process.
func TestCraftedBlockCountRejected(t *testing.T) {
	texts, bins := uploadPair(t)
	s := newTest(t, Config{Workers: 1})
	defer shutdown(t, s)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	crafted := append(append([]byte(nil), bins[0]...), withCraftedBlock(t, bins[1])...)
	if _, err := trace.DecodeColbin(withCraftedBlock(t, bins[1])); err == nil {
		t.Fatal("crafted block decoded cleanly; the test input is not exercising the bound")
	}
	post := func(url, ctype string, body []byte) int {
		t.Helper()
		resp, err := http.Post(url, ctype, bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v (node down?)", url, err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(srv.URL+"/v1/jobs", "application/octet-stream", crafted); code != http.StatusBadRequest {
		t.Errorf("strict job with crafted block: code %d, want 400", code)
	}
	if code := post(srv.URL+"/v1/jobs?lenient=true", "application/octet-stream", crafted); code >= 500 {
		t.Errorf("lenient job with crafted block: code %d, want no 5xx", code)
	}

	resp, err := http.Post(srv.URL+"/v1/streams", "application/json",
		strings.NewReader(`{"label":"crafted","window":{"countN":64}}`))
	if err != nil {
		t.Fatal(err)
	}
	var sv StreamView
	json.NewDecoder(resp.Body).Decode(&sv)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("stream create: %s", resp.Status)
	}
	appendURL := srv.URL + "/v1/streams/" + sv.ID + "/bursts"
	if code := post(appendURL+"?strict=1", "application/octet-stream", withCraftedBlock(t, bins[0])); code != http.StatusBadRequest {
		t.Errorf("strict stream append with crafted block: code %d, want 400", code)
	}
	if code := post(appendURL, "application/octet-stream", withCraftedBlock(t, bins[0])); code >= 500 {
		t.Errorf("lenient stream append with crafted block: code %d, want no 5xx", code)
	}

	// Still serving: a well-formed append and a well-formed job go through.
	if code := post(appendURL, "application/octet-stream", []byte(texts[1])); code != http.StatusOK {
		t.Errorf("append after crafted bodies: code %d, want 200", code)
	}
	valid := append(append([]byte(nil), bins[0]...), bins[1]...)
	if code := post(srv.URL+"/v1/jobs", "application/octet-stream", valid); code != http.StatusOK && code != http.StatusAccepted {
		t.Errorf("job after crafted bodies: code %d, want accept", code)
	}
}
