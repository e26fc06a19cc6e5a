package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"perftrack/internal/metrics"
)

// genTrace builds a seeded trace exercising everything the codec must
// carry: unordered bursts, negative phases, quoted/unicode strings, NaN
// and infinity counter values, empty strings, and enough bursts to span
// several encoder blocks when big is set.
func genTrace(seed uint64, big bool) *Trace {
	rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	t := &Trace{
		Meta: Metadata{
			App: "colbin gen", Label: "seed-run", Ranks: 16, TasksPerNode: 4,
			Machine: "Mare Nostrum", Compiler: `gfortran "4.1.2" -O3`,
			Params: map[string]string{"class": "B", "block size": "128", "π": "3.14"},
		},
	}
	funcs := []string{"solve_x", "mat mul", "", "cálculo", "init\tphase"}
	files := []string{"solver.f90", "dir name/file.f90", "", "日本.c"}
	n := 200
	if big {
		n = 3*colbinBlockSize + 117
	}
	for i := 0; i < n; i++ {
		var cv metrics.CounterVector
		for c := range cv {
			switch rng.IntN(20) {
			case 0:
				cv[c] = math.NaN()
			case 1:
				cv[c] = math.Inf(1)
			case 2:
				cv[c] = math.Copysign(0, -1)
			default:
				cv[c] = rng.Float64() * 1e9
			}
		}
		t.Bursts = append(t.Bursts, Burst{
			Task:    rng.IntN(16),
			Thread:  rng.IntN(4),
			StartNS: rng.Int64N(1e12) - 100, // includes small negatives
			// negative durations are invalid traces but valid codec input
			DurationNS: rng.Int64N(1e9),
			Stack: CallstackRef{
				Function: funcs[rng.IntN(len(funcs))],
				File:     files[rng.IntN(len(files))],
				Line:     rng.IntN(5000) - 10,
			},
			Phase: rng.IntN(8) - 1,
		})
		t.Bursts[len(t.Bursts)-1].Counters = cv
	}
	return t
}

// equalTraces compares traces by IEEE bit patterns, so NaN payloads and
// -0 count as equal to themselves (DeepEqual treats NaN != NaN).
func equalTraces(a, b *Trace) bool {
	if !reflect.DeepEqual(a.Meta, b.Meta) || len(a.Bursts) != len(b.Bursts) {
		return false
	}
	for i := range a.Bursts {
		if !equalBursts(a.Bursts[i], b.Bursts[i]) {
			return false
		}
	}
	return true
}

func equalBursts(x, y Burst) bool {
	if x.Task != y.Task || x.Thread != y.Thread || x.StartNS != y.StartNS ||
		x.DurationNS != y.DurationNS || x.Stack != y.Stack || x.Phase != y.Phase {
		return false
	}
	for c := range x.Counters {
		if math.Float64bits(x.Counters[c]) != math.Float64bits(y.Counters[c]) {
			return false
		}
	}
	return true
}

func TestColbinRoundTrip(t *testing.T) {
	cases := map[string]*Trace{
		"sample": sampleTrace(),
		"empty":  {Meta: Metadata{App: "empty"}},
		"zero":   {},
	}
	for seed := uint64(1); seed <= 8; seed++ {
		cases["gen"] = genTrace(seed, false)
		cases["gen-big"] = genTrace(seed+100, seed == 1)
		for name, tr := range cases {
			data := EncodeColbin(tr)
			got, err := DecodeColbin(data)
			if err != nil {
				t.Fatalf("seed %d %s: DecodeColbin: %v", seed, name, err)
			}
			if !equalTraces(got, tr) {
				t.Fatalf("seed %d %s: decode mismatch", seed, name)
			}
			// Re-encoding the decoded trace must reproduce the bytes:
			// the encoding is canonical for a given burst order.
			if !bytes.Equal(EncodeColbin(got), data) {
				t.Fatalf("seed %d %s: re-encode differs", seed, name)
			}
		}
	}
}

// TestColbinTextDifferential keeps the text codec as the differential
// reference: converting through colbin must be invisible to the text
// writer, byte for byte, in both directions.
func TestColbinTextDifferential(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		orig := genTrace(seed, false)

		// text -> Trace -> colbin -> Trace -> text, bit-exact.
		var text1 bytes.Buffer
		if err := Write(&text1, orig); err != nil {
			t.Fatal(err)
		}
		parsed, err := readStrict(bytes.NewReader(text1.Bytes()))
		if err != nil {
			// NaN/Inf counters round-trip through the text format too,
			// so a parse failure is a real regression.
			t.Fatalf("seed %d: text parse: %v", seed, err)
		}
		viaCol, err := DecodeColbin(EncodeColbin(parsed))
		if err != nil {
			t.Fatalf("seed %d: colbin round trip: %v", seed, err)
		}
		var text2 bytes.Buffer
		if err := Write(&text2, viaCol); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(text1.Bytes(), text2.Bytes()) {
			t.Fatalf("seed %d: text -> colbin -> text not bit-exact", seed)
		}

		// The canonical fingerprint must survive the conversion: the
		// convert cache depends on it.
		direct, err := DecodeColbin(EncodeColbin(orig))
		if err != nil {
			t.Fatal(err)
		}
		if direct.CanonicalHash() != orig.CanonicalHash() {
			t.Fatalf("seed %d: canonical hash changed through colbin", seed)
		}
	}
}

// goldenColbin is the encoding TestColbinGoldenLayout pins.
func goldenColbin() []byte {
	tr := sampleTrace()
	tr.Bursts[1].Counters[metrics.CtrCycles] = 12345.5
	tr.Bursts[2].Phase = -1
	return EncodeColbin(tr)
}

// TestColbinGoldenLayout pins the on-disk byte layout — section order,
// column order, encodings — the same way the golden hash tests pin the
// fingerprint format. If this fails, the format changed: bump the magic
// version, do not update the hash casually.
func TestColbinGoldenLayout(t *testing.T) {
	sum := sha256.Sum256(goldenColbin())
	const want = "fad8a93b7080dc9b52229278a0839fa962549c6744e542bd13dcbdf98d416310"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("colbin layout hash changed:\n got %s\nwant %s", got, want)
	}
}

// TestColbinDecodeAllocs pins the binary decoder's allocation behaviour:
// decoding thousands of bursts must cost O(strings + blocks) allocations,
// never O(bursts).
func TestColbinDecodeAllocs(t *testing.T) {
	tr := genTrace(7, true) // > 12k bursts across 4 blocks
	data := EncodeColbin(tr)
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := DecodeColbin(data); err != nil {
			t.Fatal(err)
		}
	})
	// The burst slice, ~20 table strings, a handful of section slices,
	// the bounded worker pool. 128 leaves slack without ever tolerating
	// a per-burst allocation (that would be >12000).
	if allocs > 128 {
		t.Fatalf("DecodeColbin allocates %.0f times for %d bursts", allocs, len(tr.Bursts))
	}
}

func TestColbinTruncationAtEveryByte(t *testing.T) {
	tr := sampleTrace()
	data := EncodeColbin(tr)
	for cut := 0; cut < len(data); cut++ {
		if _, err := DecodeColbin(data[:cut]); err == nil {
			t.Fatalf("strict decode accepted a file truncated at byte %d/%d", cut, len(data))
		}
		// Lenient must not panic and must either fail or flag the tear.
		// The colbin core is called directly: DecodeAny would route a
		// prefix shorter than the magic to the text parser.
		got, diag, err := decodeColbin(data[:cut], DecodeOptions{})
		if err == nil && got != nil && !diag.Truncated && diag.Skipped() == 0 {
			t.Fatalf("lenient decode of %d/%d-byte prefix reported a clean file", cut, len(data))
		}
	}
}

func TestColbinBitFlipNeverSilent(t *testing.T) {
	tr := genTrace(3, false)
	data := EncodeColbin(tr)
	rng := rand.New(rand.NewPCG(99, 7))
	for trial := 0; trial < 400; trial++ {
		corrupt := append([]byte(nil), data...)
		pos := rng.IntN(len(corrupt))
		corrupt[pos] ^= 1 << rng.IntN(8)
		got, err := DecodeColbin(corrupt)
		if err != nil {
			continue // loud failure: exactly what we want
		}
		// The flip must have been in a bit the format does not cover
		// (there is none: every byte is under a CRC or the magic), so
		// an accepted decode must be identical to the original.
		if !equalTraces(got, tr) {
			t.Fatalf("trial %d: bit flip at byte %d decoded silently to a different trace", trial, pos)
		}
	}
}

func TestColbinLenientQuarantinesBlocks(t *testing.T) {
	tr := genTrace(5, true) // multiple blocks
	data := EncodeColbin(tr)
	// Flip a byte inside the second half of the file, far from the
	// header sections: some block CRC breaks.
	corrupt := append([]byte(nil), data...)
	corrupt[len(corrupt)/2] ^= 0x40
	got, diag, err := DecodeAny(corrupt, DecodeOptions{})
	if err != nil {
		t.Fatalf("lenient decode: %v", err)
	}
	if diag.Skipped() == 0 && len(got.Bursts) == len(tr.Bursts) {
		t.Fatal("corruption neither quarantined nor shrank the trace")
	}
	// Every surviving block is a contiguous run of original bursts, in
	// order: check the decoded bursts form a subsequence of the input.
	j := 0
	for i := range got.Bursts {
		for j < len(tr.Bursts) && !equalBursts(got.Bursts[i], tr.Bursts[j]) {
			j++
		}
		if j == len(tr.Bursts) {
			t.Fatalf("decoded burst %d is not an in-order subsequence of the input", i)
		}
		j++
	}
}

func TestSplitColbin(t *testing.T) {
	traces := []*Trace{genTrace(11, false), sampleTrace(), genTrace(12, false)}
	var body []byte
	for _, tr := range traces {
		body = append(body, EncodeColbin(tr)...)
	}
	parts, err := SplitColbin(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != len(traces) {
		t.Fatalf("SplitColbin found %d traces, want %d", len(parts), len(traces))
	}
	for i, part := range parts {
		got, err := DecodeColbin(part)
		if err != nil {
			t.Fatalf("part %d: %v", i, err)
		}
		if !equalTraces(got, traces[i]) {
			t.Fatalf("part %d decodes to the wrong trace", i)
		}
	}
	if _, err := SplitColbin(body[:len(body)-3]); err == nil {
		t.Fatal("SplitColbin accepted a torn tail")
	}
	if _, err := SplitColbin([]byte("#PERFTRACK 1\n")); err == nil {
		t.Fatal("SplitColbin accepted a text body")
	}
	if _, err := SplitColbin(nil); err == nil {
		t.Fatal("SplitColbin accepted an empty body")
	}
}

// TestReadFileAnySniffs checks DecodeFile is DecodeAny on the file's
// bytes — same trace, same diagnostics, strict and lenient, text and
// colbin — and that its errors name the file.
func TestReadFileAnySniffs(t *testing.T) {
	tr := genTrace(21, false)
	var text bytes.Buffer
	if err := Write(&text, tr); err != nil {
		t.Fatal(err)
	}
	bin := EncodeColbin(tr)
	// Corrupt variants: a malformed text record and a torn colbin tail
	// decode leniently with diagnostics and fail strictly.
	badText := append([]byte("B garbage\n"), text.Bytes()...)
	tornBin := bin[:len(bin)-3]
	dir := t.TempDir()
	for _, c := range []struct {
		name string
		data []byte
		ok   bool // strict decode succeeds
	}{
		{"t.trace", text.Bytes(), true},
		{"t.colbin", bin, true},
		{"bad.trace", badText, false},
		{"torn.colbin", tornBin, false},
	} {
		path := filepath.Join(dir, c.name)
		if err := os.WriteFile(path, c.data, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, opts := range []DecodeOptions{{Strict: true}, {}} {
			got, gotDiag, err := DecodeFile(path, opts)
			want, wantDiag, wantErr := DecodeAny(c.data, opts)
			if opts.Strict && (wantErr == nil) != c.ok {
				t.Fatalf("%s: strict DecodeAny err = %v", c.name, wantErr)
			}
			if !opts.Strict && !c.ok && wantDiag.Summary() == "" {
				t.Fatalf("%s: lenient DecodeAny reported a clean file", c.name)
			}
			if wantErr != nil {
				if err == nil || err.Error() != path+": "+wantErr.Error() {
					t.Fatalf("%s strict=%v: DecodeFile err = %v, want %q prefixed with the path", c.name, opts.Strict, err, wantErr)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s strict=%v: DecodeFile: %v", c.name, opts.Strict, err)
			}
			if !equalTraces(got, want) || !reflect.DeepEqual(gotDiag, wantDiag) {
				t.Fatalf("%s strict=%v: DecodeFile differs from DecodeAny", c.name, opts.Strict)
			}
		}
	}
	fromBin, _, err := DecodeFile(filepath.Join(dir, "t.colbin"), DecodeOptions{Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	if !equalTraces(fromBin, tr) {
		t.Fatal("colbin DecodeFile mismatch")
	}
	missing := filepath.Join(dir, "missing")
	if _, _, err := DecodeFile(missing, DecodeOptions{}); err == nil || !strings.Contains(err.Error(), missing) {
		t.Fatalf("DecodeFile of a missing file: err = %v", err)
	}
}

func TestDecodeAnyEmptyAndGarbage(t *testing.T) {
	if _, _, err := DecodeAny(nil, DecodeOptions{Strict: true}); err == nil {
		t.Fatal("strict DecodeAny accepted empty input")
	}
	// Lenient text decode of garbage quarantines; it must not be
	// mistaken for colbin.
	_, diag, err := DecodeAny([]byte("not a trace"), DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !diag.MissingHeader {
		t.Fatal("garbage input should report a missing header")
	}
	// A corrupt magic (right prefix, wrong tail) is not colbin.
	bad := []byte("PTCB\x01\r\nX rest")
	if IsColbin(bad) {
		t.Fatal("IsColbin accepted a corrupt magic")
	}
}
