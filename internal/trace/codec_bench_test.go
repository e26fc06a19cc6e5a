package trace_test

import (
	"bytes"
	"testing"

	"perftrack/internal/oracle"
	"perftrack/internal/trace"
)

// benchCodecTrace is the shared codec workload: a seeded oracle trace
// big enough that per-burst costs dominate fixed overheads (32 ranks ×
// 40 iterations × 2 phases ≈ 2560 bursts with full counter sets).
func benchCodecTrace(b *testing.B) (*trace.Trace, []byte, []byte) {
	b.Helper()
	tr := oracle.GenTraces(42, "bench", 32, 40, 2)
	var text bytes.Buffer
	if err := trace.Write(&text, tr); err != nil {
		b.Fatal(err)
	}
	return tr, text.Bytes(), trace.EncodeColbin(tr)
}

// BenchmarkCodecTextRead is the baseline the binary format is measured
// against: the strict line-oriented text parse (strconv + field splitting
// per burst).
func BenchmarkCodecTextRead(b *testing.B) {
	_, text, _ := benchCodecTrace(b)
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := trace.ReadWith(bytes.NewReader(text), trace.DecodeOptions{Strict: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCodecTextWrite(b *testing.B) {
	tr, text, _ := benchCodecTrace(b)
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		buf.Grow(len(text))
		if err := trace.Write(&buf, tr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCodecColbinRead times DecodeColbin, the call a service cache
// hit makes. scripts/bench_codec.sh gates it at >= 10x the text parse.
func BenchmarkCodecColbinRead(b *testing.B) {
	_, text, bin := benchCodecTrace(b)
	b.SetBytes(int64(len(text))) // text-equivalent bytes, so MB/s compares across codecs
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.DecodeColbin(bin); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCodecColbinWrite(b *testing.B) {
	tr, text, _ := benchCodecTrace(b)
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trace.EncodeColbin(tr)
	}
}
