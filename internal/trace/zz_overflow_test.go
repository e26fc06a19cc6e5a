package trace

import (
	"bytes"
	"strings"
	"testing"
)

func craft(metaTotalZero bool) []byte {
	tr := &Trace{Meta: Metadata{App: "a"}}
	for i := 0; i < 10; i++ {
		tr.Bursts = append(tr.Bursts, Burst{Task: i, StartNS: int64(i)})
	}
	data := EncodeColbin(tr)
	type fr struct {
		kind byte
		body []byte
	}
	var frames []fr
	off := len(ColbinMagic)
	for off < len(data) {
		bl := int(uint32(data[off]) | uint32(data[off+1])<<8 | uint32(data[off+2])<<16 | uint32(data[off+3])<<24)
		frame := data[off+8 : off+8+bl]
		frames = append(frames, fr{frame[0], frame[1:]})
		off += 8 + bl
	}
	var out []byte
	out = append(out, ColbinMagic...)
	appendSec := func(kind byte, payload []byte) {
		var start int
		out, start = beginSection(out, kind)
		out = append(out, payload...)
		out = endSection(out, start)
	}
	for _, f := range frames {
		if f.kind == sectionMeta && metaTotalZero {
			// patch burst count (second-to-last uvarint) 10 -> 0
			p := append([]byte{}, f.body...)
			// last two bytes are burstCount=10 (0x0a), blockSize=4096 (0x80 0x20)
			p[len(p)-3] = 0x00
			appendSec(sectionMeta, p)
			continue
		}
		if f.kind == sectionEnd {
			crafted := []byte{0xf6, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01} // n = 2^64-10
			appendSec(sectionBlock, crafted)
			appendSec(sectionEnd, []byte{0x00})
			continue
		}
		appendSec(f.kind, f.body)
	}
	return out
}

func TestOverflowLenient(t *testing.T) {
	tt, diag, err := DecodeAny(craft(false), DecodeOptions{Strict: false})
	if err != nil {
		t.Fatalf("lenient decode of a crafted block count failed: %v", err)
	}
	if len(diag.BadLines) != 1 || !strings.Contains(diag.BadLines[0].Reason, "implausible block burst count") {
		t.Fatalf("lenient diagnostics = %+v, want the crafted block quarantined", diag.BadLines)
	}
	if len(tt.Bursts) != 10 {
		t.Fatalf("lenient decode kept %d bursts, want the 10 genuine ones", len(tt.Bursts))
	}
	for i, b := range tt.Bursts {
		if b.Task != i || b.StartNS != int64(i) {
			t.Fatalf("burst %d = task %d start %d, want the genuine bursts in order", i, b.Task, b.StartNS)
		}
	}
}

func TestOverflowStrictPatchedMeta(t *testing.T) {
	tt, err := DecodeColbin(craft(true))
	if err == nil || !strings.Contains(err.Error(), "implausible block burst count") {
		t.Fatalf("strict decode = (%v, %v), want the implausible block count rejected", tt != nil, err)
	}
}

// TestRunColBlocksRecoversPanics pins the pool boundary: a panicking
// block decoder surfaces as that block's error, and the other blocks
// still decode.
func TestRunColBlocksRecoversPanics(t *testing.T) {
	errs := runColBlocks(8, func(i int) error {
		if i == 3 {
			var s []int
			_ = s[i]
		}
		return nil
	})
	for i, err := range errs {
		if (err != nil) != (i == 3) {
			t.Fatalf("block %d: err = %v", i, err)
		}
	}
}

// FuzzColbinDecode mutates raw bytes around the golden layout and the
// crafted block counts, and drives the colbin decode entry points with
// them. Whatever the input, no decoder may panic; an input the strict
// decoder accepts must decode identically through the format sniffer,
// strict and lenient, and must round-trip.
func FuzzColbinDecode(f *testing.F) {
	f.Add(goldenColbin())
	f.Add(craft(false))
	f.Add(craft(true))
	f.Fuzz(func(t *testing.T, data []byte) {
		strict, serr := DecodeColbin(data)
		anyStrict, _, aerr := DecodeAny(data, DecodeOptions{Strict: true})
		lenient, diag, lerr := DecodeAny(data, DecodeOptions{})
		if serr != nil {
			if IsColbin(data) && aerr == nil {
				t.Fatalf("strict DecodeAny accepted colbin that DecodeColbin rejects: %v", serr)
			}
			return
		}
		if aerr != nil {
			t.Fatalf("strict DecodeAny rejected a strictly valid input: %v", aerr)
		}
		if lerr != nil || diag.Skipped() != 0 || diag.Truncated {
			t.Fatalf("lenient decode of a strictly valid input: err=%v diag=%+v", lerr, diag)
		}
		if !equalTraces(anyStrict, strict) || !equalTraces(lenient, strict) {
			t.Fatal("decode entry points disagree on a strictly valid input")
		}
		back, err := DecodeColbin(EncodeColbin(strict))
		if err != nil || !equalTraces(back, strict) {
			t.Fatalf("accepted input does not round-trip: %v", err)
		}
	})
}

// FuzzSplitColbin drives the multi-trace body splitter with raw bytes.
// It must never panic, and whatever it accepts must be a lossless cut:
// the parts concatenate back to the input and each starts with the magic.
func FuzzSplitColbin(f *testing.F) {
	golden := goldenColbin()
	f.Add(golden)
	f.Add(append(append([]byte{}, golden...), craft(false)...))
	f.Add(append(append([]byte{}, golden...), golden[:len(golden)-3]...))
	f.Add([]byte("#PERFTRACK 1\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		parts, err := SplitColbin(data)
		if err != nil {
			return
		}
		var joined []byte
		for i, p := range parts {
			if !IsColbin(p) {
				t.Fatalf("part %d does not start with the colbin magic", i)
			}
			joined = append(joined, p...)
		}
		if !bytes.Equal(joined, data) {
			t.Fatalf("%d parts concatenate to %d bytes, input has %d", len(parts), len(joined), len(data))
		}
	})
}
