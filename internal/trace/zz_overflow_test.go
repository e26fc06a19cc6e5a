package trace

import (
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
	tt, diag, err := DecodeColbinWith(craft(false), DecodeOptions{Strict: false})
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
	tt, _, err := DecodeColbinWith(craft(true), DecodeOptions{Strict: true})
	if err == nil || !strings.Contains(err.Error(), "implausible block burst count") {
		t.Fatalf("strict decode = (%v, %v), want the implausible block count rejected", tt != nil, err)
	}
	if _, err := DecodeColbinFlat(craft(true)); err == nil {
		t.Fatal("flat decode accepted a crafted block count")
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
// crafted block counts, and drives every colbin decode entry point with
// them. Whatever the input, no decoder may panic; an input the strict
// decoder accepts must decode identically in lenient mode, into a reused
// trace and through the format sniffer, and must round-trip.
func FuzzColbinDecode(f *testing.F) {
	f.Add(goldenColbin())
	f.Add(craft(false))
	f.Add(craft(true))
	f.Fuzz(func(t *testing.T, data []byte) {
		strict, serr := DecodeColbin(data)
		lenient, diag, lerr := DecodeColbinWith(data, DecodeOptions{})
		_, _ = DecodeColbinFlat(data)
		var into Trace
		ierr := DecodeColbinInto(data, &into)
		if serr != nil {
			return
		}
		if lerr != nil || diag.Skipped() != 0 || diag.Truncated {
			t.Fatalf("lenient decode of a strictly valid input: err=%v diag=%+v", lerr, diag)
		}
		if ierr != nil {
			t.Fatalf("DecodeColbinInto rejected a strictly valid input: %v", ierr)
		}
		if !equalTraces(lenient, strict) || !equalTraces(&into, strict) {
			t.Fatal("decode entry points disagree on a strictly valid input")
		}
		back, err := DecodeColbin(EncodeColbin(strict))
		if err != nil || !equalTraces(back, strict) {
			t.Fatalf("accepted input does not round-trip: %v", err)
		}
	})
}
