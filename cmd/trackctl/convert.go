package main

// trackctl convert translates trace files between the perftrack text
// format and the binary columnar (colbin) format. The input format is
// sniffed, so converting in either direction is the same command; the
// conversion is lossless up to the text writer's canonical (task, time)
// burst ordering.

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"perftrack/internal/trace"
)

func cmdConvert(args []string) error {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	to := fs.String("to", "colbin", "target format: colbin or text")
	out := fs.String("o", "", "output file (single input only; default derives from the input name)")
	lenientFlag(fs)
	fs.Parse(args)
	if *to != "colbin" && *to != "text" {
		return fmt.Errorf("convert: -to must be colbin or text, got %q", *to)
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("convert: no trace files given")
	}
	if *out != "" && fs.NArg() != 1 {
		return fmt.Errorf("convert: -o needs exactly one input, got %d", fs.NArg())
	}
	for _, p := range fs.Args() {
		t, diag, err := trace.DecodeFile(p, trace.DecodeOptions{Strict: !lenientMode})
		if err != nil {
			return err
		}
		if diag.Summary() != "" {
			fmt.Fprintf(os.Stderr, "trackctl: %s: %s\n", p, diag.Summary())
		}
		dst := *out
		if dst == "" {
			dst = convertName(p, *to)
		}
		if *to == "colbin" {
			err = trace.WriteColbinFile(dst, t)
		} else {
			err = trace.WriteFile(dst, t)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", dst, err)
		}
		info, _ := os.Stat(dst)
		var size int64
		if info != nil {
			size = info.Size()
		}
		fmt.Printf("wrote %s (%d bursts, %d bytes)\n", dst, len(t.Bursts), size)
	}
	return nil
}

// convertName derives the output path: swap the conventional extension
// when present, append the target's otherwise.
func convertName(in, to string) string {
	switch to {
	case "colbin":
		if s, ok := strings.CutSuffix(in, ".trace"); ok {
			return s + ".colbin"
		}
		return in + ".colbin"
	default:
		if s, ok := strings.CutSuffix(in, ".colbin"); ok {
			return s + ".trace"
		}
		return in + ".trace"
	}
}
