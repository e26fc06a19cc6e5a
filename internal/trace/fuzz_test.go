package trace

import (
	"bytes"
	"testing"
)

// FuzzRead ensures the trace parser never panics on arbitrary input and
// that anything it accepts round-trips through the writer.
func FuzzRead(f *testing.F) {
	var seed bytes.Buffer
	if err := Write(&seed, sampleTrace()); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.String())
	f.Add("#PERFTRACK 1\n")
	f.Add("#PERFTRACK 1\n#meta app=x ranks=2\nB 0 0 0 1 f f.c 1 0 0 0 0 0 0 0\n")
	f.Add("")
	f.Add("#PERFTRACK 1\n#param k=\"v with space\"\nB 1 0 5 5 \"fn x\" g.c 2 1 1 2 3 4 5 6\n")
	f.Fuzz(func(t *testing.T, input string) {
		tr, err := readStrict(bytes.NewReader([]byte(input)))
		if err != nil {
			return // rejecting is fine; panicking is not
		}
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			t.Fatalf("accepted trace failed to serialise: %v", err)
		}
		if _, err := readStrict(&buf); err != nil {
			t.Fatalf("writer output does not re-parse: %v", err)
		}
	})
}
