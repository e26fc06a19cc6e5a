package trackeval

import (
	"bytes"
	"encoding/json"
	"testing"

	"perftrack/internal/trace"
)

// FuzzScenarioRoundTrip drives the whole evaluation stack through the
// trace codec: any generated corpus scenario, serialised and re-read,
// must score byte-identically. This pins two properties at once — the
// codec preserves everything the evaluation consumes (including the
// planted Phase annotations), and scoring is a pure function of the
// trace content.
func FuzzScenarioRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint16(100))
	f.Add(uint64(2), uint8(5), uint16(250))
	f.Add(uint64(42), uint8(8), uint16(500))
	f.Add(uint64(7), uint8(13), uint16(1))

	cfg := DefaultConfig()
	f.Fuzz(func(t *testing.T, seed uint64, famIdx uint8, sevMil uint16) {
		severity := float64(sevMil%1000) / 1000
		corpus := Corpus(CorpusSpec{Seed: seed, Severity: severity})
		sc := corpus[int(famIdx)%len(corpus)]

		direct, err := EvaluateScenario(sc, cfg)
		if err != nil {
			t.Skip() // scenario degenerated (e.g. all frames degraded)
		}

		rt := sc
		rt.Traces = make([]*trace.Trace, len(sc.Traces))
		for i, tr := range sc.Traces {
			var buf bytes.Buffer
			if err := trace.Write(&buf, tr); err != nil {
				t.Fatalf("frame %d: encoding: %v", i, err)
			}
			back, _, err := trace.ReadWith(&buf, trace.DecodeOptions{Strict: true})
			if err != nil {
				t.Fatalf("frame %d: decoding what we encoded: %v", i, err)
			}
			rt.Traces[i] = back
		}
		again, err := EvaluateScenario(rt, cfg)
		if err != nil {
			t.Fatalf("round-tripped scenario fails to evaluate: %v", err)
		}

		a, err := json.Marshal(direct)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("scenario %s: score changed across codec round trip\n direct: %s\n again:  %s", sc.Name, a, b)
		}
	})
}
