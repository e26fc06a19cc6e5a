package main

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"perftrack/internal/metrics"
)

func evolutionAnalyst(t *testing.T, seed uint64) *analyst {
	t.Helper()
	st, err := seededStudy("Gromacs-evolution", seed)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := writeBatchInputs(t.TempDir(), st, true)
	if err != nil {
		t.Fatal(err)
	}
	an := &analyst{st: st, ms: metrics.DefaultSpace(), paths: paths, colbin: true}
	if seed == 0 {
		an.pinned = batchWorkloads["batch-evolution"].pinned
	}
	return an
}

// A deliberately corrupted export must fail its op and the run.
func TestCorruptedExportFailsTheRun(t *testing.T) {
	an := evolutionAnalyst(t, 0)
	var f failures
	for op := 0; op < 3; op++ {
		a, err := an.analyse(context.Background(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if op == 1 {
			a.export[len(a.export)/2] ^= 0x20
		}
		if err := an.check(a); err != nil {
			f.add(err)
		}
	}
	if f.Failed != 1 || !strings.Contains(f.Reasons[0], "differs") {
		t.Fatalf("failures %+v; want exactly the corrupted op failed", f)
	}
	var out bytes.Buffer
	o := runOpts{workload: "batch-evolution", root: "..", seconds: time.Second}
	res := &outcome{failures: f, attempted: 3, values: map[string]float64{}}
	for _, s := range endToEnd {
		res.values[s.Name] = 1
	}
	if code := report(o, res, &out, &bytes.Buffer{}); code != 0 {
		t.Fatalf("report exit %d", code)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r Result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatal(err)
	}
	if r.Correct || r.Failed != 1 || r.Attempted != 3 || len(r.Metrics) != len(endToEnd) {
		t.Errorf("result %+v; want correct=false with one failure of three", r)
	}
}

// At seed 0 the first export must match the pinned digest.
func TestPinnedDigestChecked(t *testing.T) {
	an := evolutionAnalyst(t, 0)
	an.pinned = strings.Repeat("0", 64)
	rep, err := an.loop(context.Background(), 0, false, func() {})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 1 || !strings.Contains(rep.Reasons[0], "pinned") {
		t.Errorf("failed %d, reasons %q; want the pinned digest to fail the set-up op", rep.Failed, rep.Reasons)
	}
}

// The traced replay reproduces the pipeline's labels and matrices, and
// notices when they differ.
func TestReplayFidelity(t *testing.T) {
	an := evolutionAnalyst(t, 7)
	lt := map[string]float64{}
	a, err := an.analyse(context.Background(), lt)
	if err != nil {
		t.Fatal(err)
	}
	if err := replay(context.Background(), a, an.st.Track, lt); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"cluster.dbscan_ms", "core.displacement_ms", "align.star_ms", "core.sequence_ms"} {
		if lt[k] <= 0 {
			t.Errorf("%s = %v, want a positive time", k, lt[k])
		}
	}
	if lt["cluster.points"] == 0 || lt["core.relations"] == 0 || lt["cluster.nn_queries"] == 0 {
		t.Errorf("counts not recorded: %v", lt)
	}
	f := a.frames[3]
	for i, l := range f.Labels {
		if l > 0 {
			f.Labels[i] = 0
			break
		}
	}
	if err := replay(context.Background(), a, an.st.Track, map[string]float64{}); err == nil || !strings.Contains(err.Error(), "labels") {
		t.Errorf("tampered labels: replay error %v, want a label mismatch", err)
	}
}
