package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"perftrack/internal/trace"
)

func TestTrackIdentity(t *testing.T) {
	res, err := buildAndTrack(testConfig(),
		mkTrace("x", 4, 4, simplePhases()),
		mkTrace("y", 4, 4, simplePhases()))
	if err != nil {
		t.Fatal(err)
	}
	if res.SpanningCount != 2 || res.OptimalK != 2 {
		t.Fatalf("spanning=%d optimal=%d", res.SpanningCount, res.OptimalK)
	}
	if res.Coverage != 1 {
		t.Errorf("coverage = %v, want 1", res.Coverage)
	}
	// Regions match ground-truth phases one to one.
	for p := 1; p <= 2; p++ {
		if res.RegionByPhase(p) == nil {
			t.Errorf("phase %d untracked", p)
		}
	}
}

func TestTrackNoFrames(t *testing.T) {
	if _, err := NewTracker(testConfig()).Track(nil); err == nil {
		t.Error("empty frame sequence accepted")
	}
}

func TestTrackSingleFrame(t *testing.T) {
	res, err := buildAndTrack(testConfig(), mkTrace("x", 4, 4, simplePhases()))
	if err != nil {
		t.Fatal(err)
	}
	// No pairs, but each cluster is its own spanning region.
	if len(res.Pairs) != 0 {
		t.Errorf("pairs = %d", len(res.Pairs))
	}
	if res.SpanningCount != 2 {
		t.Errorf("spanning = %d", res.SpanningCount)
	}
}

func TestTrackBimodalSplitGrouped(t *testing.T) {
	// One phase splits across ranks in the second experiment: SPMD must
	// group the pair into a single wide relation (the WRF 256-task case).
	base := simplePhases()
	split := []phaseDef{
		base[0],
		{IPC: 0.6, Instr: 4e6, Stack: stackR("b", 2), PerRank: func(r int) (float64, float64) {
			if r%2 == 0 {
				return 0.68, 4e6
			}
			return 0.45, 4e6
		}},
	}
	res, err := buildAndTrack(testConfig(),
		mkTrace("x", 8, 4, base),
		mkTrace("y", 8, 4, split))
	if err != nil {
		t.Fatal(err)
	}
	if res.Frames[1].NumClusters != 3 {
		t.Fatalf("second frame clusters = %d, want 3", res.Frames[1].NumClusters)
	}
	if res.SpanningCount != 2 {
		t.Fatalf("spanning = %d, want 2 (pair grouped)", res.SpanningCount)
	}
	// The region holding phase 2 spans both mode clusters in frame 1.
	reg := res.RegionByPhase(2)
	if reg == nil {
		t.Fatal("phase 2 untracked")
	}
	if len(reg.Members[1]) != 2 {
		t.Errorf("bimodal region members in frame 1 = %v, want 2 clusters", reg.Members[1])
	}
}

func TestTrackCallstackVeto(t *testing.T) {
	// Two phases swap their performance-space positions between the two
	// experiments. Displacement alone would cross-link them; the
	// call-stack veto must keep identities straight.
	a := []phaseDef{
		{IPC: 1.2, Instr: 1e7, Stack: stackR("a", 1)},
		{IPC: 0.6, Instr: 4e6, Stack: stackR("b", 2)},
	}
	b := []phaseDef{
		{IPC: 0.6, Instr: 4e6, Stack: stackR("a", 1)}, // "a" moved to b's spot
		{IPC: 1.2, Instr: 1e7, Stack: stackR("b", 2)}, // "b" moved to a's spot
	}
	res, err := buildAndTrack(testConfig(),
		mkTrace("x", 4, 4, a),
		mkTrace("y", 4, 4, b))
	if err != nil {
		t.Fatal(err)
	}
	if res.SpanningCount != 2 {
		t.Fatalf("spanning = %d, want 2", res.SpanningCount)
	}
	for p := 1; p <= 2; p++ {
		reg := res.RegionByPhase(p)
		if reg == nil {
			t.Fatalf("phase %d untracked", p)
		}
		// Verify the region holds the same phase in both frames.
		for fi := range res.Frames {
			for _, cid := range reg.Members[fi] {
				if got := majorityPhase(res.Frames[fi], cid); got != p {
					t.Errorf("region of phase %d contains phase %d in frame %d", p, got, fi)
				}
			}
		}
	}
}

func TestTrackCallstackRescueLongJump(t *testing.T) {
	// The second experiment multiplies every instruction count by 40
	// (the NAS BT class-W to class-A jump): nearest-neighbour
	// classification misbinds, and the unique call-stack references must
	// rescue the correspondence.
	a := []phaseDef{
		{IPC: 1.2, Instr: 1e7, Stack: stackR("a", 1)},
		{IPC: 0.6, Instr: 2e6, Stack: stackR("b", 2)},
	}
	b := []phaseDef{
		{IPC: 0.7, Instr: 4e8, Stack: stackR("a", 1)},
		{IPC: 0.4, Instr: 8e7, Stack: stackR("b", 2)},
	}
	res, err := buildAndTrack(testConfig(),
		mkTrace("x", 4, 4, a),
		mkTrace("y", 4, 4, b))
	if err != nil {
		t.Fatal(err)
	}
	if res.SpanningCount != 2 || res.Coverage != 1 {
		t.Fatalf("spanning=%d coverage=%v, want full tracking", res.SpanningCount, res.Coverage)
	}
	for p := 1; p <= 2; p++ {
		reg := res.RegionByPhase(p)
		if reg == nil {
			t.Fatalf("phase %d untracked", p)
		}
		for fi := range res.Frames {
			for _, cid := range reg.Members[fi] {
				if got := majorityPhase(res.Frames[fi], cid); got != p {
					t.Errorf("phase %d region holds phase %d in frame %d", p, got, fi)
				}
			}
		}
	}
}

func TestTrackSequenceSplitsWideRelation(t *testing.T) {
	// Both phases share one call-stack reference and swap positions, so
	// neither displacement nor the stack veto can separate them — only
	// the execution sequence can (the paper's Figure 5 scenario).
	a := []phaseDef{
		{IPC: 1.2, Instr: 1e7, Stack: stackR("same", 7)},
		{IPC: 0.6, Instr: 4e6, Stack: stackR("same", 7)},
	}
	b := []phaseDef{
		{IPC: 1.1, Instr: 9e6, Stack: stackR("same", 7)},
		{IPC: 0.55, Instr: 3.6e6, Stack: stackR("same", 7)},
	}
	res, err := buildAndTrack(testConfig(),
		mkTrace("x", 4, 6, a),
		mkTrace("y", 4, 6, b))
	if err != nil {
		t.Fatal(err)
	}
	if res.SpanningCount != 2 {
		t.Fatalf("spanning = %d, want 2", res.SpanningCount)
	}
	for p := 1; p <= 2; p++ {
		reg := res.RegionByPhase(p)
		if reg == nil {
			t.Fatalf("phase %d untracked", p)
		}
	}
}

func TestTrackDisappearingRegion(t *testing.T) {
	// A phase present only in the first experiment becomes a non
	// spanning region and lowers nothing but itself.
	a := []phaseDef{
		{IPC: 1.2, Instr: 1e7, Stack: stackR("a", 1)},
		{IPC: 0.6, Instr: 4e6, Stack: stackR("gone", 9)},
	}
	b := []phaseDef{
		{IPC: 1.2, Instr: 1e7, Stack: stackR("a", 1)},
	}
	res, err := buildAndTrack(testConfig(),
		mkTrace("x", 4, 4, a),
		mkTrace("y", 4, 4, b))
	if err != nil {
		t.Fatal(err)
	}
	if res.SpanningCount != 1 {
		t.Errorf("spanning = %d, want 1", res.SpanningCount)
	}
	var partial *TrackedRegion
	for _, tr := range res.Regions {
		if !tr.Spanning {
			partial = tr
		}
	}
	if partial == nil {
		t.Fatal("vanished region not reported")
	}
	if len(partial.Members[1]) != 0 {
		t.Errorf("vanished region present in frame 1: %v", partial.Members)
	}
}

func TestTrackChainAcrossManyFrames(t *testing.T) {
	// Five experiments with a slow drift: the chain must hold the
	// regions together end to end.
	mk := func(i int) *trace.Trace {
		f := 1 - 0.03*float64(i)
		return mkTrace("x", 4, 4, []phaseDef{
			{IPC: 1.2 * f, Instr: 1e7, Stack: stackR("a", 1)},
			{IPC: 0.6 * f, Instr: 4e6, Stack: stackR("b", 2)},
		})
	}
	traces := []*trace.Trace{mk(0), mk(1), mk(2), mk(3), mk(4)}
	res, err := buildAndTrack(testConfig(), traces...)
	if err != nil {
		t.Fatal(err)
	}
	if res.SpanningCount != 2 || res.Coverage != 1 {
		t.Fatalf("spanning=%d coverage=%v", res.SpanningCount, res.Coverage)
	}
	if len(res.Pairs) != 4 {
		t.Errorf("pairs = %d", len(res.Pairs))
	}
}

func TestRegionLabels(t *testing.T) {
	res, err := buildAndTrack(testConfig(),
		mkTrace("x", 4, 4, simplePhases()),
		mkTrace("y", 4, 4, simplePhases()))
	if err != nil {
		t.Fatal(err)
	}
	for fi := range res.Frames {
		labels := res.RegionLabels(fi)
		if len(labels) != len(res.Frames[fi].Labels) {
			t.Fatalf("label slice size mismatch")
		}
		// Every clustered burst maps to a region; region ids are stable
		// across frames (that is the renaming guarantee).
		for i, l := range labels {
			if res.Frames[fi].Labels[i] > 0 && l == 0 {
				t.Errorf("clustered burst %d unlabelled", i)
			}
		}
	}
	// The same phase gets the same region id in both frames.
	for p := 1; p <= 2; p++ {
		reg := res.RegionByPhase(p)
		ids := map[int]bool{}
		for fi := range res.Frames {
			labels := res.RegionLabels(fi)
			for i, l := range labels {
				if l > 0 && res.Frames[fi].Trace.Bursts[i].Phase == p {
					ids[l] = true
				}
			}
		}
		if len(ids) != 1 {
			t.Errorf("phase %d carries region ids %v, want exactly one", p, ids)
		}
		if reg != nil && !ids[reg.ID] {
			t.Errorf("phase %d labels disagree with RegionByPhase", p)
		}
	}
}

func TestRegionOrderingByDuration(t *testing.T) {
	res, err := buildAndTrack(testConfig(),
		mkTrace("x", 4, 4, simplePhases()),
		mkTrace("y", 4, 4, simplePhases()))
	if err != nil {
		t.Fatal(err)
	}
	prev := res.Regions[0].TotalDurationNS
	for _, tr := range res.Regions[1:] {
		if tr.Spanning && tr.TotalDurationNS > prev {
			t.Errorf("regions not ordered by duration: %v after %v", tr.TotalDurationNS, prev)
		}
		prev = tr.TotalDurationNS
	}
	if res.Region(1) == nil || res.Region(99) != nil {
		t.Error("Region lookup broken")
	}
	if res.RegionOf(0, res.Regions[0].Members[0][0]) != res.Regions[0].ID {
		t.Error("RegionOf disagreed with Members")
	}
}

func TestTrackAblationDisableAll(t *testing.T) {
	// With SPMD, callstack and sequence disabled, the bimodal split case
	// must degrade: the pair can no longer be grouped reliably into one
	// region — demonstrating the evaluators' contribution.
	base := simplePhases()
	split := []phaseDef{
		base[0],
		{IPC: 0.6, Instr: 4e6, Stack: stackR("b", 2), PerRank: func(r int) (float64, float64) {
			if r%2 == 0 {
				return 0.75, 4e6
			}
			return 0.45, 4e6
		}},
	}
	cfg := testConfig()
	cfg.DisableSPMD = true
	cfg.DisableCallstack = true
	cfg.DisableSequence = true
	res, err := buildAndTrack(cfg,
		mkTrace("x", 8, 4, base),
		mkTrace("y", 8, 4, split))
	if err != nil {
		t.Fatal(err)
	}
	full, err := buildAndTrack(testConfig(),
		mkTrace("x", 8, 4, base),
		mkTrace("y", 8, 4, split))
	if err != nil {
		t.Fatal(err)
	}
	if full.SpanningCount != 2 {
		t.Fatalf("full tracker spanning = %d, want 2", full.SpanningCount)
	}
	// The ablated tracker is allowed to find correspondences through
	// displacement only, but must not crash and must report its pairs.
	if len(res.Pairs) != 1 {
		t.Errorf("ablated pairs = %d", len(res.Pairs))
	}
	if res.Pairs[0].Seq != nil {
		t.Error("sequence matrix computed despite DisableSequence")
	}
}

func TestRelationWide(t *testing.T) {
	if (Relation{A: []int{1}, B: []int{2}}).Wide() {
		t.Error("1:1 relation reported wide")
	}
	if !(Relation{A: []int{1, 2}, B: []int{3}}).Wide() {
		t.Error("2:1 relation not wide")
	}
}

func TestUniqueCandidate(t *testing.T) {
	m := NewMatrix("t", 0, 1, 2, 3)
	m.Set(1, 2, 0.5)
	if got := uniqueCandidate(m, 1); got != 2 {
		t.Errorf("unique = %d", got)
	}
	m.Set(1, 3, 0.5)
	if got := uniqueCandidate(m, 1); got != 0 {
		t.Errorf("ambiguous row should give 0, got %d", got)
	}
	if got := uniqueCandidate(m, 2); got != 0 {
		t.Errorf("empty row should give 0, got %d", got)
	}
}

// TestRunBoundedRecoversPanics pins the worker-pool boundary: panicking
// items come back as one error, in index order whatever the schedule,
// instead of killing the process, and every other item runs.
func TestRunBoundedRecoversPanics(t *testing.T) {
	for _, n := range []int{1, 64} {
		var ran atomic.Int64
		err := runBounded(n, func(i int) {
			ran.Add(1)
			if i == n-1 || i == 0 {
				panic(fmt.Sprintf("item %d", i))
			}
		})
		want := fmt.Sprintf("core: worker panic: item %d", n-1)
		if n > 1 {
			want = "core: worker panic: item 0\n" + want
		}
		if err == nil || err.Error() != want {
			t.Errorf("n=%d: runBounded error = %q, want %q", n, err, want)
		}
		if ran.Load() != int64(n) {
			t.Errorf("n=%d: %d items ran, want all", n, ran.Load())
		}
	}
	boom := errors.New("boom")
	if err := runBounded(4, func(i int) { panic(boom) }); !errors.Is(err, boom) {
		t.Errorf("panic with an error value = %v, want it wrapped", err)
	}
	if err := runBounded(8, func(int) {}); err != nil {
		t.Errorf("clean run = %v", err)
	}
}
