package perftrack

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"perftrack/internal/machine"
	"perftrack/internal/mpisim"
	"perftrack/internal/trace"
)

func demoApp() AppSpec {
	arch := machine.MinoTauro()
	return AppSpec{
		Name: "facade-demo",
		Phases: []mpisim.PhaseSpec{
			{
				Name:      "solver",
				Stack:     trace.CallstackRef{Function: "solve", File: "s.c", Line: 1},
				Instr:     func(s mpisim.Scenario) float64 { return 1e9 / float64(s.Ranks) },
				IPCFactor: 1.4 / arch.BaseIPC,
				MemFrac:   0.02,
			},
			{
				Name:      "halo",
				Stack:     trace.CallstackRef{Function: "halo", File: "h.c", Line: 2},
				Instr:     func(s mpisim.Scenario) float64 { return 2e8 / float64(s.Ranks) },
				IPCFactor: 0.8 / arch.BaseIPC,
				MemFrac:   0.02,
			},
		},
	}
}

func demoTraces(t *testing.T) []*Trace {
	t.Helper()
	var out []*Trace
	for _, ranks := range []int{8, 16} {
		tr, err := Simulate(demoApp(), Scenario{
			Label:      fmt.Sprintf("%d-ranks", ranks),
			Ranks:      ranks,
			Arch:       machine.MinoTauro(),
			Compiler:   machine.GFortran(),
			Iterations: 6,
			Seed:       3,
		})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, tr)
	}
	return out
}

func TestFacadeTrack(t *testing.T) {
	res, err := Track(demoTraces(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.SpanningCount != 2 || res.Coverage != 1 {
		t.Errorf("facade tracking: %d regions at %.0f%%", res.SpanningCount, 100*res.Coverage)
	}
}

func TestFacadeCatalog(t *testing.T) {
	if got := len(CatalogStudies()); got != 10 {
		t.Errorf("catalog = %d studies", got)
	}
	if _, err := CatalogStudy("WRF"); err != nil {
		t.Errorf("CatalogStudy(WRF): %v", err)
	}
	if _, err := CatalogStudy("nope"); err == nil {
		t.Error("unknown study accepted")
	}
}

func TestFacadeSimulateStudyWindows(t *testing.T) {
	st, err := CatalogStudy("Gromacs-evolution")
	if err != nil {
		t.Fatal(err)
	}
	traces, err := SimulateStudy(st)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 20 {
		t.Errorf("windows = %d, want 20", len(traces))
	}
	// A windowed study with several runs is rejected.
	bad := st
	bad.Runs = append(bad.Runs, bad.Runs[0])
	if _, err := SimulateStudy(bad); err == nil {
		t.Error("multi-run windowed study accepted")
	}
}

func TestFacadeTraceFileRoundTrip(t *testing.T) {
	traces := demoTraces(t)
	path := filepath.Join(t.TempDir(), "demo.prv.txt")
	if err := WriteTraceFile(path, traces[0]); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Bursts) != len(traces[0].Bursts) {
		t.Errorf("round trip lost bursts: %d vs %d", len(back.Bursts), len(traces[0].Bursts))
	}
	// Both readers take colbin files too, decoding to the same trace.
	binPath := filepath.Join(t.TempDir(), "demo.colbin")
	if err := trace.WriteColbinFile(binPath, back); err != nil {
		t.Fatal(err)
	}
	fromBin, err := ReadTraceFile(binPath)
	if err != nil {
		t.Fatal(err)
	}
	lenient, diag, err := ReadTraceFileLenient(binPath)
	if err != nil || diag.Summary() != "" {
		t.Fatalf("lenient colbin read: %v %q", err, diag.Summary())
	}
	if !reflect.DeepEqual(fromBin, back) || !reflect.DeepEqual(lenient, back) {
		t.Error("colbin trace file reads back differently from the text one")
	}
}

func TestFacadeMetrics(t *testing.T) {
	if got := DefaultMetrics(); len(got) != 2 {
		t.Errorf("default metrics = %v", got)
	}
	if m, ok := MetricByName("IPC"); !ok || m.Name != "IPC" {
		t.Error("MetricByName(IPC) failed")
	}
}

func TestFacadeJSONExport(t *testing.T) {
	res, err := Track(demoTraces(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteResultJSON(&buf, res, DefaultMetrics()); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("facade JSON invalid: %v", err)
	}
	if doc["trackedRegions"].(float64) != 2 {
		t.Errorf("exported trackedRegions = %v", doc["trackedRegions"])
	}
}

// TestBaselineComparison is the paper's core argument made executable:
// the profile baseline reports a single average for a region whose
// behaviour is bimodal, while the tracking pipeline resolves the two
// behaviours into separate clusters and still correlates them as one code
// region across experiments.
func TestBaselineComparison(t *testing.T) {
	st, err := CatalogStudy("CGPOP")
	if err != nil {
		t.Fatal(err)
	}
	traces, err := SimulateStudy(st)
	if err != nil {
		t.Fatal(err)
	}

	// Baseline view: one row for btrop_operator, mean IPC ~0.25, flagged
	// multi-modal.
	prof := NewProfile(traces[0])
	var flagged bool
	for _, row := range prof.MultimodalRows() {
		if row.Stack.Function == "btrop_operator" {
			flagged = true
			// The mean is a value no invocation achieves: both modes are
			// >=7% away from it.
			if row.StdIPC < 0.01 {
				t.Errorf("bimodal region dispersion = %v", row.StdIPC)
			}
		}
	}
	if !flagged {
		t.Fatal("profile baseline failed to flag the bimodal region")
	}

	// Tracking view: the same code region appears as two clusters that
	// the combiner groups into one wide relation.
	res, err := Track(traces, st.Track)
	if err != nil {
		t.Fatal(err)
	}
	reg := res.RegionByPhase(2)
	if reg == nil {
		t.Fatal("tracking lost the bimodal region")
	}
	for fi := range res.Frames {
		if len(reg.Members[fi]) != 2 {
			t.Errorf("frame %d: tracked region resolves %d behaviours, want 2", fi, len(reg.Members[fi]))
		}
	}

	// And the classic comparison still works through CompareProfiles.
	deltas := CompareProfiles(NewProfile(traces[0]), NewProfile(traces[1]))
	if len(deltas) == 0 {
		t.Fatal("profile comparison empty")
	}
	for _, d := range deltas {
		if d.A == nil || d.B == nil {
			t.Errorf("region missing from a profile: %+v", d.Stack)
		}
		// xlf vs gfortran: ~flat duration despite fewer instructions.
		if d.DurationRatio < 0.95 || d.DurationRatio > 1.05 {
			t.Errorf("%s duration ratio = %v, want ~1", d.Stack, d.DurationRatio)
		}
	}
}

func TestTrackerAlias(t *testing.T) {
	tk := NewTracker(Config{})
	if tk == nil {
		t.Fatal("NewTracker returned nil")
	}
	frames, err := BuildFrames(demoTraces(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tk.Track(frames)
	if err != nil || res.SpanningCount == 0 {
		t.Errorf("tracker alias run: %v, %+v", err, res)
	}
}

func TestExperimentsGeneratorStudiesResolve(t *testing.T) {
	// The EXPERIMENTS.md generator (report.WriteExperiments) requires
	// these catalog studies by name; keep them resolvable.
	for _, name := range []string{"WRF", "CGPOP", "NAS BT", "MR-Genesis", "HydroC"} {
		if _, err := CatalogStudy(name); err != nil {
			t.Errorf("generator study %q missing: %v", name, err)
		}
	}
}

func TestFacadeDocExampleCompiles(t *testing.T) {
	// The doc-comment quick start, executed.
	study, err := CatalogStudy("HydroC")
	if err != nil {
		t.Fatal(err)
	}
	study.Runs = study.Runs[:3]
	study.ParamValues = study.ParamValues[:3]
	res, err := RunStudy(study)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, trend := range res.TopTrends(IPC, 0.0) {
		lines = append(lines, fmt.Sprintf("%d %v", trend.RegionID, trend.Means()))
	}
	if len(lines) != 2 {
		t.Errorf("quick start lines = %v", lines)
	}
}
