package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"perftrack/internal/apps"
	"perftrack/internal/core"
	"perftrack/internal/metrics"
	"perftrack/internal/mpisim"
	"perftrack/internal/trace"
)

// batchWorkload is one catalog study analysed in a closed loop, one
// analysis at a time, by a worker process of its own.
type batchWorkload struct {
	study  string
	colbin bool // inputs are colbin files (else text)
	// pinned is the SHA-256 of the export at seed 0, the catalog's own
	// run seeds.
	pinned string
}

var batchWorkloads = map[string]batchWorkload{
	"batch-wrf":       {study: "WRF", pinned: "073ea2f58b6f58726ca5846df3911d671278f6995a8ce51eff801454dc40a8e3"},
	"batch-evolution": {study: "Gromacs-evolution", colbin: true, pinned: "136b439bb71fd0dab2e554ffcfcb41937195bb666902d84a6ecea811f007b5ba"},
}

// warmUp is how long a worker keeps analysing, untimed, after its
// set-up analysis: the first analyses of a fresh process run on a
// still-growing heap and are far slower than the steady state.
const warmUp = time.Second

// seededStudy returns the catalog study with its run seeds derived from
// the workload seed. Seed 0 keeps the catalog's own seeds.
func seededStudy(name string, seed uint64) (apps.Study, error) {
	st, err := apps.ByName(name)
	if err != nil {
		return st, err
	}
	if seed != 0 {
		runs := append([]mpisim.Run(nil), st.Runs...)
		for i := range runs {
			runs[i].Scenario.Seed = mix64(seed, uint64(i))
		}
		st.Runs = runs
	}
	return st, nil
}

// mix64 is the SplitMix64 finaliser over (seed, i): distinct workload
// seeds give unrelated run seeds.
func mix64(seed, i uint64) uint64 {
	z := seed*0x9e3779b97f4a7c15 + i + 1
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// writeBatchInputs simulates the study and writes one trace file per
// frame into dir, returning the paths in frame order.
func writeBatchInputs(dir string, st apps.Study, colbin bool) ([]string, error) {
	traces, err := mpisim.SimulateSeries(st.Runs)
	if err != nil {
		return nil, err
	}
	if st.Windows > 1 {
		traces = traces[0].SplitWindows(st.Windows)
	}
	paths := make([]string, len(traces))
	for i, t := range traces {
		if colbin {
			paths[i] = filepath.Join(dir, fmt.Sprintf("%02d.colbin", i))
			err = trace.WriteColbinFile(paths[i], t)
		} else {
			paths[i] = filepath.Join(dir, fmt.Sprintf("%02d.prv.txt", i))
			err = trace.WriteFile(paths[i], t)
		}
		if err != nil {
			return nil, err
		}
	}
	return paths, nil
}

// workerReport is what a batch worker process prints when it exits.
type workerReport struct {
	failures
	Ops        int                  `json:"ops"`
	LatMS      []float64            `json:"lat_ms"`
	CPUMS      float64              `json:"cpu_ms"`
	AllocBytes uint64               `json:"alloc_bytes"`
	MaxRSSKB   int64                `json:"max_rss_kb"`
	Layers     map[string][]float64 `json:"layers,omitempty"`
}

func runBatch(ctx context.Context, o runOpts, w batchWorkload) (*outcome, error) {
	st, err := seededStudy(w.study, o.seed)
	if err != nil {
		return nil, err
	}
	paths, err := writeBatchInputs(o.work, st, w.colbin)
	if err != nil {
		return nil, fmt.Errorf("writing inputs: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	pinned := ""
	if o.seed == 0 {
		pinned = w.pinned
	}
	args := func(seconds float64) []string {
		a := []string{"worker", "-study", w.study, "-seconds", strconv.FormatFloat(seconds, 'f', -1, 64),
			"-pinned", pinned, "-trace=" + strconv.FormatBool(o.trace), "-colbin=" + strconv.FormatBool(w.colbin)}
		return append(a, paths...)
	}
	var setups []float64
	// Set-up-only workers first, then the timed worker, whose set-up
	// is one more sample.
	for moreSetups(setups) {
		s, rep, err := startWorker(ctx, self, args(0))
		if err != nil {
			return nil, err
		}
		if rep.Failed > 0 {
			return nil, fmt.Errorf("set-up analysis failed: %s", strings.Join(rep.Reasons, "; "))
		}
		setups = append(setups, s)
	}
	stat0 := readCPUStat()
	s, rep, err := startWorker(ctx, self, args(o.seconds.Seconds()))
	if err != nil {
		return nil, err
	}
	steal := stealFrac(stat0, readCPUStat())
	setups = append(setups, s)
	if rep.Ops == 0 {
		return nil, errors.New("worker completed no analysis")
	}

	lat := summarize(rep.LatMS)
	values := map[string]float64{
		"setup_s":         median(setups),
		"cpu_ms_per_op":   rep.CPUMS / float64(rep.Ops),
		"max_rss_mb":      float64(rep.MaxRSSKB) / 1024,
		"alloc_mb_per_op": float64(rep.AllocBytes) / float64(rep.Ops) / (1 << 20),
		"op_ms.p50":       lat.P50,
	}
	out := &outcome{
		failures:  rep.failures,
		attempted: rep.Ops,
		values:    values,
		details: map[string]any{
			"op":              "analysis",
			"op_ms":           lat,
			"setup_s_samples": setups,
			"frames":          len(paths),
			"host_steal_frac": steal,
		},
	}
	if o.trace {
		// The traced run reports its own end-to-end numbers under
		// traced.*, and per-layer medians over its analyses.
		layer := map[string]float64{
			"traced.op_ms.p50":     lat.P50,
			"traced.op_ms.tail":    lat.Tail,
			"traced.cpu_ms_per_op": rep.CPUMS / float64(rep.Ops),
		}
		for k, xs := range rep.Layers {
			layer[k] = median(xs)
		}
		out.values = layer
		out.details["combine_accounting"] = "core.combine_ms is the tracker's self time on one processor: with GOMAXPROCS 1 and the garbage collector paused, one more Tracker.TrackContext call minus the same evaluator calls made back to back, so parallel workers neither overlap nor idle-spin"
	}
	return out, nil
}

// startWorker runs one worker process and returns its set-up time (exec
// until the first, untimed analysis is done) and its report.
func startWorker(ctx context.Context, self string, args []string) (float64, *workerReport, error) {
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, nil, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, nil, err
	}
	r := bufio.NewReader(stdout)
	line, err := r.ReadString('\n')
	setup := time.Since(t0).Seconds()
	if err != nil || strings.TrimSpace(line) != "ready" {
		io.Copy(io.Discard, r)
		cmd.Wait()
		return 0, nil, fmt.Errorf("worker did not become ready (%q): %v", line, err)
	}
	var rep workerReport
	derr := json.NewDecoder(r).Decode(&rep)
	io.Copy(io.Discard, r)
	if err := cmd.Wait(); err != nil {
		return 0, nil, fmt.Errorf("worker: %w", err)
	}
	if derr != nil {
		return 0, nil, fmt.Errorf("worker report: %w", derr)
	}
	return setup, &rep, nil
}

// analyst runs and checks batch analyses inside a worker process.
type analyst struct {
	st     apps.Study
	ms     []metrics.Metric
	paths  []string
	colbin bool
	pinned string
	first  []byte
}

// analysis is one op: decode every input, build frames, track, export.
// Each stage is timed into lt when lt is non-nil.
type analysis struct {
	frames  []*core.Frame
	res     *core.Result
	export  []byte
	inBytes int
}

func (an *analyst) analyse(ctx context.Context, lt map[string]float64) (*analysis, error) {
	out := &analysis{}
	t := time.Now()
	traces := make([]*trace.Trace, len(an.paths))
	var decode time.Duration
	for i, p := range an.paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		out.inBytes += len(data)
		d0 := time.Now()
		if an.colbin {
			traces[i], err = trace.DecodeColbin(data)
		} else {
			traces[i], _, err = trace.ReadWith(bytes.NewReader(data), trace.DecodeOptions{Strict: true})
		}
		decode += time.Since(d0)
		if err != nil {
			return nil, fmt.Errorf("decoding %s: %w", p, err)
		}
	}
	t1 := time.Now()
	frames, err := core.BuildFramesContext(ctx, traces, an.st.Track)
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	res, err := core.NewTracker(an.st.Track).TrackContext(ctx, frames)
	if err != nil {
		return nil, err
	}
	t3 := time.Now()
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf, an.ms); err != nil {
		return nil, err
	}
	t4 := time.Now()
	out.frames, out.res, out.export = frames, res, buf.Bytes()
	if lt != nil {
		lt["trace.decode_ms"] = ms(decode)
		lt["trace.input_mb"] = float64(out.inBytes) / (1 << 20)
		lt["core.build_frames_ms"] = ms(t2.Sub(t1))
		lt["core.track_ms"] = ms(t3.Sub(t2))
		lt["core.export_ms"] = ms(t4.Sub(t3))
		lt["core.export_kb"] = float64(len(out.export)) / 1024
		lt["unattributed_ms"] = ms(t4.Sub(t)) - (ms(decode) + ms(t2.Sub(t1)) + ms(t3.Sub(t2)) + ms(t4.Sub(t3)))
	}
	return out, nil
}

// check verifies one analysis against the catalog's expectations, the
// first export of this process, and (for seed 0) the pinned digest.
func (an *analyst) check(a *analysis) error {
	st := an.st
	if len(a.res.Frames) != st.ExpectedImages || a.res.SpanningCount != st.ExpectedRegions ||
		math.Abs(a.res.Coverage-st.ExpectedCoverage) > 1e-9 {
		return fmt.Errorf("%d images, %d regions, coverage %.3f; want %d, %d, %.3f",
			len(a.res.Frames), a.res.SpanningCount, a.res.Coverage,
			st.ExpectedImages, st.ExpectedRegions, st.ExpectedCoverage)
	}
	if an.first == nil {
		if an.pinned != "" {
			if sum := sha256.Sum256(a.export); hex.EncodeToString(sum[:]) != an.pinned {
				return fmt.Errorf("export sha256 %x, pinned %s", sum, an.pinned)
			}
		}
		an.first = append([]byte(nil), a.export...)
		return nil
	}
	if !bytes.Equal(a.export, an.first) {
		return errors.New("export differs from the first analysis")
	}
	return nil
}

func workerMain(args []string) int {
	fs := flag.NewFlagSet("worker", flag.ContinueOnError)
	study := fs.String("study", "", "catalog study")
	seconds := fs.Float64("seconds", 0, "timed duration (0: set-up only)")
	pinned := fs.String("pinned", "", "expected export sha256")
	traced := fs.Bool("trace", false, "replay every layer of each analysis")
	colbin := fs.Bool("colbin", false, "inputs are colbin files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	st, err := apps.ByName(*study)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench worker:", err)
		return 1
	}
	an := &analyst{st: st, ms: st.Track.Metrics, paths: fs.Args(), colbin: *colbin, pinned: *pinned}
	if len(an.ms) == 0 {
		an.ms = metrics.DefaultSpace()
	}
	rep, err := an.loop(context.Background(), time.Duration(*seconds*float64(time.Second)), *traced, func() {
		fmt.Println("ready")
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench worker:", err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		return 1
	}
	return 0
}

// loop runs the untimed set-up analysis, calls ready, then runs timed
// analyses back to back until d has elapsed.
func (an *analyst) loop(ctx context.Context, d time.Duration, traced bool, ready func()) (*workerReport, error) {
	a, err := an.analyse(ctx, nil)
	if err != nil {
		return nil, fmt.Errorf("set-up analysis: %w", err)
	}
	rep := &workerReport{}
	if err := an.check(a); err != nil {
		rep.add(fmt.Errorf("set-up: %w", err))
	}
	ready()
	if d > 0 {
		for warm := time.Now().Add(warmUp); time.Now().Before(warm); {
			a, err := an.analyse(ctx, nil)
			if err == nil {
				err = an.check(a)
			}
			if err != nil {
				rep.Ops++
				rep.add(fmt.Errorf("warm-up: %w", err))
			}
		}
	}
	if traced {
		rep.Layers = map[string][]float64{}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuTime()
	stop := time.Now().Add(d)
	for time.Now().Before(stop) {
		var lt map[string]float64
		if traced {
			lt = map[string]float64{}
		}
		var ma, mb runtime.MemStats
		if traced {
			runtime.ReadMemStats(&ma)
		}
		ca := cpuTime()
		t := time.Now()
		a, err := an.analyse(ctx, lt)
		lat := ms(time.Since(t))
		cpu := cpuTime() - ca
		rep.Ops++
		if err == nil {
			err = an.check(a)
		}
		if err == nil && traced {
			runtime.ReadMemStats(&mb)
			lt["traced.alloc_mb_per_op"] = float64(mb.TotalAlloc-ma.TotalAlloc) / (1 << 20)
			err = replay(ctx, a, an.st.Track, lt)
		}
		if err != nil {
			rep.add(err)
			continue
		}
		rep.LatMS = append(rep.LatMS, lat)
		if traced {
			rep.CPUMS += ms(cpu)
			for k, v := range lt {
				rep.Layers[k] = append(rep.Layers[k], v)
			}
		}
	}
	if !traced {
		rep.CPUMS = ms(cpuTime() - c0)
	}
	runtime.ReadMemStats(&m1)
	rep.AllocBytes = m1.TotalAlloc - m0.TotalAlloc
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		rep.MaxRSSKB = ru.Maxrss
	}
	return rep, nil
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
