// Command perfbench is perftrack's benchmark harness. It runs one
// workload by name and seed, checks every output, and prints as its last
// line a JSON object with the end-to-end metrics (or, with -trace 1, the
// per-layer metrics of a traced run):
//
//	python3 perfbench/run.py --workload batch-wrf --seed 1 --seconds 30 --trace 0
//
// run.py builds this harness and cmd/trackd into .bench_build and then
// runs it from the repository root. The line before the result carries
// the host and build record, sample counts, tail percentiles and, for
// trackd-mixed, the per-class latencies and generator lateness.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// runOpts is one invocation of a workload.
type runOpts struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	root     string // repository checkout the benchmark runs in
	bin      string // directory holding the built trackd
	work     string // scratch directory for inputs, store and journal
}

// maxReasons bounds how many failure reasons a run keeps.
const maxReasons = 5

// failures counts failed ops (errored, refused, timed out or wrong) and
// keeps the first few reasons.
type failures struct {
	Failed  int      `json:"failed"`
	Reasons []string `json:"reasons,omitempty"`
}

func (f *failures) add(err error) {
	f.Failed++
	if len(f.Reasons) < maxReasons {
		f.Reasons = append(f.Reasons, err.Error())
	}
}

// outcome is what a workload measured.
type outcome struct {
	failures
	attempted int
	values    map[string]float64
	details   map[string]any
}

// Result is the last line the benchmark prints.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

var workloadNames = []string{"batch-wrf", "batch-evolution", "trackd-mixed"}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "worker" {
		os.Exit(workerMain(os.Args[2:]))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload name: batch-wrf, batch-evolution or trackd-mixed")
	seed := fs.Uint64("seed", 0, "workload seed (0 keeps the catalog's run seeds)")
	seconds := fs.Float64("seconds", 30, "measured duration")
	traced := fs.Int("trace", 0, "1 runs the traced replay and prints per-layer metrics")
	root := fs.String("root", ".", "repository checkout")
	bin := fs.String("bin", ".bench_build/perfbench", "directory holding the built trackd binary")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	absRoot, err := filepath.Abs(*root)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	absBin, err := filepath.Abs(*bin)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	o := runOpts{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *traced == 1,
		root:     absRoot,
		bin:      absBin,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	base := filepath.Join(absBin, "work")
	if err := os.MkdirAll(base, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	o.work, err = os.MkdirTemp(base, o.workload+"-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(o.work)

	var out *outcome
	if w, ok := batchWorkloads[o.workload]; ok {
		out, err = runBatch(ctx, o, w)
	} else if o.workload == "trackd-mixed" {
		out, err = runMixed(ctx, o)
	} else {
		err = fmt.Errorf("unknown workload %q (want one of %v)", o.workload, workloadNames)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return report(o, out, stdout, stderr)
}

// report prints the detail line and the result line.
func report(o runOpts, out *outcome, stdout, stderr io.Writer) int {
	specs := endToEnd
	if o.trace {
		specs = perLayer
	}
	metrics, missing := emit(specs, out.values)
	if !o.trace && len(missing) > 0 {
		fmt.Fprintf(stderr, "perfbench: workload measured no %v\n", missing)
		return 1
	}
	for _, r := range out.Reasons {
		fmt.Fprintln(stderr, "perfbench: failed op:", r)
	}
	details := map[string]any{
		"workload": o.workload,
		"seconds":  o.seconds.Seconds(),
		"trace":    o.trace,
		"host":     hostRecord(o.root, o.seed),
	}
	for k, v := range out.details {
		details[k] = v
	}
	if o.trace {
		details["layers_not_reached"] = missing
		moves := map[string]string{}
		for _, s := range perLayer {
			if s.Moves != "" {
				moves[s.Name] = s.Moves + " on " + s.On
			}
		}
		details["should_move"] = moves
	}
	line, err := json.Marshal(map[string]any{"perfbench": details})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	res := Result{
		Correct:   out.Failed == 0,
		Attempted: out.attempted,
		Failed:    out.Failed,
		Metrics:   metrics,
	}
	line, err = json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}
