package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"perftrack/internal/cluster"
	"perftrack/internal/core"
	"perftrack/internal/metrics"
	"perftrack/internal/oracle"
	"perftrack/internal/service"
	"perftrack/internal/store"
	"perftrack/internal/stream"
	"perftrack/internal/trace"
)

// The trackd-mixed traffic. Its shape is cmd/trackload's defaults: half
// the job submissions are cache-hit resubmits from a warm pool of 6
// (-cached 0.5 -warm 6), and each stream appends 32-burst chunks under
// 64-burst count windows (-chunk 32 -window 64), so every second append
// seals a window. Each class (cold jobs, cached jobs, and the appends of
// each stream) runs at classPerSec; that one rate is sized so trackd's
// CPU runs at about half of a 2-core host, and every run reports the CPU
// trackd actually used (trackd_cpu_frac, in cores).
const (
	// Every job uploads two oracle traces of mixRanks×mixIters×mixPhases
	// (2,560) bursts.
	mixRanks, mixIters, mixPhases = 32, 16, 5

	classPerSec  = 10.0
	liveStreams  = 2
	chunkBursts  = 32
	windowBursts = 64
	streamRanks  = 16
	warmPool     = 6
)

// uploadConfig is trackd's pipeline configuration for uploaded traces
// and streams (service.resolveThrough and resolveStream).
func uploadConfig() core.Config {
	return core.Config{Cluster: cluster.Config{Eps: 0.07, MinPts: 5, MinClusterWeight: 0.002}}
}

// jobInput is one pre-built job submission and its expected result.
type jobInput struct {
	body   []byte
	expect []byte
}

func buildJob(seed uint64, n int, label string) (*jobInput, error) {
	in := &jobInput{}
	var decoded []*trace.Trace
	var req service.JobRequest
	for k := 0; k < 2; k++ {
		t := oracle.GenTraces(mix64(seed, uint64(2*n+k)), fmt.Sprintf("%s%d%c", label, n, 'a'+k), mixRanks, mixIters, mixPhases)
		var buf bytes.Buffer
		if err := trace.Write(&buf, t); err != nil {
			return nil, err
		}
		d, _, err := trace.ReadWith(bytes.NewReader(buf.Bytes()), trace.DecodeOptions{Strict: true})
		if err != nil {
			return nil, err
		}
		decoded = append(decoded, d)
		req.Traces = append(req.Traces, buf.String())
	}
	var err error
	if in.body, err = json.Marshal(req); err != nil {
		return nil, err
	}
	in.expect, err = batchExport(decoded, uploadConfig())
	return in, err
}

// batchExport runs the in-process pipeline: frames, tracking, export.
func batchExport(traces []*trace.Trace, cfg core.Config) ([]byte, error) {
	frames, err := core.BuildFrames(traces, cfg)
	if err != nil {
		return nil, err
	}
	res, err := core.NewTracker(cfg).Track(frames)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = res.WriteJSON(&buf, metrics.DefaultSpace())
	return buf.Bytes(), err
}

// buildJobs builds n jobs on GOMAXPROCS goroutines.
func buildJobs(seed uint64, n int, label string) ([]*jobInput, error) {
	jobs := make([]*jobInput, n)
	errs := make([]error, n)
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				jobs[i], errs[i] = buildJob(seed, i, label)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return jobs, errors.Join(errs...)
}

// liveStream is one pre-built stream: its creation request and the text
// chunks it appends, in order.
type liveStream struct {
	id     string
	req    service.StreamRequest
	meta   trace.Metadata
	chunks [][]trace.Burst
	bodies [][]byte
	// done[k] closes when chunk k has been answered, so chunk k+1 of
	// the same stream is never sent before it.
	done []chan struct{}
}

func buildStream(seed uint64, s, appends int) (*liveStream, error) {
	iters := (appends*chunkBursts)/(streamRanks*mixPhases) + 1
	src := oracle.GenTraces(mix64(seed, uint64(1<<20+s)), fmt.Sprintf("live%d", s), streamRanks, iters, mixPhases)
	src.SortByTime()
	ls := &liveStream{
		id:   fmt.Sprintf("live%d", s),
		meta: src.Meta,
		done: make([]chan struct{}, appends),
	}
	ls.req = service.StreamRequest{
		ID: ls.id, Label: src.Meta.Label, Ranks: src.Meta.Ranks,
		Window: stream.WindowSpec{CountN: windowBursts},
		Series: "bench-" + ls.id,
	}
	for k := 0; k < appends; k++ {
		chunk := src.Bursts[k*chunkBursts : (k+1)*chunkBursts]
		var buf bytes.Buffer
		if err := trace.Write(&buf, &trace.Trace{Meta: src.Meta, Bursts: chunk}); err != nil {
			return nil, err
		}
		ls.chunks = append(ls.chunks, chunk)
		ls.bodies = append(ls.bodies, buf.Bytes())
		ls.done[k] = make(chan struct{})
	}
	return ls, nil
}

// expectedStream is the batch pipeline over the windows the stream's
// appends formed: the arrival order cut every windowBursts bursts.
func (ls *liveStream) expected(appended int) ([]byte, error) {
	var all []trace.Burst
	for _, c := range ls.chunks[:appended] {
		all = append(all, c...)
	}
	var windows []*trace.Trace
	for i := 0; i < len(all); i += windowBursts {
		w := &trace.Trace{Meta: ls.meta, Bursts: append([]trace.Burst(nil), all[i:min(i+windowBursts, len(all))]...)}
		w.Meta.Label = fmt.Sprintf("%s/w%d", ls.meta.Label, len(windows)+1)
		w.SortByTaskTime()
		windows = append(windows, w)
	}
	return batchExport(windows, uploadConfig())
}

// daemon is one running trackd.
type daemon struct {
	cmd   *exec.Cmd
	base  string
	pprof string // base URL of the loopback pprof listener
	done  chan struct{}
}

func startDaemon(ctx context.Context, bin, storeDir, logPath string) (*daemon, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	// The loopback pprof listener is only read for the Go runtime's
	// cumulative allocation count (alloc_mb_per_op).
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-store", storeDir, "-pprof-addr", "127.0.0.1:0")
	cmd.Stderr = logf
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "trackd: listening on "); ok {
				select {
				case addr <- a:
				default:
				}
			}
		}
		cmd.Wait()
		close(d.done)
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
		// trackd logs the pprof address before it starts listening.
		logged, err := os.ReadFile(logPath)
		if err == nil {
			err = errors.New("no pprof address in the trackd log")
			for _, line := range strings.Split(string(logged), "\n") {
				if _, rest, ok := strings.Cut(line, "trackd: pprof on "); ok {
					d.pprof, err = strings.TrimSuffix(rest, "/debug/pprof/"), nil
				}
			}
		}
		if err != nil {
			d.stop()
			return nil, err
		}
		return d, nil
	case <-d.done:
		return nil, fmt.Errorf("trackd exited before listening (log %s)", logPath)
	case <-time.After(30 * time.Second):
	case <-ctx.Done():
	}
	d.stop()
	return nil, errors.New("trackd did not start listening")
}

// stop sends SIGTERM, waits for exit, and kills after 15 s.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
	}
}

// cpu returns trackd's user plus system CPU so far, from /proc.
func (d *daemon) cpu() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command: state is field 3, utime
	// and stime are fields 14 and 15, in clock ticks (100 per second).
	rest := string(data[bytes.LastIndexByte(data, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	u, err1 := strconv.ParseInt(f[11], 10, 64)
	s, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("bad /proc stat")
	}
	return time.Duration(u+s) * 10 * time.Millisecond, nil
}

// peakRSSMB is trackd's VmHWM.
func (d *daemon) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM")
}

// totalAlloc is the Go runtime's cumulative heap allocation in trackd,
// from the MemStats block of the pprof heap profile.
func (d *daemon) totalAlloc(ctx context.Context) (uint64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.pprof+"/debug/pprof/heap?debug=1", nil)
	if err != nil {
		return 0, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "# TotalAlloc = "); ok {
			return strconv.ParseUint(v, 10, 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no TotalAlloc in the heap profile")
}

// client talks to one trackd over at most nproc connections.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: 2 * time.Minute}}
}

func (c *client) do(ctx context.Context, method, path string, body []byte) (int, http.Header, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, data, err
}

// scrape reads /metrics into name → value (labels dropped, summed).
func (c *client) scrape(ctx context.Context) (map[string]float64, error) {
	code, _, body, err := c.do(ctx, http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("/metrics: %d", code)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		name := line[:i]
		if j := strings.IndexByte(name, '{'); j >= 0 {
			name = name[:j]
		}
		out[name] += v
	}
	return out, nil
}

// submit posts a job and returns its view.
func (c *client) submit(ctx context.Context, body []byte) (service.JobView, int, string, error) {
	var v service.JobView
	code, hdr, data, err := c.do(ctx, http.MethodPost, "/v1/jobs", body)
	if err != nil {
		return v, 0, "", err
	}
	if code != http.StatusOK && code != http.StatusAccepted {
		return v, code, "", fmt.Errorf("submit: %d %s", code, bytes.TrimSpace(data))
	}
	return v, code, hdr.Get("X-Cache"), json.Unmarshal(data, &v)
}

// result long-polls a job's result.
func (c *client) result(ctx context.Context, id string) ([]byte, error) {
	code, _, data, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/result?wait=60s", nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("result %s: %d %s", id, code, bytes.TrimSpace(data))
	}
	return data, nil
}

// waitReady polls /readyz until it answers 200.
func (c *client) waitReady(ctx context.Context) error {
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		code, _, _, err := c.do(ctx, http.MethodGet, "/readyz", nil)
		if err == nil && code == http.StatusOK {
			return nil
		}
		select {
		case <-time.After(2 * time.Millisecond):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return errors.New("trackd never became ready")
}

// fillPool submits every warm-pool job, waits for its result and checks
// it against the in-process export.
func (c *client) fillPool(ctx context.Context, pool []*jobInput) error {
	for i, in := range pool {
		v, _, _, err := c.submit(ctx, in.body)
		if err != nil {
			return err
		}
		got, err := c.result(ctx, v.ID)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, in.expect) {
			return fmt.Errorf("warm job %d: result differs from the in-process export", i)
		}
	}
	return nil
}

// Request classes of the mix.
const (
	classCold = iota
	classCached
	classAppend
	classScrape
)

type mixedReq struct {
	due    time.Duration
	class  int
	index  int // cold or warm job, or chunk
	stream int
}

// schedule lays the classes out at fixed rates over d, each class offset
// by a fraction of its interval so classes do not fire in lockstep.
func schedule(d time.Duration, traced bool) []mixedReq {
	var out []mixedReq
	add := func(class int, perSec, phase float64, stream int) {
		interval := time.Duration(float64(time.Second) / perSec)
		for k := 0; ; k++ {
			due := time.Duration((float64(k) + phase) * float64(interval))
			if due >= d {
				return
			}
			out = append(out, mixedReq{due: due, class: class, index: k, stream: stream})
		}
	}
	add(classCold, classPerSec, 0.5, 0)
	add(classCached, classPerSec, 0.25, 0)
	for s := 0; s < liveStreams; s++ {
		add(classAppend, classPerSec, 0.1+0.5*float64(s), s)
	}
	if traced {
		add(classScrape, 5, 0.05, 0)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].due < out[j].due })
	return out
}

// count returns how many requests of class (and stream) the schedule has.
func count(reqs []mixedReq, class, stream int) int {
	n := 0
	for _, r := range reqs {
		if r.class == class && r.stream == stream {
			n++
		}
	}
	return n
}

// reqRecord is what one request measured.
type reqRecord struct {
	admit, fetch time.Duration
	jobID        string
	sealed       int
	incremental  int
	queueDepth   float64
	busy         float64
}

func runMixed(ctx context.Context, o runOpts) (*outcome, error) {
	conns := runtime.NumCPU()
	sched := schedule(o.seconds, o.trace)
	nCold := count(sched, classCold, 0)
	appends := count(sched, classAppend, 0)

	cold, err := buildJobs(o.seed, nCold, "cold")
	if err != nil {
		return nil, fmt.Errorf("building cold jobs: %w", err)
	}
	pool, err := buildJobs(mix64(o.seed, 1<<30), warmPool, "warm")
	if err != nil {
		return nil, fmt.Errorf("building warm pool: %w", err)
	}
	streams := make([]*liveStream, liveStreams)
	for s := range streams {
		if streams[s], err = buildStream(o.seed, s, appends); err != nil {
			return nil, err
		}
	}

	bin := filepath.Join(o.bin, "trackd")
	var setups []float64
	var d *daemon
	var c *client
	for k := 0; ; k++ {
		dir := filepath.Join(o.work, fmt.Sprintf("store%d", k))
		t0 := time.Now()
		d, err = startDaemon(ctx, bin, dir, filepath.Join(o.work, fmt.Sprintf("trackd%d.log", k)))
		if err != nil {
			return nil, err
		}
		c = newClient(d.base, conns)
		err = c.waitReady(ctx)
		if err == nil {
			err = c.fillPool(ctx, pool)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			d.stop()
			return nil, fmt.Errorf("trackd set-up: %w", err)
		}
		if !moreSetups(setups) {
			break
		}
		d.stop()
	}
	defer d.stop()

	for _, ls := range streams {
		body, _ := json.Marshal(ls.req)
		code, _, data, err := c.do(ctx, http.MethodPost, "/v1/streams", body)
		if err != nil || code != http.StatusCreated {
			return nil, fmt.Errorf("creating stream %s: %d %s %v", ls.id, code, data, err)
		}
	}

	before, err := c.scrape(ctx)
	if err != nil {
		return nil, err
	}
	cpu0, err := d.cpu()
	if err != nil {
		return nil, err
	}
	alloc0, err := d.totalAlloc(ctx)
	if err != nil {
		return nil, err
	}
	stat0 := readCPUStat()
	recs := make([]reqRecord, len(sched))
	var sentBytes int64
	var sentMu sync.Mutex
	sent := func(n int) { sentMu.Lock(); sentBytes += int64(n); sentMu.Unlock() }
	due := make([]time.Duration, len(sched))
	for i, r := range sched {
		due[i] = r.due
	}
	results := openLoop(ctx, due, conns, func(ctx context.Context, i int) error {
		r, rec := sched[i], &recs[i]
		switch r.class {
		case classCold:
			in := cold[r.index]
			sent(len(in.body))
			t := time.Now()
			v, code, xc, err := c.submit(ctx, in.body)
			rec.admit = time.Since(t)
			if err != nil {
				return err
			}
			if code != http.StatusAccepted || xc != "miss" {
				return fmt.Errorf("cold job %d answered %d, X-Cache %q", r.index, code, xc)
			}
			rec.jobID = v.ID
			t = time.Now()
			got, err := c.result(ctx, v.ID)
			rec.fetch = time.Since(t)
			if err != nil {
				return err
			}
			if !bytes.Equal(got, in.expect) {
				return fmt.Errorf("cold job %d: result differs from the in-process export", r.index)
			}
		case classCached:
			in := pool[r.index%len(pool)]
			sent(len(in.body))
			t := time.Now()
			v, code, xc, err := c.submit(ctx, in.body)
			rec.admit = time.Since(t)
			if err != nil {
				return err
			}
			if code != http.StatusOK || xc != "hit" {
				return fmt.Errorf("cached job %d answered %d, X-Cache %q", r.index, code, xc)
			}
			t = time.Now()
			got, err := c.result(ctx, v.ID)
			rec.fetch = time.Since(t)
			if err != nil {
				return err
			}
			if !bytes.Equal(got, in.expect) {
				return fmt.Errorf("cached job %d: result differs from its first result", r.index)
			}
		case classAppend:
			ls := streams[r.stream]
			defer close(ls.done[r.index])
			if r.index > 0 {
				select {
				case <-ls.done[r.index-1]:
				case <-ctx.Done():
					return ctx.Err()
				}
			}
			sent(len(ls.bodies[r.index]))
			code, _, data, err := c.do(ctx, http.MethodPost, "/v1/streams/"+ls.id+"/bursts?strict=1", ls.bodies[r.index])
			if err != nil {
				return err
			}
			if code != http.StatusOK {
				return fmt.Errorf("append %s/%d: %d %s", ls.id, r.index, code, bytes.TrimSpace(data))
			}
			var ar service.StreamAppendResponse
			if err := json.Unmarshal(data, &ar); err != nil {
				return err
			}
			if ar.Appended != chunkBursts || ar.Accepted != chunkBursts {
				return fmt.Errorf("append %s/%d: %d appended, %d accepted of %d", ls.id, r.index, ar.Appended, ar.Accepted, chunkBursts)
			}
			rec.sealed = len(ar.Sealed)
			for _, dl := range ar.Sealed {
				if dl.Incremental {
					rec.incremental++
				}
			}
		case classScrape:
			m, err := c.scrape(ctx)
			if err != nil {
				return err
			}
			rec.queueDepth = m["trackd_queue_depth"]
			if w := m["trackd_workers"]; w > 0 {
				rec.busy = m["trackd_workers_busy"] / w
			}
		}
		return nil
	})
	cpu1, err := d.cpu()
	if err != nil {
		return nil, err
	}
	steal := stealFrac(stat0, readCPUStat())
	alloc1, err := d.totalAlloc(ctx)
	if err != nil {
		return nil, err
	}
	after, err := c.scrape(ctx)
	if err != nil {
		return nil, err
	}

	// Tally the timed requests by class.
	var attempted int
	var fails failures
	lat := map[string][]float64{}
	var all, late []float64
	var sealedWindows, incremental int
	for i, r := range sched {
		res := results[i]
		if r.class == classScrape {
			if res.Err != nil {
				return nil, fmt.Errorf("scraping /metrics: %w", res.Err)
			}
			continue
		}
		attempted++
		late = append(late, ms(res.Late))
		if res.Err != nil {
			fails.add(res.Err)
			continue
		}
		l := ms(res.Latency)
		all = append(all, l)
		switch {
		case r.class == classCold:
			lat["cold_job_ms"] = append(lat["cold_job_ms"], l)
		case r.class == classCached:
			lat["cached_job_ms"] = append(lat["cached_job_ms"], l)
		case recs[i].sealed > 0:
			lat["window_close_ms"] = append(lat["window_close_ms"], l)
			sealedWindows += recs[i].sealed
			incremental += recs[i].incremental
		default:
			lat["append_ms"] = append(lat["append_ms"], l)
		}
	}
	ops := attempted
	if ops == 0 {
		return nil, errors.New("no request was scheduled")
	}
	peak, err := d.peakRSSMB()
	if err != nil {
		return nil, err
	}

	// Each stream's final export must equal the batch pipeline over the
	// same windows.
	windowsSealed := 0
	for s, ls := range streams {
		attempted++
		err := func() error {
			code, _, data, err := c.do(ctx, http.MethodPost, "/v1/streams/"+ls.id+"/finish", nil)
			if err != nil {
				return err
			}
			if code != http.StatusOK {
				return fmt.Errorf("finish %s: %d %s", ls.id, code, bytes.TrimSpace(data))
			}
			var fin struct {
				Stream service.StreamView `json:"stream"`
			}
			if err := json.Unmarshal(data, &fin); err != nil {
				return err
			}
			n := fin.Stream.Stats.WindowsSealed
			windowsSealed += n
			key := fmt.Sprintf("stream.%s.w%06d", ls.id, n-1)
			code, _, got, err := c.do(ctx, http.MethodGet, "/v1/results/"+key, nil)
			if err != nil {
				return err
			}
			if code != http.StatusOK {
				return fmt.Errorf("stream %s export %s: %d", ls.id, key, code)
			}
			want, err := ls.expected(count(sched, classAppend, s))
			if err != nil {
				return err
			}
			if !bytes.Equal(got, want) {
				return fmt.Errorf("stream %s: final export differs from the batch pipeline over its windows", ls.id)
			}
			return nil
		}()
		if err != nil {
			fails.add(err)
		}
	}

	dists := map[string]Dist{}
	for k, xs := range lat {
		dists[k] = summarize(xs)
	}
	// The op whose latency the end-to-end metrics report is the cold job,
	// the full write path.
	coldD := dists["cold_job_ms"]
	lateD := summarize(late)
	cpuPerOp := ms(cpu1-cpu0) / float64(ops)
	allocPerOp := float64(alloc1-alloc0) / float64(ops) / (1 << 20)
	values := map[string]float64{
		"setup_s":         median(append([]float64(nil), setups...)),
		"cpu_ms_per_op":   cpuPerOp,
		"max_rss_mb":      peak,
		"alloc_mb_per_op": allocPerOp,
		"op_ms.p50":       coldD.P50,
	}
	out := &outcome{
		failures:  fails,
		attempted: attempted,
		values:    values,
		details: map[string]any{
			"op":              "cold job, timed from its due time; cpu_ms_per_op and alloc_mb_per_op are per request of the mix",
			"op_ms":           coldD,
			"requests_ms":     summarize(all),
			"classes":         dists,
			"late_ms":         lateD,
			"late_ms_max":     maxOf(late),
			"setup_s_samples": setups,
			"trackd_cpu_frac": (cpu1 - cpu0).Seconds() / o.seconds.Seconds(),
			"host_steal_frac": steal,
			"connections":     conns,
			"rates_per_s": map[string]float64{
				"cold": classPerSec, "cached": classPerSec, "append_per_stream": classPerSec, "streams": liveStreams,
			},
		},
	}
	if !o.trace {
		return out, nil
	}

	// Traced run: class latencies, /metrics deltas and JobView
	// timestamps, plus replays of store and stream calls.
	lv := map[string]float64{
		"traced.op_ms.p50":       coldD.P50,
		"traced.op_ms.tail":      coldD.Tail,
		"traced.cpu_ms_per_op":   cpuPerOp,
		"traced.alloc_mb_per_op": allocPerOp,
		"loadgen.late_ms.p50":    lateD.P50,
		"loadgen.late_ms.max":    maxOf(late),
		"trace.input_mb":         float64(sentBytes) / (1 << 20) / float64(ops),
		"stream.windows_sealed":  float64(windowsSealed),
	}
	for k, dd := range dists {
		lv[k+".p50"] = dd.P50
		lv[k+".tail"] = dd.Tail
	}
	delta := func(name string) float64 { return after[name] - before[name] }
	lv["service.rejected"] = delta("trackd_jobs_rejected_total") + delta("trackd_degraded_responses_total")
	if h, m := delta("trackd_cache_hits_total"), delta("trackd_cache_misses_total"); h+m > 0 {
		lv["service.cache_hit_frac"] = h / (h + m)
	}
	if h, m := delta("trackd_trace_cache_hits_total"), delta("trackd_trace_cache_misses_total"); h+m > 0 {
		lv["store.trace_cache_hit_frac"] = h / (h + m)
	}
	lv["store.fsyncs_per_op"] = (delta("trackd_journal_fsyncs") + delta("trackd_store_fsyncs")) / float64(ops)
	lv["stream.backpressure"] = delta("trackd_stream_backpressure_total")
	if sealedWindows > 0 {
		lv["stream.incremental_frac"] = float64(incremental) / float64(sealedWindows)
	}
	var admitCold, admitCached, fetch, qwait, exec, unattributed, depth, busy []float64
	for i, r := range sched {
		rec := &recs[i]
		switch r.class {
		case classCached:
			if results[i].Err == nil {
				admitCached = append(admitCached, ms(rec.admit))
				fetch = append(fetch, ms(rec.fetch))
			}
		case classScrape:
			depth = append(depth, rec.queueDepth)
			busy = append(busy, rec.busy)
		case classCold:
			if results[i].Err != nil {
				continue
			}
			admitCold = append(admitCold, ms(rec.admit))
			code, _, data, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+rec.jobID, nil)
			if err != nil || code != http.StatusOK {
				return nil, fmt.Errorf("job view %s: %d %v", rec.jobID, code, err)
			}
			var v service.JobView
			if err := json.Unmarshal(data, &v); err != nil {
				return nil, err
			}
			sub, e1 := time.Parse(time.RFC3339Nano, v.SubmittedAt)
			st, e2 := time.Parse(time.RFC3339Nano, v.StartedAt)
			fin, e3 := time.Parse(time.RFC3339Nano, v.FinishedAt)
			if err := errors.Join(e1, e2, e3); err != nil {
				return nil, fmt.Errorf("job view %s timestamps: %w", rec.jobID, err)
			}
			qwait = append(qwait, ms(st.Sub(sub)))
			exec = append(exec, ms(fin.Sub(st)))
			unattributed = append(unattributed,
				ms(results[i].Latency-results[i].Late-rec.admit)-ms(st.Sub(sub))-ms(fin.Sub(st)))
		}
	}
	lv["service.admit_cold_ms"] = median(admitCold)
	lv["service.admit_cached_ms"] = median(admitCached)
	lv["service.fetch_ms"] = median(fetch)
	lv["service.queue_wait_ms"] = median(qwait)
	lv["service.execute_ms"] = median(exec)
	lv["unattributed_ms"] = median(unattributed)
	lv["service.queue_depth_max"] = maxOf(depth)
	lv["service.workers_busy_frac"] = mean(busy)
	if err := replayStore(filepath.Join(o.work, "replay"), cold, lv); err != nil {
		return nil, err
	}
	if err := replayStreams(streams, appends, lv); err != nil {
		return nil, err
	}
	out.values = lv
	out.details["unattributed"] = "per cold job: latency from send minus admission round trip, queue wait and execution"
	return out, nil
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	if len(xs) == 0 {
		return 0
	}
	return m
}

// replayStore times the trace, journal, store and trace-cache calls a
// cold job makes, on a scratch directory of the same filesystem, with
// each cold job's own bytes.
func replayStore(dir string, cold []*jobInput, lv map[string]float64) error {
	j, err := store.OpenJournal(filepath.Join(dir, "journal"), store.JournalOptions{})
	if err != nil {
		return err
	}
	defer j.Close()
	st, err := store.Open(filepath.Join(dir, "perfdb"), store.Options{})
	if err != nil {
		return err
	}
	defer st.Close()
	tc, err := store.OpenTraceCache(filepath.Join(dir, "tracecache"), 0)
	if err != nil {
		return err
	}
	var decode, hash, intent, appendT, cacheGet []float64
	for i, in := range cold {
		var req service.JobRequest
		if err := json.Unmarshal(in.body, &req); err != nil {
			return err
		}
		t := time.Now()
		var ts []*trace.Trace
		for _, text := range req.Traces {
			tr, _, err := trace.ReadWith(strings.NewReader(text), trace.DecodeOptions{Strict: true})
			if err != nil {
				return err
			}
			ts = append(ts, tr)
		}
		decode = append(decode, ms(time.Since(t)))
		t = time.Now()
		sum := trace.HashSequence(ts)
		hash = append(hash, ms(time.Since(t)))
		key := fmt.Sprintf("%x", sum)

		t = time.Now()
		if err := j.Intent(key, in.body); err != nil {
			return err
		}
		intent = append(intent, ms(time.Since(t)))
		if err := j.Resolve(key, "", true); err != nil {
			return err
		}
		t = time.Now()
		if err := st.Append(store.Record{Key: key, Label: fmt.Sprintf("cold%d", i), UnixNano: time.Now().UnixNano(), Payload: in.expect}); err != nil {
			return err
		}
		appendT = append(appendT, ms(time.Since(t)))

		keys := make([]string, len(req.Traces))
		for k, text := range req.Traces {
			keys[k] = store.TraceKey([]byte(text), false)
			if err := tc.Put(keys[k], trace.EncodeColbin(ts[k])); err != nil {
				return err
			}
		}
		t = time.Now()
		for _, k := range keys {
			bin, ok := tc.Get(k)
			if !ok {
				return errors.New("trace cache replay: entry missing")
			}
			if _, err := trace.DecodeColbin(bin); err != nil {
				return err
			}
		}
		cacheGet = append(cacheGet, ms(time.Since(t)))
	}
	lv["trace.decode_ms"] = median(decode)
	lv["trace.hash_ms"] = median(hash)
	lv["store.journal_intent_ms"] = median(intent)
	// Appends fsync in batches, so the mean carries the amortised sync.
	lv["store.append_ms"] = mean(appendT)
	lv["store.trace_cache_get_ms"] = median(cacheGet)
	return nil
}

// replayStreams appends each stream's chunks to an in-process
// stream.Session, decoding each chunk as trackd does, and times appends
// that seal a window apart from those that do not.
func replayStreams(streams []*liveStream, appends int, lv map[string]float64) error {
	var plain, seal []float64
	ctx := context.Background()
	for _, ls := range streams {
		sess, err := stream.New(stream.Config{
			Meta:     trace.Metadata{Label: ls.req.Label, Ranks: ls.req.Ranks},
			Window:   ls.req.Window,
			Pipeline: uploadConfig(),
		})
		if err != nil {
			return err
		}
		for k := 0; k < appends; k++ {
			t := time.Now()
			tr, _, err := trace.DecodeAny(ls.bodies[k], trace.DecodeOptions{Strict: true})
			if err != nil {
				return err
			}
			sealed := 0
			for _, b := range tr.Bursts {
				res, err := sess.Append(ctx, b)
				if err != nil {
					return err
				}
				sealed += len(res.Sealed)
			}
			if sealed > 0 {
				seal = append(seal, ms(time.Since(t)))
			} else {
				plain = append(plain, ms(time.Since(t)))
			}
		}
	}
	lv["stream.append_ms"] = median(plain)
	lv["stream.seal_ms"] = median(seal)
	return nil
}
