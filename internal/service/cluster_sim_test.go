package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"perftrack/internal/mesh"
	"perftrack/internal/oracle"
	"perftrack/internal/trace"
)

// Whole-cluster deterministic simulation: the single-node scheduler of
// simulation_test.go extended to a 3-node mesh over an in-memory
// transport. Seeded schedules interleave submits (including duplicate
// bursts landing on different nodes), single-node crashes with restarts
// over the same directory, and full network isolation of one node, with
// membership probes and rebalances at the heal points. Two invariants
// are enforced over the entire schedule, cluster-wide:
//
//	no acked result lost  — after every heal, every key that ever
//	                        completed is served with byte-identical
//	                        payload by EVERY node (locally or via
//	                        scatter-gather), and both journals on every
//	                        node are empty (no stranded intents, no
//	                        unpaid replication debt);
//	no double compute     — the pipeline runs exactly once per distinct
//	                        key across all nodes and all server
//	                        generations, crashes and partitions included.
//
// Topology events fire only at quiescent points and at most one node is
// degraded at a time, so replication (R=2) guarantees a surviving holder
// for every completed key — which is precisely what makes exactly-once
// provable rather than merely likely.

// clusterNet is an in-memory transport shared by all nodes: peer URLs of
// the form http://<id>.mesh dispatch straight into that node's HTTP
// handler. A down node refuses every connection; a cut severs the pair
// symmetrically (identified by the X-Mesh-From header every mesh call
// carries).
type clusterNet struct {
	mu       sync.Mutex
	handlers map[string]http.Handler
	down     map[string]bool
	cut      map[string]bool // pairKey(a,b) -> severed
}

func newClusterNet() *clusterNet {
	return &clusterNet{
		handlers: map[string]http.Handler{},
		down:     map[string]bool{},
		cut:      map[string]bool{},
	}
}

func pairKey(a, b string) string {
	if a > b {
		a, b = b, a
	}
	return a + "|" + b
}

func (c *clusterNet) RoundTrip(req *http.Request) (*http.Response, error) {
	to := strings.TrimSuffix(req.URL.Host, ".mesh")
	from := req.Header.Get("X-Mesh-From")
	c.mu.Lock()
	h := c.handlers[to]
	dead := c.down[to]
	severed := from != "" && c.cut[pairKey(from, to)]
	c.mu.Unlock()
	if h == nil || dead || severed {
		return nil, fmt.Errorf("connection refused (%s unreachable)", to)
	}
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, req)
	resp := rw.Result()
	resp.Request = req
	return resp, nil
}

func (c *clusterNet) setHandler(id string, h http.Handler) {
	c.mu.Lock()
	c.handlers[id] = h
	c.down[id] = false
	c.mu.Unlock()
}

func (c *clusterNet) setDown(id string) {
	c.mu.Lock()
	c.down[id] = true
	c.mu.Unlock()
}

func (c *clusterNet) handler(id string) http.Handler {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.handlers[id]
}

// sever cuts (or heals) the links between id and every other node.
func (c *clusterNet) sever(id string, others []string, on bool) {
	c.mu.Lock()
	for _, o := range others {
		if o != id {
			c.cut[pairKey(id, o)] = on
		}
	}
	c.mu.Unlock()
}

// clusterUploads builds the request pool: six distinct tiny jobs, two of
// them filed under a series so schedules also exercise the cluster-wide
// series surface.
func clusterUploads(t *testing.T) []JobRequest {
	t.Helper()
	enc := func(tr *trace.Trace) string {
		var sb strings.Builder
		if err := trace.Write(&sb, tr); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	reqs := make([]JobRequest, 6)
	for i := range reqs {
		reqs[i] = JobRequest{
			Traces: []string{
				enc(oracle.GenTraces(uint64(300+i), fmt.Sprintf("c%da", i), 2, 2, 2+i%2)),
				enc(oracle.GenTraces(uint64(400+i), fmt.Sprintf("c%db", i), 2, 2, 2+i%2)),
			},
			Config: &ConfigSpec{Eps: 0.07, MinPts: 3},
		}
		if i%3 == 0 {
			reqs[i].Series = "simser"
			reqs[i].RunLabel = fmt.Sprintf("r%d", i)
		}
	}
	return reqs
}

type clusterJob struct {
	node int
	j    *Job
}

// clusterSim is the state of one seeded whole-cluster schedule.
type clusterSim struct {
	t    *testing.T
	seed uint64
	rng  *rand.Rand
	net  *clusterNet
	ids  []string
	cfgs []Config
	srvs []*Server
	reqs []JobRequest
	keys []string // keys[i] = fingerprint of reqs[i]

	clock   int64
	log     []string
	pending []clusterJob
	results map[string][]byte // acked ledger: key -> first observed bytes

	execMu sync.Mutex
	execs  map[string]int // key -> executions across all nodes+generations

	submittedEver []bool
	isoClaim      []int // req -> node that claimed it while isolated, -1 none
	isolated      int   // node currently severed, -1 none
	downNode      int   // node currently crashed, -1 none
}

func (c *clusterSim) tick(format string, args ...any) {
	c.clock++
	c.log = append(c.log, fmt.Sprintf("t=%03d %s", c.clock, fmt.Sprintf(format, args...)))
}

func (c *clusterSim) fail(format string, args ...any) {
	c.t.Helper()
	c.t.Fatalf("cluster schedule seed %d:\n  %s\nevent log:\n  %s",
		c.seed, fmt.Sprintf(format, args...), strings.Join(c.log, "\n  "))
}

func (c *clusterSim) noteExec(key string) {
	c.execMu.Lock()
	c.execs[key]++
	c.execMu.Unlock()
}

// runningNodes are the nodes clients can currently reach.
func (c *clusterSim) runningNodes() []int {
	out := make([]int, 0, len(c.srvs))
	for i := range c.srvs {
		if i != c.downNode {
			out = append(out, i)
		}
	}
	return out
}

// majorityNodes are running nodes on the connected side of a partition.
func (c *clusterSim) majorityNodes() []int {
	out := make([]int, 0, len(c.srvs))
	for _, i := range c.runningNodes() {
		if i != c.isolated {
			out = append(out, i)
		}
	}
	return out
}

// majorityReq picks a request the connected side may submit: anything
// not claimed by the isolated node (whose fresh keys must stay exclusive
// to it until the heal, or exactly-once would depend on a race).
func (c *clusterSim) majorityReq() int {
	var cands []int
	for ri := range c.reqs {
		if c.isoClaim[ri] == -1 {
			cands = append(cands, ri)
		}
	}
	return cands[c.rng.IntN(len(cands))]
}

// isolatedReq picks a request the severed node ni may submit without
// risking a cross-partition double compute: a key it already holds (pure
// local read), one it claimed earlier, or a fresh key never submitted
// anywhere (which it claims).
func (c *clusterSim) isolatedReq(ni int) (int, bool) {
	var cands []int
	for ri := range c.reqs {
		switch {
		case c.isoClaim[ri] == ni:
			cands = append(cands, ri)
		case c.isoClaim[ri] != -1:
		default:
			if _, held := c.srvs[ni].Store().GetMeta(c.keys[ri]); held {
				cands = append(cands, ri)
			} else if !c.submittedEver[ri] {
				cands = append(cands, ri)
			}
		}
	}
	if len(cands) == 0 {
		return 0, false
	}
	ri := cands[c.rng.IntN(len(cands))]
	if !c.submittedEver[ri] {
		c.isoClaim[ri] = ni
	}
	return ri, true
}

// submit issues reqs[ri] on node ni, draining once on queue pushback.
func (c *clusterSim) submit(ni, ri int) *Job {
	c.submittedEver[ri] = true
	j, _, err := c.srvs[ni].Submit(c.reqs[ri])
	if err == ErrQueueFull {
		c.tick("queue full on %s, draining", c.ids[ni])
		c.drainAll()
		j, _, err = c.srvs[ni].Submit(c.reqs[ri])
	}
	if err != nil {
		c.fail("submit req %d on %s: %v", ri, c.ids[ni], err)
	}
	return j
}

// record verifies a terminal job and folds its bytes into the ledger.
func (c *clusterSim) record(ni int, j *Job) {
	result, state, errMsg := c.srvs[ni].Result(j)
	if state != StateDone {
		c.fail("job %s on %s (key %.8s) state %s: %s", j.ID, c.ids[ni], j.Key, state, errMsg)
	}
	if prev, ok := c.results[j.Key]; ok {
		if !bytes.Equal(prev, result) {
			c.fail("key %.8s returned different bytes than first completion", j.Key)
		}
	} else {
		c.results[j.Key] = result
	}
}

// drainAll waits out every pending job cluster-wide and enforces the
// exactly-once invariant at the quiescent point.
func (c *clusterSim) drainAll() {
	for _, p := range c.pending {
		if err := c.srvs[p.node].Wait(context.Background(), p.j); err != nil {
			c.fail("wait on %s: %v", c.ids[p.node], err)
		}
		c.record(p.node, p.j)
	}
	c.pending = c.pending[:0]

	c.execMu.Lock()
	defer c.execMu.Unlock()
	for key := range c.results {
		if n := c.execs[key]; n != 1 {
			c.fail("key %.8s executed %d times across the cluster, want exactly 1", key, n)
		}
	}
	for key, n := range c.execs {
		if _, ok := c.results[key]; !ok {
			c.fail("key %.8s executed %d times but never completed for a client", key, n)
		}
	}
}

func (c *clusterSim) probeAll() {
	for _, i := range c.runningNodes() {
		c.srvs[i].Mesh().ProbeOnce(context.Background())
	}
}

func (c *clusterSim) rebalanceAll() {
	for _, i := range c.runningNodes() {
		if _, err := c.srvs[i].Rebalance(context.Background()); err != nil {
			c.fail("rebalance on %s: %v", c.ids[i], err)
		}
	}
}

// httpGet runs one client-style request against node ni's handler.
func (c *clusterSim) httpGet(ni int, path string) (int, []byte) {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rw := httptest.NewRecorder()
	c.net.handler(c.ids[ni]).ServeHTTP(rw, req)
	return rw.Code, rw.Body.Bytes()
}

// verifyAll is the no-acked-result-lost check, run only at full health
// after probes and a rebalance round: every completed key is served with
// identical bytes by every node, and no journal holds residue.
func (c *clusterSim) verifyAll() {
	keys := make([]string, 0, len(c.results))
	for k := range c.results {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		for ni := range c.srvs {
			code, body := c.httpGet(ni, "/v1/results/"+key)
			if code != http.StatusOK || !bytes.Equal(body, c.results[key]) {
				c.fail("acked key %.8s not served by %s: status %d", key, c.ids[ni], code)
			}
		}
	}
	for ni := range c.srvs {
		if p := c.srvs[ni].Journal().Stats().Pending; p != 0 {
			c.fail("job journal on %s holds %d intents at quiescence", c.ids[ni], p)
		}
		if p := c.srvs[ni].meshJournal.Stats().Pending; p != 0 {
			c.fail("mesh journal on %s holds %d unpaid debts after rebalance", c.ids[ni], p)
		}
	}
}

// scatterCheck reads one completed key through a random node's client
// API; with every node up, scatter-gather must find it wherever it lives.
func (c *clusterSim) scatterCheck() {
	if len(c.results) == 0 {
		return
	}
	keys := make([]string, 0, len(c.results))
	for k := range c.results {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	key := keys[c.rng.IntN(len(keys))]
	ni := c.rng.IntN(len(c.srvs))
	c.tick("scatter read key %.8s via %s", key, c.ids[ni])
	code, body := c.httpGet(ni, "/v1/results/"+key)
	if code != http.StatusOK || !bytes.Equal(body, c.results[key]) {
		c.fail("scatter read of %.8s via %s: status %d", key, c.ids[ni], code)
	}
}

// crashNode kills one node at a quiescent point, keeps the survivors
// serving (re-routing keys the dead node owned), then restarts it over
// the same directory and converges membership and replicas.
func (c *clusterSim) crashNode() {
	c.drainAll()
	x := c.rng.IntN(len(c.srvs))
	c.tick("crash %s", c.ids[x])
	c.net.setDown(c.ids[x])
	c.downNode = x
	if err := c.srvs[x].Shutdown(context.Background()); err != nil {
		c.fail("shutdown %s: %v", c.ids[x], err)
	}

	survivors := c.runningNodes()
	for n := 1 + c.rng.IntN(2); n > 0; n-- {
		ni := survivors[c.rng.IntN(len(survivors))]
		ri := c.rng.IntN(len(c.reqs))
		c.tick("submit req %d to survivor %s", ri, c.ids[ni])
		c.pending = append(c.pending, clusterJob{ni, c.submit(ni, ri)})
	}
	c.drainAll()

	srv, err := New(c.cfgs[x])
	if err != nil {
		c.fail("restart %s: %v", c.ids[x], err)
	}
	c.srvs[x] = srv
	c.net.setHandler(c.ids[x], srv.Handler())
	c.downNode = -1
	select {
	case <-srv.replayDone:
	case <-time.After(time.Minute):
		c.fail("journal replay on restarted %s did not finish", c.ids[x])
	}
	c.probeAll()
	c.rebalanceAll()
	c.drainAll()
	c.verifyAll()
	c.tick("restarted %s, cluster converged", c.ids[x])
}

// isolateNode severs one node from both peers at a quiescent point. The
// majority keeps serving its side; the severed node serves keys it holds
// and computes fresh keys exclusive to it (forwarding falls back locally
// once both peers are marked down). Healing probes, rebalances, and
// proves convergence.
func (c *clusterSim) isolateNode() {
	c.drainAll()
	x := c.rng.IntN(len(c.srvs))
	c.tick("isolate %s", c.ids[x])
	c.net.sever(c.ids[x], c.ids, true)
	c.isolated = x

	for n := 2 + c.rng.IntN(3); n > 0; n-- {
		if c.rng.IntN(2) == 0 {
			maj := c.majorityNodes()
			ni := maj[c.rng.IntN(len(maj))]
			ri := c.majorityReq()
			c.tick("submit req %d on majority node %s", ri, c.ids[ni])
			c.pending = append(c.pending, clusterJob{ni, c.submit(ni, ri)})
		} else {
			ri, ok := c.isolatedReq(x)
			if !ok {
				c.tick("no eligible request for isolated %s", c.ids[x])
				continue
			}
			c.tick("submit req %d on isolated %s", ri, c.ids[x])
			c.pending = append(c.pending, clusterJob{x, c.submit(x, ri)})
		}
	}
	c.drainAll()

	c.net.sever(c.ids[x], c.ids, false)
	c.isolated = -1
	for ri := range c.isoClaim {
		c.isoClaim[ri] = -1
	}
	c.probeAll()
	c.rebalanceAll()
	c.drainAll()
	c.verifyAll()
	c.tick("healed %s, cluster converged", c.ids[x])
}

// dupBurst submits the same request concurrently on two different nodes;
// owner-side singleflight must collapse them to at most one execution
// (exactly zero extra if the key already completed).
func (c *clusterSim) dupBurst() {
	c.drainAll()
	nodes := c.majorityNodes()
	if len(nodes) < 2 {
		return
	}
	i := c.rng.IntN(len(nodes))
	k := (i + 1 + c.rng.IntN(len(nodes)-1)) % len(nodes)
	ri := c.majorityReq()
	c.tick("duplicate burst req %d on %s and %s", ri, c.ids[nodes[i]], c.ids[nodes[k]])
	a := c.submit(nodes[i], ri)
	b := c.submit(nodes[k], ri)
	c.pending = append(c.pending, clusterJob{nodes[i], a}, clusterJob{nodes[k], b})
	c.drainAll()
	ra, _, _ := c.srvs[nodes[i]].Result(a)
	rb, _, _ := c.srvs[nodes[k]].Result(b)
	if !bytes.Equal(ra, rb) {
		c.fail("duplicate submissions on different nodes returned different bytes")
	}
}

func runClusterSchedule(t *testing.T, seed uint64, baseDir string, reqs []JobRequest, keys []string) {
	dir := filepath.Join(baseDir, fmt.Sprintf("s%d", seed))
	ids := []string{"n1", "n2", "n3"}
	peers := make([]mesh.Peer, len(ids))
	for i, id := range ids {
		peers[i] = mesh.Peer{ID: id, URL: "http://" + id + ".mesh"}
	}
	c := &clusterSim{
		t:             t,
		seed:          seed,
		rng:           rand.New(rand.NewPCG(seed, 0xc105_7e12)),
		net:           newClusterNet(),
		ids:           ids,
		reqs:          reqs,
		keys:          keys,
		results:       map[string][]byte{},
		execs:         map[string]int{},
		submittedEver: make([]bool, len(reqs)),
		isoClaim:      make([]int, len(reqs)),
		isolated:      -1,
		downNode:      -1,
	}
	for ri := range c.isoClaim {
		c.isoClaim[ri] = -1
	}
	c.cfgs = make([]Config, len(ids))
	c.srvs = make([]*Server, len(ids))
	for i, id := range ids {
		c.cfgs[i] = Config{
			Workers:         2,
			QueueDepth:      8,
			CacheMaxEntries: 2,
			StoreDir:        filepath.Join(dir, id),
			StoreSyncEvery:  64,
			RetryBase:       time.Millisecond,
			RetryMax:        4 * time.Millisecond,
			Mesh: mesh.Config{
				NodeID:        id,
				Peers:         peers,
				ProbeFailures: 1,
				Transport:     c.net,
			},
			testExecHook: c.noteExec,
		}
		srv, err := New(c.cfgs[i])
		if err != nil {
			t.Fatalf("seed %d: node %s: %v", seed, id, err)
		}
		c.srvs[i] = srv
		c.net.setHandler(id, srv.Handler())
	}
	defer func() {
		for i := range c.srvs {
			if i != c.downNode {
				c.srvs[i].Shutdown(context.Background())
			}
		}
		os.RemoveAll(dir)
	}()

	crashes, isolations := 0, 0
	nOps := 5 + c.rng.IntN(5)
	for op := 0; op < nOps; op++ {
		switch k := c.rng.IntN(10); {
		case k < 3:
			nodes := c.runningNodes()
			ni := nodes[c.rng.IntN(len(nodes))]
			ri := c.majorityReq()
			c.tick("submit+wait req %d on %s", ri, c.ids[ni])
			c.pending = append(c.pending, clusterJob{ni, c.submit(ni, ri)})
			c.drainAll()
		case k < 5:
			nodes := c.runningNodes()
			ni := nodes[c.rng.IntN(len(nodes))]
			ri := c.majorityReq()
			c.tick("submit async req %d on %s", ri, c.ids[ni])
			c.pending = append(c.pending, clusterJob{ni, c.submit(ni, ri)})
		case k < 7:
			c.dupBurst()
		case k < 8:
			c.drainAll()
			c.scatterCheck()
		case k < 9 && crashes < 2:
			crashes++
			c.crashNode()
		default:
			if isolations < 1 {
				isolations++
				c.isolateNode()
			} else {
				nodes := c.runningNodes()
				ni := nodes[c.rng.IntN(len(nodes))]
				ri := c.majorityReq()
				c.tick("budget spent, submit req %d on %s", ri, c.ids[ni])
				c.pending = append(c.pending, clusterJob{ni, c.submit(ni, ri)})
			}
		}
	}

	// Final convergence: drain, settle replicas, prove every acked result
	// is served by every node and the series surface agrees cluster-wide.
	c.drainAll()
	c.probeAll()
	c.rebalanceAll()
	c.drainAll()
	c.verifyAll()

	wantSeries := false
	for ri := range c.reqs {
		if c.reqs[ri].Series != "" {
			if _, ok := c.results[c.keys[ri]]; ok {
				wantSeries = true
			}
		}
	}
	if wantSeries {
		for ni := range c.srvs {
			code, body := c.httpGet(ni, "/v1/series")
			if code != http.StatusOK {
				c.fail("series listing via %s: status %d", c.ids[ni], code)
			}
			var resp struct {
				Series []string `json:"series"`
			}
			if err := json.Unmarshal(body, &resp); err != nil {
				c.fail("series listing via %s: %v", c.ids[ni], err)
			}
			found := false
			for _, n := range resp.Series {
				if n == "simser" {
					found = true
				}
			}
			if !found {
				c.fail("node %s does not see series simser cluster-wide", c.ids[ni])
			}
		}
	}
}

func TestClusterSimulationSchedules(t *testing.T) {
	schedules := uint64(520)
	if testing.Short() {
		schedules = 40
	}
	base := t.TempDir()
	reqs := clusterUploads(t)
	keys := make([]string, len(reqs))
	for i := range reqs {
		spec, err := resolveThrough(reqs[i], nil)
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = spec.key
	}
	for seed := uint64(0); seed < schedules; seed++ {
		runClusterSchedule(t, seed, base, reqs, keys)
	}
}

// TestClusterReplayRacesRebalance is the 2-node kill/hand-off chaos
// schedule: a job journaled on node A (owned by node B) is interrupted by
// killing A before B finishes computing; B completes, and its replication
// push to the dead A becomes journaled hand-off debt. A then restarts
// while B concurrently probes and rebalances, so A's journal replay of
// the intent races B's hand-off delivery of the very same record into
// A's store. Whichever side wins, the job must resolve exactly once:
// one execution total, no stranded intent, no unpaid debt, and both
// nodes serving identical bytes.
func TestClusterReplayRacesRebalance(t *testing.T) {
	rounds := 14
	if testing.Short() {
		rounds = 4
	}
	ring := mesh.NewRing([]string{"na", "nb"}, 64)
	req, key := reqOwnedBy(t, "nb", ring)
	peers := []mesh.Peer{
		{ID: "na", URL: "http://na.mesh"},
		{ID: "nb", URL: "http://nb.mesh"},
	}
	base := t.TempDir()

	for round := 0; round < rounds; round++ {
		dir := filepath.Join(base, fmt.Sprintf("r%d", round))
		net := newClusterNet()
		var execMu sync.Mutex
		execs := 0
		cfg := func(id string) Config {
			return Config{
				Workers:        1,
				QueueDepth:     4,
				StoreDir:       filepath.Join(dir, id),
				StoreSyncEvery: 8,
				RetryBase:      time.Millisecond,
				RetryMax:       4 * time.Millisecond,
				Mesh: mesh.Config{
					NodeID:        id,
					Peers:         peers,
					VNodes:        64,
					ProbeFailures: 1,
					Transport:     net,
				},
				testExecHook: func(string) { execMu.Lock(); execs++; execMu.Unlock() },
			}
		}
		cfgA, cfgB := cfg("na"), cfg("nb")

		// B's exec hook doubles as the kill point: the worker blocks at the
		// exact moment it commits to computing (after its pre-execute
		// cluster fetch reported A alive), the test kills A, and only then
		// does the pipeline run — so B's replication push targets a replica
		// set that still contains A, fails against the dead node, and is
		// journaled as hand-off debt.
		killA := make(chan struct{})
		aDead := make(chan struct{})
		var killOnce sync.Once
		cfgB.testExecHook = func(string) {
			execMu.Lock()
			execs++
			execMu.Unlock()
			killOnce.Do(func() {
				killA <- struct{}{}
				<-aDead
			})
		}

		srvA, err := New(cfgA)
		if err != nil {
			t.Fatal(err)
		}
		srvB, err := New(cfgB)
		if err != nil {
			t.Fatal(err)
		}
		net.setHandler("na", srvA.Handler())
		net.setHandler("nb", srvB.Handler())

		// Submit on A: journaled locally, forwarded to owner B.
		if _, _, err := srvA.Submit(req); err != nil {
			t.Fatalf("round %d: submit: %v", round, err)
		}
		var jB *Job
		for deadline := time.Now().Add(30 * time.Second); jB == nil; {
			srvB.mu.Lock()
			jB = srvB.inflight[key]
			srvB.mu.Unlock()
			if jB == nil {
				if time.Now().After(deadline) {
					t.Fatalf("round %d: forwarded job never reached B", round)
				}
				time.Sleep(time.Millisecond)
			}
		}

		// B reached the execute point; kill A before the result exists.
		// A's long-poll aborts, its runRemote cancels, and the journaled
		// intent stays pending on disk.
		<-killA
		net.setDown("na")
		if err := srvA.Shutdown(context.Background()); err != nil {
			t.Fatalf("round %d: shutdown A: %v", round, err)
		}
		close(aDead)

		// B completes; its replication push to the dead A is journaled as
		// hand-off debt.
		if err := srvB.Wait(context.Background(), jB); err != nil {
			t.Fatalf("round %d: wait on B: %v", round, err)
		}
		if _, state, msg := srvB.Result(jB); state != StateDone {
			t.Fatalf("round %d: B job state %s: %s", round, state, msg)
		}
		if p := srvB.meshJournal.Stats().Pending; p == 0 {
			t.Fatalf("round %d: expected hand-off debt on B after push to dead A", round)
		}

		// Restart A while B rebalances: replay races the hand-off.
		rebalDone := make(chan struct{})
		go func() {
			defer close(rebalDone)
			for i := 0; i < 3; i++ {
				srvB.Mesh().ProbeOnce(context.Background())
				srvB.Rebalance(context.Background())
			}
		}()
		if round%2 == 1 {
			time.Sleep(time.Duration(round) * 100 * time.Microsecond)
		}
		srvA2, err := New(cfgA)
		if err != nil {
			t.Fatalf("round %d: restart A: %v", round, err)
		}
		net.setHandler("na", srvA2.Handler())
		select {
		case <-srvA2.replayDone:
		case <-time.After(time.Minute):
			t.Fatalf("round %d: replay on A did not finish", round)
		}
		<-rebalDone

		// Settle: one more probe+rebalance round with both nodes alive.
		srvA2.Mesh().ProbeOnce(context.Background())
		srvB.Mesh().ProbeOnce(context.Background())
		if _, err := srvB.Rebalance(context.Background()); err != nil {
			t.Fatalf("round %d: final rebalance on B: %v", round, err)
		}
		if _, err := srvA2.Rebalance(context.Background()); err != nil {
			t.Fatalf("round %d: final rebalance on A: %v", round, err)
		}

		execMu.Lock()
		n := execs
		execMu.Unlock()
		if n != 1 {
			t.Fatalf("round %d: key executed %d times across kill/replay/rebalance, want exactly 1", round, n)
		}
		if p := srvA2.Journal().Stats().Pending; p != 0 {
			t.Fatalf("round %d: %d intents stranded on A after replay", round, p)
		}
		if p := srvB.meshJournal.Stats().Pending; p != 0 {
			t.Fatalf("round %d: %d hand-off debts unpaid on B after rebalance", round, p)
		}
		if _, held := srvA2.Store().GetMeta(key); !held {
			t.Fatalf("round %d: hand-off never delivered the record to A", round)
		}
		var want []byte
		for i, h := range []http.Handler{srvA2.Handler(), srvB.Handler()} {
			rw := httptest.NewRecorder()
			h.ServeHTTP(rw, httptest.NewRequest(http.MethodGet, "/v1/results/"+key, nil))
			if rw.Code != http.StatusOK {
				t.Fatalf("round %d: node %d does not serve the key: status %d", round, i, rw.Code)
			}
			if i == 0 {
				want = append([]byte(nil), rw.Body.Bytes()...)
			} else if !bytes.Equal(want, rw.Body.Bytes()) {
				t.Fatalf("round %d: nodes serve different bytes", round)
			}
		}

		srvA2.Shutdown(context.Background())
		srvB.Shutdown(context.Background())
		os.RemoveAll(dir)
	}
}

// reqOwnedBy generates a request whose fingerprint lands on the wanted
// ring node.
func reqOwnedBy(t *testing.T, owner string, ring *mesh.Ring) (JobRequest, string) {
	t.Helper()
	enc := func(seed uint64, name string) string {
		var sb strings.Builder
		if err := trace.Write(&sb, oracle.GenTraces(seed, name, 2, 2, 2)); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	for seed := uint64(0); seed < 128; seed++ {
		req := JobRequest{
			Traces: []string{
				enc(900+seed, fmt.Sprintf("race%da", seed)),
				enc(1100+seed, fmt.Sprintf("race%db", seed)),
			},
			Config: &ConfigSpec{Eps: 0.07, MinPts: 3},
		}
		spec, err := resolveThrough(req, nil)
		if err != nil {
			t.Fatal(err)
		}
		if ring.Owner(spec.key) == owner {
			return req, spec.key
		}
	}
	t.Fatal("no candidate request owned by " + owner)
	return JobRequest{}, ""
}

// TestClusterSeriesScatter pins the cluster-wide series surface on a
// 2-node cluster with replication suppressed (R=1), so every record has
// exactly one holder and a correct answer from the other node can only
// come from scatter-gather.
func TestClusterSeriesScatter(t *testing.T) {
	ids := []string{"na", "nb"}
	peers := []mesh.Peer{
		{ID: "na", URL: "http://na.mesh"},
		{ID: "nb", URL: "http://nb.mesh"},
	}
	net := newClusterNet()
	dir := t.TempDir()
	srvs := make([]*Server, 2)
	for i, id := range ids {
		srv, err := New(Config{
			Workers:  2,
			StoreDir: filepath.Join(dir, id),
			Mesh: mesh.Config{
				NodeID:        id,
				Peers:         peers,
				Replicas:      1,
				ProbeFailures: 1,
				Transport:     net,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		srvs[i] = srv
		net.setHandler(id, srv.Handler())
		defer srv.Shutdown(context.Background())
	}

	enc := func(seed uint64, name string) string {
		var sb strings.Builder
		if err := trace.Write(&sb, oracle.GenTraces(seed, name, 2, 2, 2)); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	for i := 0; i < 3; i++ {
		req := JobRequest{
			Traces: []string{
				enc(uint64(700+i), fmt.Sprintf("sc%da", i)),
				enc(uint64(800+i), fmt.Sprintf("sc%db", i)),
			},
			Config:   &ConfigSpec{Eps: 0.07, MinPts: 3},
			Series:   "night",
			RunLabel: fmt.Sprintf("run-%d", i),
		}
		j, _, err := srvs[i%2].Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		if err := srvs[i%2].Wait(context.Background(), j); err != nil {
			t.Fatal(err)
		}
		if _, state, msg := srvs[i%2].Result(j); state != StateDone {
			t.Fatalf("run %d state %s: %s", i, state, msg)
		}
	}

	get := func(ni int, path string) (int, []byte) {
		rw := httptest.NewRecorder()
		net.handler(ids[ni]).ServeHTTP(rw, httptest.NewRequest(http.MethodGet, path, nil))
		return rw.Code, rw.Body.Bytes()
	}
	for ni := range srvs {
		code, body := get(ni, "/v1/results")
		if code != http.StatusOK {
			t.Fatalf("results listing via %s: status %d", ids[ni], code)
		}
		var listing struct {
			Results []json.RawMessage `json:"results"`
		}
		if err := json.Unmarshal(body, &listing); err != nil {
			t.Fatal(err)
		}
		if len(listing.Results) != 3 {
			t.Fatalf("node %s lists %d results cluster-wide, want 3", ids[ni], len(listing.Results))
		}

		code, body = get(ni, "/v1/series")
		var series struct {
			Series []string `json:"series"`
		}
		if code != http.StatusOK || json.Unmarshal(body, &series) != nil {
			t.Fatalf("series listing via %s: status %d", ids[ni], code)
		}
		if len(series.Series) != 1 || series.Series[0] != "night" {
			t.Fatalf("node %s series listing: %v", ids[ni], series.Series)
		}

		code, body = get(ni, "/v1/series/night/trajectories")
		if code != http.StatusOK {
			t.Fatalf("trajectories via %s: status %d: %s", ids[ni], code, body)
		}
		var tr struct {
			Runs []json.RawMessage `json:"runs"`
		}
		if err := json.Unmarshal(body, &tr); err != nil {
			t.Fatal(err)
		}
		if len(tr.Runs) != 3 {
			t.Fatalf("node %s chains %d runs cluster-wide, want 3", ids[ni], len(tr.Runs))
		}
	}
}

// TestMeshReplicateHugeHeader: an 8-byte replication body whose frame
// header claims a 1 GiB record answers 400 and costs memory in
// proportion to the bytes that arrived, not to the length it claims.
func TestMeshReplicateHugeHeader(t *testing.T) {
	srv, err := New(Config{
		Workers:  1,
		StoreDir: t.TempDir(),
		Mesh: mesh.Config{
			NodeID:    "na",
			Peers:     []mesh.Peer{{ID: "na", URL: "http://na.mesh"}, {ID: "nb", URL: "http://nb.mesh"}},
			Transport: newClusterNet(),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	body := binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, 1<<30), 0)
	req := httptest.NewRequest(http.MethodPost, "/v1/mesh/replicate", bytes.NewReader(body))
	req.Header.Set("X-Mesh-From", "nb")
	rw := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	srv.Handler().ServeHTTP(rw, req)
	runtime.ReadMemStats(&after)
	if rw.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", rw.Code, rw.Body)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("8-byte body allocated %d bytes", got)
	}
}
