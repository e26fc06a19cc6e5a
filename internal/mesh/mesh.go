package mesh

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// Peer is one cluster member: a stable node id and the base URL its
// trackd API listens on.
type Peer struct {
	ID  string `json:"id"`
	URL string `json:"url"`
}

// Config parametrises a Node.
type Config struct {
	// NodeID is this node's id; it must appear in Peers.
	NodeID string
	// Peers is the full static cluster map, including this node.
	Peers []Peer
	// Replicas is the number of nodes (owner included) that durably hold
	// each result (default 2, capped at the cluster size).
	Replicas int
	// VNodes is the number of ring points per node (default 64).
	VNodes int
	// ProbeFailures marks a peer down after this many consecutive failed
	// probes or requests (default 2).
	ProbeFailures int
	// ProbeInterval paces the background probe loop started by Start
	// (default 2s). The deterministic simulation never calls Start and
	// drives ProbeOnce directly instead.
	ProbeInterval time.Duration
	// Transport carries every peer request (default
	// http.DefaultTransport). The cluster simulation plugs an in-memory
	// handler dispatcher in here.
	Transport http.RoundTripper
}

func (c Config) withDefaults() Config {
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
	if c.VNodes <= 0 {
		c.VNodes = 64
	}
	if c.ProbeFailures <= 0 {
		c.ProbeFailures = 2
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.Transport == nil {
		c.Transport = http.DefaultTransport
	}
	return c
}

// peerState tracks one remote peer's liveness.
type peerState struct {
	peer  Peer
	alive bool
	fails int // consecutive failures since the last success
}

// PeerStatus is the /healthz view of one peer.
type PeerStatus struct {
	ID    string `json:"id"`
	URL   string `json:"url"`
	Alive bool   `json:"alive"`
	Fails int    `json:"fails,omitempty"`
}

// Node is this process's view of the cluster: static membership, probe-
// driven liveness, and the consistent-hash ring over the live members.
// All methods are safe for concurrent use.
type Node struct {
	cfg    Config
	self   Peer
	client *http.Client

	mu     sync.Mutex
	peers  map[string]*peerState // remote peers only
	ring   *Ring                 // over self + alive peers
	epoch  uint64                // bumps on every ring rebuild
	stopCh chan struct{}
	wg     sync.WaitGroup

	// onChange, when set via Start, runs (outside the mutex) after every
	// liveness transition — trackd hooks rebalancing here.
	onChange func()
}

// New validates the configuration and returns a node that considers
// every peer alive until probes say otherwise (optimistic start: a cold
// cluster must not refuse to route before the first probe round).
func New(cfg Config) (*Node, error) {
	cfg = cfg.withDefaults()
	if cfg.NodeID == "" {
		return nil, fmt.Errorf("mesh: empty node id")
	}
	n := &Node{
		cfg:    cfg,
		client: &http.Client{Transport: cfg.Transport},
		peers:  map[string]*peerState{},
		stopCh: make(chan struct{}),
	}
	seen := map[string]bool{}
	for _, p := range cfg.Peers {
		if p.ID == "" || p.URL == "" {
			return nil, fmt.Errorf("mesh: peer with empty id or url (%q=%q)", p.ID, p.URL)
		}
		if seen[p.ID] {
			return nil, fmt.Errorf("mesh: duplicate peer id %q", p.ID)
		}
		seen[p.ID] = true
		p.URL = strings.TrimRight(p.URL, "/")
		if p.ID == cfg.NodeID {
			n.self = p
			continue
		}
		n.peers[p.ID] = &peerState{peer: p, alive: true}
	}
	if n.self.ID == "" {
		return nil, fmt.Errorf("mesh: node id %q not in peer list", cfg.NodeID)
	}
	n.rebuildLocked()
	return n, nil
}

// ParsePeers parses the -peers flag format: comma-separated id=URL
// entries ("n1=http://127.0.0.1:7077,n2=http://127.0.0.1:7078").
func ParsePeers(s string) ([]Peer, error) {
	var out []Peer
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, url, ok := strings.Cut(part, "=")
		if !ok || id == "" || url == "" {
			return nil, fmt.Errorf("mesh: bad peer %q (want id=URL)", part)
		}
		out = append(out, Peer{ID: id, URL: url})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("mesh: empty peer list")
	}
	return out, nil
}

// rebuildLocked recomputes the ring over self + alive peers; callers
// hold n.mu.
func (n *Node) rebuildLocked() {
	nodes := []string{n.self.ID}
	for id, ps := range n.peers {
		if ps.alive {
			nodes = append(nodes, id)
		}
	}
	n.ring = NewRing(nodes, n.cfg.VNodes)
	n.epoch++
}

// Self returns this node's id.
func (n *Node) Self() string { return n.self.ID }

// Replicas returns the configured replica count (owner included).
func (n *Node) Replicas() int { return n.cfg.Replicas }

// Epoch returns the ring generation; it bumps on every liveness change.
func (n *Node) Epoch() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.epoch
}

// Ring returns the current ring (immutable snapshot).
func (n *Node) Ring() *Ring {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.ring
}

// Owner returns the live node owning key (possibly this node).
func (n *Node) Owner(key string) string { return n.Ring().Owner(key) }

// ReplicaSet returns the live nodes responsible for key, owner first.
func (n *Node) ReplicaSet(key string) []string {
	return n.Ring().ReplicaSet(key, n.cfg.Replicas)
}

// Peer resolves a peer id to its Peer record (self included).
func (n *Node) Peer(id string) (Peer, bool) {
	if id == n.self.ID {
		return n.self, true
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	ps, ok := n.peers[id]
	if !ok {
		return Peer{}, false
	}
	return ps.peer, true
}

// AlivePeers returns the remote peers currently considered alive,
// sorted by id.
func (n *Node) AlivePeers() []Peer {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]Peer, 0, len(n.peers))
	for _, ps := range n.peers {
		if ps.alive {
			out = append(out, ps.peer)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Statuses returns every remote peer's liveness, sorted by id.
func (n *Node) Statuses() []PeerStatus {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]PeerStatus, 0, len(n.peers))
	for _, ps := range n.peers {
		out = append(out, PeerStatus{ID: ps.peer.ID, URL: ps.peer.URL, Alive: ps.alive, Fails: ps.fails})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ReportSuccess feeds a successful peer interaction into liveness: the
// peer is marked alive and its failure streak reset. Returns true when
// this transitioned the peer (ring rebuilt).
func (n *Node) ReportSuccess(id string) bool {
	n.mu.Lock()
	ps, ok := n.peers[id]
	if !ok {
		n.mu.Unlock()
		return false
	}
	ps.fails = 0
	changed := !ps.alive
	if changed {
		ps.alive = true
		n.rebuildLocked()
	}
	n.mu.Unlock()
	if changed {
		n.notifyChange()
	}
	return changed
}

// ReportFailure feeds a failed peer interaction (refused connection,
// timeout) into liveness; ProbeFailures consecutive failures mark the
// peer down. Returns true when this transitioned the peer.
func (n *Node) ReportFailure(id string) bool {
	n.mu.Lock()
	ps, ok := n.peers[id]
	if !ok {
		n.mu.Unlock()
		return false
	}
	ps.fails++
	changed := ps.alive && ps.fails >= n.cfg.ProbeFailures
	if changed {
		ps.alive = false
		n.rebuildLocked()
	}
	n.mu.Unlock()
	if changed {
		n.notifyChange()
	}
	return changed
}

func (n *Node) notifyChange() {
	if n.onChange != nil {
		n.onChange()
	}
}

// ProbeOnce probes every remote peer's /v1/mesh/ping and folds the
// outcomes into liveness. It returns true when any peer transitioned.
// The background loop calls this on a ticker; the deterministic cluster
// simulation calls it directly so probing is an explicit scheduled event.
func (n *Node) ProbeOnce(ctx context.Context) bool {
	n.mu.Lock()
	targets := make([]Peer, 0, len(n.peers))
	for _, ps := range n.peers {
		targets = append(targets, ps.peer)
	}
	n.mu.Unlock()
	sort.Slice(targets, func(i, j int) bool { return targets[i].ID < targets[j].ID })

	changed := false
	for _, p := range targets {
		pctx, cancel := context.WithTimeout(ctx, n.cfg.ProbeInterval)
		status, _, err := n.Do(pctx, p.ID, http.MethodGet, "/v1/mesh/ping", nil)
		cancel()
		if err != nil || status != http.StatusOK {
			if n.ReportFailure(p.ID) {
				changed = true
			}
		} else if n.ReportSuccess(p.ID) {
			changed = true
		}
	}
	return changed
}

// Start launches the background probe loop; onChange (may be nil) runs
// after every liveness transition, outside the membership mutex. Stop
// terminates the loop.
func (n *Node) Start(onChange func()) {
	n.onChange = onChange
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		t := time.NewTicker(n.cfg.ProbeInterval)
		defer t.Stop()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		go func() { <-n.stopCh; cancel() }()
		for {
			select {
			case <-n.stopCh:
				return
			case <-t.C:
				n.ProbeOnce(ctx)
			}
		}
	}()
}

// Stop terminates the probe loop started by Start.
func (n *Node) Stop() {
	select {
	case <-n.stopCh:
	default:
		close(n.stopCh)
	}
	n.wg.Wait()
}

// Do issues one HTTP request against a peer and returns the status code
// and full response body. A transport-level failure (refused connection,
// partition) is returned as an error with a zero status; HTTP-level
// errors come back as their status code. Do does NOT feed liveness —
// callers decide which failures are peer-death evidence via
// ReportFailure/ReportSuccess.
func (n *Node) Do(ctx context.Context, peerID, method, path string, body []byte) (int, []byte, error) {
	status, _, b, err := n.DoH(ctx, peerID, method, path, body)
	return status, b, err
}

// DoH is Do plus the response headers — forwarding needs them (the
// owner's X-Durable header decides whether a proxied job's local journal
// intent may resolve).
func (n *Node) DoH(ctx context.Context, peerID, method, path string, body []byte) (int, http.Header, []byte, error) {
	p, ok := n.Peer(peerID)
	if !ok {
		return 0, nil, nil, fmt.Errorf("mesh: unknown peer %q", peerID)
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, p.URL+path, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set("X-Mesh-From", n.self.ID)
	resp, err := n.client.Do(req)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("mesh: %s %s on %s: %w", method, path, peerID, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("mesh: reading %s from %s: %w", path, peerID, err)
	}
	return resp.StatusCode, resp.Header, b, nil
}
