package service

// Streams wiring: the live-ingestion surface over internal/stream. A
// stream is a resident stream.Session owned by the daemon: clients
// create it once, append burst chunks as the run executes, and follow
// the rolling per-window deltas over SSE or long-polling. Every sealed
// window is persisted to perfdb before the append that sealed it is
// acknowledged — a "raw" record carrying the durable SealedWindow (the
// crash-resume input) and, when the stream is filed under a series, an
// export record carrying the cumulative result so the trajectory and
// regression endpoints see live data. The streams journal (its own
// journal under <store>/streams) records which streams are live; a
// restart replays it, rebuilding each session from its raw records via
// stream.Restore — no re-clustering — and loses at most the open
// window, by contract.
//
// Streams are node-local even in cluster mode: a session is resident
// state, so clients pin a stream to the node that created it (the
// sealed exports still replicate nothing here — they are served by this
// node's perfdb like any local result).

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"perftrack/internal/store"
	"perftrack/internal/stream"
	"perftrack/internal/trace"
)

// streamShadowPrefix names the per-stream perfdb series holding the raw
// SealedWindow records. The prefix keeps them out of the public series
// listing (they are an implementation detail of crash-resume, not runs
// to chain trajectories over).
const streamShadowPrefix = "stream-raw."

func shadowSeries(id string) string { return streamShadowPrefix + id }

// streamWindowKey addresses one sealed window's raw record.
func streamWindowKey(id string, index int) string {
	return fmt.Sprintf("stream.%s.raw.w%06d", id, index)
}

// streamExportKey addresses the cumulative export appended to the
// stream's public series when window `index` sealed.
func streamExportKey(id string, index int) string {
	return fmt.Sprintf("stream.%s.w%06d", id, index)
}

// StreamRequest is the POST /v1/streams body.
type StreamRequest struct {
	// ID optionally names the stream ([A-Za-z0-9._-], unique on this
	// node); empty lets the daemon assign one.
	ID string `json:"id,omitempty"`
	// Label is the experiment label; window frames are labelled
	// "<label>/w<k>" exactly like a batch split.
	Label string `json:"label,omitempty"`
	// Ranks is the MPI process count of the instrumented run (used for
	// quarantine checks and scale normalisation, like a trace header).
	Ranks int `json:"ranks,omitempty"`
	// Window cuts the stream into fixed-duration or count windows.
	Window stream.WindowSpec `json:"window"`
	// Metrics names the performance-space axes (default IPC × Instructions).
	Metrics []string `json:"metrics,omitempty"`
	// Config overrides individual pipeline knobs.
	Config *ConfigSpec `json:"config,omitempty"`
	// Series, when set, files each sealed window's cumulative result
	// under this perfdb series, so /v1/series/{name}/trajectories and
	// /regressions run over the live stream.
	Series string `json:"series,omitempty"`
}

// resolveStream validates the request into a session configuration.
func resolveStream(req StreamRequest) (stream.Config, error) {
	var sc stream.Config
	if err := req.Window.Validate(); err != nil {
		return sc, err
	}
	if err := validSeries(req.Series); err != nil {
		return sc, err
	}
	if req.ID != "" {
		if err := validSeries(req.ID); err != nil {
			return sc, fmt.Errorf("stream id %v", err)
		}
	}
	cfg, err := pipelineConfig(uploadBase, req.Config, req.Metrics)
	if err != nil {
		return sc, err
	}
	sc = stream.Config{
		Meta:     trace.Metadata{Label: req.Label, Ranks: req.Ranks},
		Window:   req.Window,
		Pipeline: cfg,
	}
	return sc, nil
}

// streamEvent is one rolling delta as delivered to subscribers. Seq is
// a per-process sequence number (it restarts after a daemon restart;
// Delta.Window is the stable cross-restart identity of a window).
type streamEvent struct {
	Seq    int64         `json:"seq"`
	Stream string        `json:"stream"`
	Delta  *stream.Delta `json:"delta"`
}

// streamEntry is one resident stream: the session plus its event ring
// and subscriber bookkeeping. The session mutex serialises all session
// access (stream.Session is not concurrency-safe); the event mutex is
// independent so subscribers never wait behind an evaluation.
type streamEntry struct {
	id      string
	series  string
	label   string
	window  stream.WindowSpec
	req     []byte // journaled creation payload
	created time.Time
	resumed bool

	// pending counts in-flight burst-chunk requests; beyond the
	// configured bound new chunks bounce with 429 (backpressure).
	pending atomic.Int64

	mu        sync.Mutex // guards sess, closed, lastError
	sess      *stream.Session
	closed    bool
	lastError string

	evMu    sync.Mutex
	events  []streamEvent
	head    int64
	notify  chan struct{}
	cursors map[int64]int64 // subscriber -> last delivered seq
	nextSub int64
	done    chan struct{} // closed when the stream finishes
}

// publish appends one event to the ring and wakes subscribers.
func (e *streamEntry) publish(ev streamEvent, ringCap int) {
	e.evMu.Lock()
	e.head++
	ev.Seq = e.head
	e.events = append(e.events, ev)
	if len(e.events) > ringCap {
		e.events = e.events[len(e.events)-ringCap:]
	}
	close(e.notify)
	e.notify = make(chan struct{})
	e.evMu.Unlock()
}

// eventsAfter snapshots the ring past `after`, plus the channel that
// will signal the next publish.
func (e *streamEntry) eventsAfter(after int64) ([]streamEvent, int64, <-chan struct{}) {
	e.evMu.Lock()
	defer e.evMu.Unlock()
	var out []streamEvent
	for _, ev := range e.events {
		if ev.Seq > after {
			out = append(out, ev)
		}
	}
	return out, e.head, e.notify
}

// subscribe registers a delta subscriber cursor (for the lag gauge).
func (e *streamEntry) subscribe(after int64) int64 {
	e.evMu.Lock()
	defer e.evMu.Unlock()
	e.nextSub++
	id := e.nextSub
	e.cursors[id] = after
	return id
}

func (e *streamEntry) setCursor(id, seq int64) {
	e.evMu.Lock()
	e.cursors[id] = seq
	e.evMu.Unlock()
}

func (e *streamEntry) unsubscribe(id int64) {
	e.evMu.Lock()
	delete(e.cursors, id)
	e.evMu.Unlock()
}

// lag returns the worst subscriber lag (head minus cursor) and the
// subscriber count.
func (e *streamEntry) lag() (int64, int) {
	e.evMu.Lock()
	defer e.evMu.Unlock()
	var worst int64
	for _, c := range e.cursors {
		if l := e.head - c; l > worst {
			worst = l
		}
	}
	return worst, len(e.cursors)
}

// markDone closes the done channel once.
func (e *streamEntry) markDone() {
	e.evMu.Lock()
	select {
	case <-e.done:
	default:
		close(e.done)
	}
	e.evMu.Unlock()
}

// streamRegistry holds the node's resident streams. Finished streams
// stay readable; open holds the unfinished ones, which are what
// Config.StreamMaxSessions bounds.
type streamRegistry struct {
	mu      sync.Mutex
	entries map[string]*streamEntry
	order   []string
	seq     int
	open    map[*streamEntry]bool
}

// errTooManyStreams refuses a creation while StreamMaxSessions streams
// are open.
var errTooManyStreams = errors.New("too many resident streams")

func newStreamRegistry() *streamRegistry {
	return &streamRegistry{entries: map[string]*streamEntry{}, open: map[*streamEntry]bool{}}
}

func (r *streamRegistry) get(id string) (*streamEntry, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[id]
	return e, ok
}

func (r *streamRegistry) list() []*streamEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*streamEntry, 0, len(r.order))
	for _, id := range r.order {
		out = append(out, r.entries[id])
	}
	return out
}

func (r *streamRegistry) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}

// register files an open entry, assigning an id when the request left
// it to the daemon. It refuses with errTooManyStreams when limit streams
// are already open (limit <= 0: no cap, which is how resume registers),
// and a duplicate explicit id is an error. The cap is checked under the
// same lock that files the entry, so racing creations cannot overshoot it.
func (r *streamRegistry) register(e *streamEntry, limit int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if limit > 0 && len(r.open) >= limit {
		return errTooManyStreams
	}
	if e.id == "" {
		for {
			r.seq++
			id := fmt.Sprintf("s%06d", r.seq)
			if _, dup := r.entries[id]; !dup {
				e.id = id
				break
			}
		}
	} else if _, dup := r.entries[e.id]; dup {
		return fmt.Errorf("stream %q already exists", e.id)
	}
	r.entries[e.id] = e
	r.order = append(r.order, e.id)
	r.open[e] = true
	return nil
}

// retire stops counting a finished stream against the cap; the entry
// itself stays readable.
func (r *streamRegistry) retire(e *streamEntry) {
	r.mu.Lock()
	delete(r.open, e)
	r.mu.Unlock()
}

// unregister removes an open entry that never became durable.
func (r *streamRegistry) unregister(e *streamEntry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.entries, e.id)
	for i := len(r.order) - 1; i >= 0; i-- {
		if r.order[i] == e.id {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
	delete(r.open, e)
}

type streamMetrics struct {
	created       *Counter
	resumed       *Counter
	bursts        *Counter
	windowCloses  *Counter
	backpressure  *Counter
	persistErrors *Counter
	eventsOut     *Counter
	appendLatency *Histogram
	closeLatency  *Histogram
}

// openStreams wires the stream registry, metrics, and (when the store
// is enabled) the streams journal plus crash-resume. Called from New.
func (s *Server) openStreams() error {
	s.streams = newStreamRegistry()
	r := s.reg
	s.stm = streamMetrics{
		created:       r.NewCounter("trackd_stream_created_total", "Streaming sessions created."),
		resumed:       r.NewCounter("trackd_stream_resumed_total", "Streaming sessions rebuilt from the journal at startup."),
		bursts:        r.NewCounter("trackd_stream_bursts_total", "Bursts appended across all streams (every status)."),
		windowCloses:  r.NewCounter("trackd_stream_window_closes_total", "Windows sealed and evaluated across all streams."),
		backpressure:  r.NewCounter("trackd_stream_backpressure_total", "Burst chunks rejected with 429 because a stream had too many in-flight chunks."),
		persistErrors: r.NewCounter("trackd_stream_persist_errors_total", "Failed perfdb appends of sealed windows (the live session keeps serving)."),
		eventsOut:     r.NewCounter("trackd_stream_events_total", "Delta events delivered to subscribers."),
		appendLatency: r.NewHistogram("trackd_stream_append_seconds", "Latency of one burst append (no window close).", nil),
		closeLatency:  r.NewHistogram("trackd_stream_window_close_seconds", "Latency of an append that sealed (and evaluated) at least one window, persistence included.", nil),
	}
	r.NewGaugeFunc("trackd_stream_sessions", "Resident streaming sessions.", func() int64 {
		return int64(s.streams.count())
	})
	r.NewGaugeFunc("trackd_stream_subscribers", "Active delta subscribers across all streams.", func() int64 {
		var n int
		for _, e := range s.streams.list() {
			_, c := e.lag()
			n += c
		}
		return int64(n)
	})
	r.NewGaugeFunc("trackd_stream_subscriber_lag", "Worst delta-subscriber lag (events behind the head) across all streams.", func() int64 {
		var worst int64
		for _, e := range s.streams.list() {
			if l, _ := e.lag(); l > worst {
				worst = l
			}
		}
		return worst
	})

	if s.cfg.StoreDir == "" {
		return nil
	}
	j, err := s.openJournalIn("streams", nil)
	if err != nil {
		return err
	}
	s.streamJournal = j
	for _, p := range j.Pending() {
		s.resumeStream(p)
	}
	return nil
}

// resumeStream rebuilds one journaled stream: the session is recreated
// from the creation request and every sealed window is restored from
// its raw perfdb record, oldest first. The open window at crash time is
// lost by contract. An undecodable or unrestorable stream resolves the
// intent as failed rather than wedging startup.
func (s *Server) resumeStream(p store.PendingIntent) {
	var req StreamRequest
	if err := json.Unmarshal(p.Payload, &req); err != nil {
		s.streamJournal.Resolve(p.Key, "resume: undecodable intent: "+err.Error(), false)
		return
	}
	req.ID = p.Key
	cfg, err := resolveStream(req)
	if err != nil {
		s.streamJournal.Resolve(p.Key, "resume: "+err.Error(), false)
		return
	}
	sess, err := stream.New(cfg)
	if err != nil {
		s.streamJournal.Resolve(p.Key, "resume: "+err.Error(), false)
		return
	}
	// Collect the stream's sealed windows and restore them in order.
	var sealed []stream.SealedWindow
	for _, m := range s.store.Series(shadowSeries(p.Key)) {
		payload, ok, gerr := s.store.Get(m.Key)
		if gerr != nil || !ok {
			continue
		}
		var w stream.SealedWindow
		if uerr := json.Unmarshal(payload, &w); uerr != nil {
			continue
		}
		sealed = append(sealed, w)
	}
	sort.Slice(sealed, func(i, j int) bool { return sealed[i].Index < sealed[j].Index })
	for _, w := range sealed {
		if rerr := sess.Restore(w); rerr != nil {
			s.streamJournal.Resolve(p.Key, "resume: window "+strconv.Itoa(w.Index)+": "+rerr.Error(), false)
			return
		}
	}
	e := s.newStreamEntry(req, sess, p.Payload)
	e.resumed = true
	if rerr := s.streams.register(e, 0); rerr != nil {
		s.streamJournal.Resolve(p.Key, "resume: "+rerr.Error(), false)
		return
	}
	s.stm.resumed.Inc()
}

func (s *Server) newStreamEntry(req StreamRequest, sess *stream.Session, payload []byte) *streamEntry {
	return &streamEntry{
		id:      req.ID,
		series:  req.Series,
		label:   req.Label,
		window:  req.Window,
		req:     payload,
		created: time.Now(),
		sess:    sess,
		notify:  make(chan struct{}),
		cursors: map[int64]int64{},
		done:    make(chan struct{}),
	}
}

// closeStreams shuts the streams journal and wakes every subscriber.
// Called from Shutdown.
func (s *Server) closeStreams() error {
	if s.streams != nil {
		for _, e := range s.streams.list() {
			e.markDone()
		}
	}
	if s.streamJournal == nil {
		return nil
	}
	return s.streamJournal.Close()
}

// persistSealedLocked files one sealed window in perfdb and fsyncs: the
// raw record that crash-resume replays, plus (for filed streams with a
// successful evaluation) the cumulative export under the public series.
// Callers hold e.mu, so records land in seal order. Failures are
// counted, not fatal — the live session keeps serving from memory.
func (s *Server) persistSealedLocked(e *streamEntry, d *stream.Delta) {
	if s.store == nil || d.Sealed == nil {
		return
	}
	now := time.Now().UnixNano()
	raw, err := json.Marshal(d.Sealed)
	if err == nil {
		err = s.store.Append(store.Record{
			Key:      streamWindowKey(e.id, d.Sealed.Index),
			Series:   shadowSeries(e.id),
			Label:    d.Label,
			UnixNano: now,
			Payload:  raw,
		})
	}
	if err != nil {
		s.stm.persistErrors.Inc()
		return
	}
	if e.series != "" && d.EvalError == "" && d.Result != nil {
		var buf strings.Builder
		if werr := d.Result.WriteJSON(&buf, e.sess.Metrics()); werr == nil {
			if aerr := s.store.Append(store.Record{
				Key:      streamExportKey(e.id, d.Sealed.Index),
				Series:   e.series,
				Label:    d.Label,
				UnixNano: now,
				Payload:  []byte(buf.String()),
			}); aerr != nil {
				s.stm.persistErrors.Inc()
			}
		} else {
			s.stm.persistErrors.Inc()
		}
	}
	// Sealed means durable: the fsync happens before the append that
	// sealed this window is acknowledged (and before its delta event).
	if err := s.store.Sync(); err != nil {
		s.stm.persistErrors.Inc()
	}
}

// sealedLocked runs the post-seal bookkeeping for one delta: persist,
// publish, count. Callers hold e.mu.
func (s *Server) sealedLocked(e *streamEntry, d *stream.Delta) {
	s.persistSealedLocked(e, d)
	e.lastError = d.EvalError
	s.stm.windowCloses.Inc()
	e.publish(streamEvent{Stream: e.id, Delta: d}, s.cfg.StreamEventBuffer)
}

// StreamView is the JSON representation of a stream's state.
type StreamView struct {
	ID        string            `json:"id"`
	Series    string            `json:"series,omitempty"`
	Label     string            `json:"label,omitempty"`
	Window    stream.WindowSpec `json:"window"`
	Closed    bool              `json:"closed,omitempty"`
	Resumed   bool              `json:"resumed,omitempty"`
	CreatedAt string            `json:"createdAt"`
	Stats     stream.Stats      `json:"stats"`
	Head      int64             `json:"head"`
	LastError string            `json:"lastError,omitempty"`
	EventsURL string            `json:"eventsUrl"`
	BurstsURL string            `json:"burstsUrl"`
}

func (s *Server) streamView(e *streamEntry) StreamView {
	e.mu.Lock()
	st := e.sess.Stats()
	closed := e.closed
	lastErr := e.lastError
	e.mu.Unlock()
	e.evMu.Lock()
	head := e.head
	e.evMu.Unlock()
	return StreamView{
		ID:        e.id,
		Series:    e.series,
		Label:     e.label,
		Window:    e.window,
		Closed:    closed,
		Resumed:   e.resumed,
		CreatedAt: e.created.UTC().Format(time.RFC3339Nano),
		Stats:     st,
		Head:      head,
		LastError: lastErr,
		EventsURL: "/v1/streams/" + e.id + "/events",
		BurstsURL: "/v1/streams/" + e.id + "/bursts",
	}
}

// ---- HTTP layer ----

func (s *Server) handleStreamCreate(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var req StreamRequest
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request: "+err.Error())
		return
	}
	cfg, err := resolveStream(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	sess, err := stream.New(cfg)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	e := s.newStreamEntry(req, sess, nil)
	if err := s.streams.register(e, s.cfg.StreamMaxSessions); errors.Is(err, errTooManyStreams) {
		s.stm.backpressure.Inc()
		s.setRetryAfter(w)
		writeError(w, http.StatusTooManyRequests, err.Error())
		return
	} else if err != nil {
		writeError(w, http.StatusConflict, err.Error())
		return
	}
	if s.streamJournal != nil {
		// Journal under the ASSIGNED id so resume can rebuild the entry;
		// the fsync inside Intent is what makes the 201 a promise that
		// the stream (its sealed windows, not its open one) survives a
		// crash.
		req.ID = e.id
		payload, _ := json.Marshal(req)
		e.req = payload
		if jerr := s.streamJournal.Intent(e.id, payload); jerr != nil {
			// Not durable, so not created: the id must not stay live,
			// accepting appends nothing would resume.
			s.streams.unregister(e)
			e.markDone()
			writeError(w, http.StatusServiceUnavailable, "journaling stream: "+jerr.Error())
			return
		}
	}
	s.stm.created.Inc()
	w.Header().Set("Location", "/v1/streams/"+e.id)
	writeJSON(w, http.StatusCreated, s.streamView(e))
}

func (s *Server) handleStreams(w http.ResponseWriter, r *http.Request) {
	entries := s.streams.list()
	views := make([]StreamView, 0, len(entries))
	for _, e := range entries {
		views = append(views, s.streamView(e))
	}
	writeJSON(w, http.StatusOK, map[string]any{"streams": views})
}

func (s *Server) streamEntryFor(w http.ResponseWriter, r *http.Request) *streamEntry {
	e, ok := s.streams.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such stream")
		return nil
	}
	return e
}

func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	if e := s.streamEntryFor(w, r); e != nil {
		writeJSON(w, http.StatusOK, s.streamView(e))
	}
}

// StreamAppendResponse acknowledges one burst chunk.
type StreamAppendResponse struct {
	Appended        int             `json:"appended"`
	Accepted        int             `json:"accepted"`
	Quarantined     int             `json:"quarantined"`
	Filtered        int             `json:"filtered"`
	DroppedEarly    int             `json:"droppedEarly"`
	DroppedLate     int             `json:"droppedLate"`
	RejectedHorizon int             `json:"rejectedHorizon"`
	LinesSkipped    int             `json:"linesSkipped,omitempty"`
	Sealed          []*stream.Delta `json:"sealed,omitempty"`
	Stats           stream.Stats    `json:"stats"`
}

func (s *Server) handleStreamAppend(w http.ResponseWriter, r *http.Request) {
	e := s.streamEntryFor(w, r)
	if e == nil {
		return
	}
	// Backpressure: bound the chunks racing for this session's mutex.
	// Beyond the bound the client gets an explicit 429 + Retry-After
	// instead of an unbounded convoy.
	if e.pending.Add(1) > int64(s.cfg.StreamMaxPending) {
		e.pending.Add(-1)
		s.stm.backpressure.Inc()
		s.setRetryAfter(w)
		writeError(w, http.StatusTooManyRequests, "stream has too many in-flight chunks, retry later")
		return
	}
	defer e.pending.Add(-1)

	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	strict := r.URL.Query().Get("strict") == "true" || r.URL.Query().Get("strict") == "1"
	data, err := io.ReadAll(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading chunk: "+err.Error())
		return
	}
	// DecodeAny sniffs the colbin magic, so burst chunks may arrive in
	// either the text or the binary columnar format.
	tr, diag, err := trace.DecodeAny(data, trace.DecodeOptions{Strict: strict})
	if err != nil {
		writeError(w, http.StatusBadRequest, "decoding chunk: "+err.Error())
		return
	}

	var resp StreamAppendResponse
	resp.LinesSkipped = diag.Skipped()
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		writeError(w, http.StatusConflict, "stream is finished")
		return
	}
	for _, b := range tr.Bursts {
		t0 := time.Now()
		res, aerr := e.sess.Append(r.Context(), b)
		if aerr != nil {
			e.mu.Unlock()
			writeError(w, http.StatusInternalServerError, aerr.Error())
			return
		}
		s.stm.bursts.Inc()
		resp.Appended++
		switch res.Status {
		case stream.Accepted:
			resp.Accepted++
		case stream.Quarantined:
			resp.Quarantined++
		case stream.Filtered:
			resp.Filtered++
		case stream.DroppedEarly:
			resp.DroppedEarly++
		case stream.DroppedLate:
			resp.DroppedLate++
		case stream.RejectedHorizon:
			resp.RejectedHorizon++
		}
		for _, d := range res.Sealed {
			s.sealedLocked(e, d)
			resp.Sealed = append(resp.Sealed, d)
		}
		if len(res.Sealed) > 0 {
			s.stm.closeLatency.Observe(time.Since(t0).Seconds())
		} else {
			s.stm.appendLatency.Observe(time.Since(t0).Seconds())
		}
	}
	resp.Stats = e.sess.Stats()
	e.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

// handleStreamFinish seals the open window (?total=N pads with empty
// windows up to N, matching a batch split into exactly N), resolves the
// stream's journal intent, and retires the session. The response
// carries the final deltas and view.
func (s *Server) handleStreamFinish(w http.ResponseWriter, r *http.Request) {
	e := s.streamEntryFor(w, r)
	if e == nil {
		return
	}
	total := 0
	if ts := r.URL.Query().Get("total"); ts != "" {
		v, err := strconv.Atoi(ts)
		if err != nil || v < 0 {
			writeError(w, http.StatusBadRequest, "total must be a non-negative integer")
			return
		}
		total = v
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		writeError(w, http.StatusConflict, "stream is already finished")
		return
	}
	deltas, err := e.sess.Finish(r.Context(), total)
	for _, d := range deltas {
		s.sealedLocked(e, d)
	}
	if err != nil {
		e.mu.Unlock()
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	e.closed = true
	e.mu.Unlock()
	s.streams.retire(e)
	e.markDone()
	if s.streamJournal != nil {
		s.streamJournal.Resolve(e.id, "", true)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"sealed": deltas,
		"stream": s.streamView(e),
	})
}

// handleStreamEvents follows a stream's rolling deltas. Two modes:
//
//   - Server-sent events (Accept: text/event-stream or ?sse=1): every
//     delta is pushed as an SSE "window" event as it seals, a final
//     "finish" event marks the stream's end.
//   - Long-poll JSON (default): ?after=SEQ&wait=DURATION blocks until an
//     event past SEQ exists (or the wait elapses) and returns the batch.
//
// Events carry per-process sequence numbers; Delta.Window is the stable
// identity across daemon restarts.
func (s *Server) handleStreamEvents(w http.ResponseWriter, r *http.Request) {
	e := s.streamEntryFor(w, r)
	if e == nil {
		return
	}
	after := int64(0)
	if as := r.URL.Query().Get("after"); as != "" {
		v, err := strconv.ParseInt(as, 10, 64)
		if err != nil || v < 0 {
			writeError(w, http.StatusBadRequest, "after must be a non-negative integer")
			return
		}
		after = v
	}
	sse := r.URL.Query().Get("sse") == "1" ||
		strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		s.streamSSE(w, r, e, after)
		return
	}

	wait := time.Duration(0)
	if ws := r.URL.Query().Get("wait"); ws != "" {
		if d, err := time.ParseDuration(ws); err == nil && d > 0 {
			wait = min(d, time.Minute)
		}
	}
	sub := e.subscribe(after)
	defer e.unsubscribe(sub)
	deadline := time.NewTimer(wait)
	defer deadline.Stop()
	for {
		evs, head, notify := e.eventsAfter(after)
		e.mu.Lock()
		closed := e.closed
		e.mu.Unlock()
		if len(evs) > 0 || wait == 0 || closed {
			if len(evs) > 0 {
				after = evs[len(evs)-1].Seq
			}
			e.setCursor(sub, max(after, head))
			s.stm.eventsOut.Add(uint64(len(evs)))
			writeJSON(w, http.StatusOK, map[string]any{
				"events": evs,
				"next":   max(after, head),
				"closed": closed,
			})
			return
		}
		select {
		case <-notify:
		case <-deadline.C:
			wait = 0 // answer empty on the next loop
		case <-r.Context().Done():
			return
		case <-e.done:
		case <-s.rootCtx.Done():
			wait = 0
		}
	}
}

func (s *Server) streamSSE(w http.ResponseWriter, r *http.Request, e *streamEntry, after int64) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusNotImplemented, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	sub := e.subscribe(after)
	defer e.unsubscribe(sub)
	for {
		evs, _, notify := e.eventsAfter(after)
		for _, ev := range evs {
			data, err := json.Marshal(ev)
			if err != nil {
				continue
			}
			if _, err := fmt.Fprintf(w, "event: window\ndata: %s\n\n", data); err != nil {
				return
			}
			after = ev.Seq
			s.stm.eventsOut.Inc()
		}
		e.setCursor(sub, after)
		fl.Flush()
		e.mu.Lock()
		closed := e.closed
		e.mu.Unlock()
		if closed {
			// Drain fully before finishing: events published between the
			// snapshot above and the closed check are caught next loop.
			if evs, _, _ := e.eventsAfter(after); len(evs) == 0 {
				fmt.Fprintf(w, "event: finish\ndata: {\"stream\":%q}\n\n", e.id)
				fl.Flush()
				return
			}
			continue
		}
		select {
		case <-notify:
		case <-e.done:
		case <-r.Context().Done():
			return
		case <-s.rootCtx.Done():
			return
		}
	}
}

// StreamHealth is the per-stream section of /healthz.
type StreamHealth struct {
	ID            string `json:"id"`
	Series        string `json:"series,omitempty"`
	Closed        bool   `json:"closed,omitempty"`
	Windows       int    `json:"windows"`
	OpenBursts    int    `json:"openBursts"`
	Appended      int64  `json:"appended"`
	Quarantined   int64  `json:"quarantined"`
	Incremental   bool   `json:"incremental"`
	Subscribers   int    `json:"subscribers"`
	SubscriberLag int64  `json:"subscriberLag"`
	LastError     string `json:"lastError,omitempty"`
}

// streamHealth snapshots every resident stream for /healthz.
func (s *Server) streamHealth() []StreamHealth {
	entries := s.streams.list()
	out := make([]StreamHealth, 0, len(entries))
	for _, e := range entries {
		e.mu.Lock()
		st := e.sess.Stats()
		closed := e.closed
		lastErr := e.lastError
		e.mu.Unlock()
		lag, subs := e.lag()
		out = append(out, StreamHealth{
			ID:            e.id,
			Series:        e.series,
			Closed:        closed,
			Windows:       st.WindowsSealed,
			OpenBursts:    st.OpenBursts,
			Appended:      st.Appended,
			Quarantined:   st.Quarantined,
			Incremental:   st.Incremental,
			Subscribers:   subs,
			SubscriberLag: lag,
			LastError:     lastErr,
		})
	}
	return out
}
