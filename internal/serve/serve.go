// Package serve turns the durable sweep runner into a multi-tenant
// HTTP/JSON service. A submission — single cells or a declarative
// parameter grid — is validated, canonicalized and content-addressed
// exactly like the CLI path (internal/durable's key = SHA-256 of the
// canonical spec, cell = key + run index), then deduplicated twice:
//
//   - against the persistent store: a cell any prior run of any process
//     checkpointed replays byte-identically with zero simulation work;
//   - against in-flight work: a cell already queued or executing for
//     any other job attaches as a single-flight waiter, so a thousand
//     clients submitting the same grid share one execution per cell.
//
// Cells that do execute are scheduled across a bounded worker fleet
// through a weighted fair queue keyed by client, with admission control
// (bounded in-system cells, 429 + Retry-After on overload) so one
// tenant's ten-thousand-cell grid can neither starve another tenant's
// single cell nor exhaust memory. Progress streams per job over SSE,
// and every queue/cache/latency signal lands in an obs registry served
// from /metricsz.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"smistudy/internal/durable"
	"smistudy/internal/obs"
	"smistudy/internal/scenario"
)

// Config shapes a Server.
type Config struct {
	// StoreDir roots the durable result store. Empty runs memory-only:
	// single-flight coalescing still applies, but nothing survives a
	// restart and /v1/results has nothing to serve.
	StoreDir string
	// Workers bounds the execution fleet (≤ 0: one per CPU).
	Workers int
	// MaxQueued bounds admitted, unfinished cells (≤ 0: 4096). Coalesced
	// waiters are free — only cells that will occupy a worker count.
	MaxQueued int
	// CellTimeout, Retries: the durable per-cell policy.
	CellTimeout time.Duration
	Retries     int
	// Tracer, when non-nil, receives the durable layer's cell events.
	Tracer obs.Tracer
}

// Server is the sweep service. Create with New, serve Handler, Close on
// shutdown.
type Server struct {
	cfg      Config
	store    *durable.Store
	storeErr error
	dopts    durable.Options
	reg      *obs.Registry
	mux      *http.ServeMux
	q        *fairQueue
	co       *coalescer
	workers  int

	durStats durable.Stats // aggregate durable accounting across all cells

	mu      sync.Mutex
	jobs    map[string]*job
	nextJob int64

	ewmaUS int64 // recent mean cell latency, µs (atomic; Retry-After input)

	wg     sync.WaitGroup
	closed atomic.Bool

	// exec is the cell execution seam; tests swap it for gated or
	// failing executions without inventing workload shapes.
	exec func(req durable.CellRequest, o durable.Options, st *durable.Stats) durable.CellResult
}

// New builds the server and starts its worker fleet. A store that fails
// to open does not fail construction: the server comes up degraded —
// /healthz is alive, /readyz and submissions report 503 — so an
// orchestrator sees a readiness failure instead of a crash loop.
func New(cfg Config) *Server {
	s := &Server{
		cfg:     cfg,
		reg:     obs.NewRegistry(),
		co:      newCoalescer(),
		jobs:    map[string]*job{},
		workers: cfg.Workers,
	}
	if s.workers <= 0 {
		s.workers = runtime.GOMAXPROCS(0)
	}
	max := cfg.MaxQueued
	if max <= 0 {
		max = 4096
	}
	s.q = newFairQueue(max)
	s.exec = func(req durable.CellRequest, o durable.Options, st *durable.Stats) durable.CellResult {
		// In-flight cells run to completion even across Close (the cell
		// deadline in o bounds them); a background context keeps a
		// graceful shutdown from turning finished work into errors.
		return durable.RunCell(context.Background(), req, o, st)
	}
	if cfg.StoreDir != "" {
		s.store, s.storeErr = durable.Open(cfg.StoreDir)
	}
	s.dopts = durable.Options{
		Store:       s.store,
		Resume:      true,
		CellTimeout: cfg.CellTimeout,
		Retry:       durable.Policy{MaxRetries: cfg.Retries},
		Tracer:      cfg.Tracer,
	}
	s.routes()
	for i := 0; i < s.workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Ready reports nil when the server can accept work; the store-open
// error otherwise (the /readyz body).
func (s *Server) Ready() error { return s.storeErr }

// Close stops admission, wakes the workers and waits for in-flight
// cells, then closes the store. Cells still queued are abandoned.
func (s *Server) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	s.q.close()
	s.wg.Wait()
	if s.store != nil {
		return s.store.Close()
	}
	return nil
}

// Handler returns the HTTP API.
func (s *Server) Handler() http.Handler { return s.mux }

// MetricsSnapshot snapshots the server's obs registry (the /metricsz
// document).
func (s *Server) MetricsSnapshot() obs.Snapshot { return s.reg.Snapshot() }

// Stats summarizes the server's lifetime accounting for a manifest.
func (s *Server) Stats() obs.ServeStats {
	snap := s.reg.Snapshot()
	return obs.ServeStats{
		Submissions: snap.Counter("serve_submissions", -1),
		Jobs:        snap.Counter("serve_jobs_done", -1),
		JobsFailed:  snap.Counter("serve_jobs_failed", -1),
		Rejected:    snap.Counter("serve_rejected", -1),
		Cells:       snap.Counter("serve_cells_total", -1),
		Executed:    snap.Counter("serve_cells_executed", -1),
		Cached:      snap.Counter("serve_cells_cached", -1),
		Coalesced:   snap.Counter("serve_cells_coalesced", -1),
		Failed:      snap.Counter("serve_cells_failed", -1),
	}
}

// DurableStats returns the aggregate durable-layer accounting (the
// manifest's durable block).
func (s *Server) DurableStats() *durable.Stats { return &s.durStats }

// SubmitRequest is the POST /v1/sweeps body. Specs are raw scenario
// documents (strict-parsed); Grid expands to further cells. At least
// one cell must result.
type SubmitRequest struct {
	// Client identifies the tenant for fair queueing ("anonymous" when
	// empty). Weight scales the tenant's fair share (default 1).
	Client string  `json:"client,omitempty"`
	Weight float64 `json:"weight,omitempty"`

	Specs []json.RawMessage `json:"specs,omitempty"`
	Grid  *scenario.Grid    `json:"grid,omitempty"`
}

// SubmitSpec echoes one accepted spec's identity.
type SubmitSpec struct {
	Name  string `json:"name,omitempty"`
	Key   string `json:"key"`
	Cells int    `json:"cells"`
}

// SubmitResponse is the 202 body.
type SubmitResponse struct {
	ID        string       `json:"id"`
	Cells     int          `json:"cells"`
	Coalesced int          `json:"coalesced"`
	Specs     []SubmitSpec `json:"specs"`
	StatusURL string       `json:"status_url"`
	EventsURL string       `json:"events_url"`
}

// errorDoc is every non-2xx JSON body.
type errorDoc struct {
	Error      string `json:"error"`
	RetryAfter int    `json:"retry_after_s,omitempty"`
}

func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/sweeps", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/sweeps/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/sweeps/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/results/{hash}", s.handleResult)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("GET /readyz", s.handleReady)
	s.mux.HandleFunc("GET /metricsz", s.handleMetrics)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if err := s.storeErr; err != nil {
		http.Error(w, fmt.Sprintf("store unavailable: %v", err), http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ready")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	queued, inSystem := s.q.depth()
	s.reg.Gauge("serve_queue_depth", -1).Set(int64(queued))
	s.reg.Gauge("serve_cells_in_system", -1).Set(int64(inSystem))
	data, err := s.reg.Snapshot().JSON()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
	w.Write([]byte("\n"))
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.storeErr != nil {
		writeJSON(w, http.StatusServiceUnavailable,
			errorDoc{Error: fmt.Sprintf("store unavailable: %v", s.storeErr)})
		return
	}
	var req SubmitRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorDoc{Error: fmt.Sprintf("bad submission: %v", err)})
		return
	}
	var specs []scenario.Spec
	for i, raw := range req.Specs {
		sp, err := scenario.Parse(raw)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorDoc{Error: fmt.Sprintf("spec %d: %v", i, err)})
			return
		}
		specs = append(specs, sp)
	}
	if req.Grid != nil {
		cells, err := req.Grid.Expand()
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorDoc{Error: fmt.Sprintf("grid: %v", err)})
			return
		}
		specs = append(specs, cells...)
	}
	if len(specs) == 0 {
		writeJSON(w, http.StatusBadRequest, errorDoc{Error: "submission has no specs"})
		return
	}
	plans := make([]durable.SpecPlan, len(specs))
	for i, sp := range specs {
		p, err := durable.PlanSpec(sp, s.store)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorDoc{Error: fmt.Sprintf("spec %d: %v", i, err)})
			return
		}
		plans[i] = p
	}

	client := req.Client
	if client == "" {
		client = "anonymous"
	}
	s.mu.Lock()
	s.nextJob++
	j := newJob(jobID(s.nextJob), client, specs, plans)
	s.mu.Unlock()
	j.onDone = func(failed bool) {
		if failed {
			s.reg.Counter("serve_jobs_failed", -1).Add(1)
		} else {
			s.reg.Counter("serve_jobs_done", -1).Add(1)
		}
	}

	reqs, refs := j.refs()
	coalesced, err := s.co.attach(reqs, refs, time.Now(), func(ts []*cellTask) error {
		return s.q.enqueue(client, req.Weight, ts)
	})
	if err != nil {
		var full *errOverloaded
		if errors.As(err, &full) {
			retry := s.retryAfter()
			s.reg.Counter("serve_rejected", -1).Add(1)
			w.Header().Set("Retry-After", strconv.Itoa(retry))
			writeJSON(w, http.StatusTooManyRequests, errorDoc{Error: err.Error(), RetryAfter: retry})
			return
		}
		writeJSON(w, http.StatusServiceUnavailable, errorDoc{Error: err.Error()})
		return
	}

	s.mu.Lock()
	s.jobs[j.id] = j
	s.mu.Unlock()
	s.reg.Counter("serve_submissions", -1).Add(1)
	s.reg.Counter("serve_cells_total", -1).Add(int64(len(j.cells)))
	s.reg.Counter("serve_cells_coalesced", -1).Add(int64(coalesced))
	j.start()

	resp := SubmitResponse{
		ID:        j.id,
		Cells:     len(j.cells),
		Coalesced: coalesced,
		StatusURL: "/v1/sweeps/" + j.id,
		EventsURL: "/v1/sweeps/" + j.id + "/events",
	}
	for i, p := range plans {
		resp.Specs = append(resp.Specs, SubmitSpec{Name: specs[i].Name, Key: p.Key, Cells: len(p.Cells)})
	}
	writeJSON(w, http.StatusAccepted, resp)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		writeJSON(w, http.StatusNotFound, errorDoc{Error: "no such job"})
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		writeJSON(w, http.StatusNotFound, errorDoc{Error: "no such job"})
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	history, ch, cancel := j.subscribe()
	defer cancel()
	for _, ev := range history {
		writeSSE(w, ev)
		if ev.terminal() {
			fl.Flush()
			return
		}
	}
	fl.Flush()
	for {
		select {
		case ev := <-ch:
			writeSSE(w, ev)
			fl.Flush()
			if ev.terminal() {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

func writeSSE(w http.ResponseWriter, ev Event) {
	data, err := json.Marshal(ev)
	if err != nil {
		return
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Kind, data)
}

// handleResult serves the store's view of one content address: every
// journaled run plus the canonical spec document when recorded.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	if s.storeErr != nil {
		writeJSON(w, http.StatusServiceUnavailable,
			errorDoc{Error: fmt.Sprintf("store unavailable: %v", s.storeErr)})
		return
	}
	if s.store == nil {
		writeJSON(w, http.StatusNotFound, errorDoc{Error: "server runs without a store"})
		return
	}
	key := r.PathValue("hash")
	type resultCell struct {
		Run         int     `json:"run"`
		Measurement jsonRaw `json:"measurement"`
	}
	doc := struct {
		Key   string       `json:"key"`
		Spec  jsonRaw      `json:"spec,omitempty"`
		Cells []resultCell `json:"cells"`
	}{Key: key}
	for _, c := range s.store.Cells() {
		if c.Key != key {
			continue
		}
		data, err := s.store.Get(c.Key, c.Run)
		if err != nil {
			continue // corrupt object: absent, exactly as the sweep path treats it
		}
		doc.Cells = append(doc.Cells, resultCell{Run: c.Run, Measurement: data})
	}
	if len(doc.Cells) == 0 {
		writeJSON(w, http.StatusNotFound, errorDoc{Error: "no results for " + key})
		return
	}
	if spec, err := s.store.SpecJSON(key); err == nil {
		doc.Spec = spec
	}
	writeJSON(w, http.StatusOK, doc)
}

func (s *Server) job(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// retryAfter estimates seconds until the queue has drained enough to
// admit new work: in-system cells over fleet throughput at the recent
// mean cell latency, clamped to [1, 60].
func (s *Server) retryAfter() int {
	_, inSystem := s.q.depth()
	ewma := time.Duration(atomic.LoadInt64(&s.ewmaUS)) * time.Microsecond
	if ewma <= 0 {
		return 1
	}
	sec := math.Ceil(float64(inSystem) * ewma.Seconds() / float64(s.workers))
	if sec < 1 {
		return 1
	}
	if sec > 60 {
		return 60
	}
	return int(sec)
}

// worker drains the fair queue until close.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		t, ok := s.q.dequeue()
		if !ok {
			return
		}
		wait := time.Since(t.enq)
		s.reg.Histogram("serve_queue_wait_ms", -1, obs.Log2Bounds(1, 1<<20)).
			Observe(float64(wait) / float64(time.Millisecond))
		start := time.Now()
		res := s.exec(t.req, s.dopts, &s.durStats)
		lat := time.Since(start)
		s.observeLatency(lat)
		s.complete(t, res, lat)
		s.q.release(1)
	}
}

// observeLatency feeds the cell-latency histogram and the Retry-After
// EWMA.
func (s *Server) observeLatency(lat time.Duration) {
	s.reg.Histogram("serve_cell_latency_ms", -1, obs.Log2Bounds(1, 1<<20)).
		Observe(float64(lat) / float64(time.Millisecond))
	us := lat.Microseconds()
	for {
		old := atomic.LoadInt64(&s.ewmaUS)
		next := us
		if old > 0 {
			next = (old*9 + us) / 10
		}
		if atomic.CompareAndSwapInt64(&s.ewmaUS, old, next) {
			return
		}
	}
}

// complete detaches the finished task and delivers the result to the
// owner and every coalesced waiter.
func (s *Server) complete(t *cellTask, res durable.CellResult, lat time.Duration) {
	refs := s.co.finish(t)
	ownerVia := "executed"
	if res.Cached {
		ownerVia = "cached"
	}
	switch {
	case res.Err != nil:
		s.reg.Counter("serve_cells_failed", -1).Add(int64(len(refs)))
	case res.Cached:
		s.reg.Counter("serve_cells_cached", -1).Add(1)
	default:
		s.reg.Counter("serve_cells_executed", -1).Add(1)
	}
	for i, ref := range refs {
		via := ownerVia
		if i > 0 {
			via = "coalesced"
		}
		ref.j.cellDone(ref.cell, res, via, lat)
	}
}
