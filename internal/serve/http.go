package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"
)

// Server is the HTTP/JSON front end over a Scheduler. Routes:
//
//	POST   /v1/jobs            submit (sync by default; "async": true
//	                           returns immediately with the job ID)
//	POST   /v1/jobs/batch      submit many small jobs; streams one
//	                           NDJSON result line per item
//	GET    /v1/jobs/{id}       status + result + live progress
//	DELETE /v1/jobs/{id}       cooperative cancel
//	GET    /v1/jobs/{id}/watch server-sent events: progress samples
//	                           while running, final view on completion
//	GET    /v1/jobs/{id}/trace span trace: lifecycle phases tiling the
//	                           job's wall time, solver CPU attribution
//	GET    /v1/jobs/{id}/proof certification block of a "proof": true
//	                           job (verdict, DRAT, checker outcome,
//	                           audit-chain position)
//	GET    /v1/audit/head      audit chain length + head hash
//	GET    /v1/audit/{seq}     one audit record + inclusion check
//	                           (chain recomputed from genesis)
//	GET    /healthz            liveness + occupancy
//	GET    /metrics            Prometheus text exposition (obs.Registry)
//
// EnablePprof additionally mounts /debug/pprof/ (off by default).
//
// A full queue answers 429 with a Retry-After hint; malformed specs
// answer 400.
type Server struct {
	sched *Scheduler
	mux   *http.ServeMux
	// fleet, when non-nil, routes submissions across replicas (see
	// fleet.go). Set with SetFleet before serving.
	fleet *Fleet
	// watchPeriod is the SSE sampling period (test hook; 0 = 250ms).
	watchPeriod time.Duration
	// batchFlushWait is the batch streaming flush interval (test hook;
	// 0 = 200ms). See batch.go.
	batchFlushWait time.Duration
}

// NewServer wraps sched in the HTTP API.
func NewServer(sched *Scheduler) *Server {
	s := &Server{sched: sched, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("POST /v1/jobs/batch", s.handleBatch)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/watch", s.handleWatch)
	s.mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	s.mux.HandleFunc("GET /v1/jobs/{id}/proof", s.handleProof)
	s.mux.HandleFunc("GET /v1/audit/head", s.handleAuditHead)
	s.mux.HandleFunc("GET /v1/audit/{seq}", s.handleAuditGet)
	s.mux.HandleFunc("POST /v1/sessions", s.handleSessionCreate)
	s.mux.HandleFunc("GET /v1/sessions/{id}", s.handleSessionStatus)
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleSessionDelete)
	s.mux.HandleFunc("POST /v1/sessions/{id}/query", s.handleSessionQuery)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// SetFleet attaches the sharded-fleet routing layer (fleet.go). Call
// before the server starts accepting requests; a nil fleet (the
// default) serves every job locally.
func (s *Server) SetFleet(f *Fleet) {
	s.fleet = f
	if f != nil {
		s.sched.registerFleet(f)
	}
}

// EnablePprof mounts the net/http/pprof handlers under /debug/pprof/.
// Off by default — profiling endpoints expose memory contents and cost
// CPU, so satserved gates them behind its -pprof flag.
func (s *Server) EnablePprof() {
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// submitRequest is the POST /v1/jobs body: a Spec plus delivery mode.
type submitRequest struct {
	Spec
	// Async returns immediately after admission instead of waiting for
	// the result.
	Async bool `json:"async,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// maxRequestBytes bounds a submit body: big enough for multi-million
// clause DIMACS payloads, small enough that one request cannot OOM the
// long-lived service.
const maxRequestBytes = 64 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// Read the body once: fleet routing forwards these bytes verbatim.
	// The decoder, unlike json.Unmarshal, ignores data after the first
	// value.
	var req submitRequest
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err == nil {
		err = json.NewDecoder(bytes.NewReader(body)).Decode(&req)
	}
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			// Distinguishable from malformed JSON: the client should
			// shrink or split the payload, not fix its encoding.
			writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("request body over %d bytes", maxRequestBytes))
			return
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %v", err))
		return
	}
	handled, in := s.routeSubmit(w, r, &req, body)
	if handled {
		return // answered by the owning peer (see fleet.go)
	}
	job, err := s.sched.submit(req.Spec, in)
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, ErrBadJob):
		writeError(w, http.StatusBadRequest, err)
		return
	case errors.Is(err, ErrClosed):
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if req.Async {
		// 202 means "still processing"; a job that is already terminal
		// (a cache hit finalizes before Submit returns) carries its
		// full result now and must say 200.
		switch job.Status() {
		case StatusQueued, StatusRunning:
			writeJSON(w, http.StatusAccepted, job.View())
		default:
			writeJSON(w, http.StatusOK, job.View())
		}
		return
	}
	// Sync delivery: wait under the client's connection context. A
	// dropped connection cancels the wait, not the job — an identical
	// resubmission will coalesce onto it. Any non-terminal state at
	// that point (queued OR still running) is a 202, never a 200: the
	// solve has not produced a result.
	_, waitErr := job.Wait(r.Context())
	st := job.Status()
	if waitErr != nil && (st == StatusQueued || st == StatusRunning) {
		writeJSON(w, http.StatusAccepted, job.View())
		return
	}
	if errors.Is(waitErr, ErrQueueFull) {
		// A follower that lost its leader and found the queue full:
		// overload, and retryable — unlike a genuine failure.
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, job.View())
		return
	}
	switch st {
	case StatusFailed:
		// The spec parsed but the engine rejected it (e.g. a CEC miter
		// over mismatched netlists): the request itself is at fault,
		// not the server.
		writeJSON(w, http.StatusUnprocessableEntity, job.View())
	case StatusCancelled:
		// Cancelled out from under the waiter (a concurrent DELETE or
		// scheduler shutdown): no verdict was produced, so a 2xx would
		// mislead clients gating on the status code.
		writeJSON(w, http.StatusConflict, job.View())
	default:
		writeJSON(w, http.StatusOK, job.View())
	}
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	job := s.sched.Get(r.PathValue("id"))
	if job == nil {
		writeError(w, http.StatusNotFound, errors.New("unknown job"))
		return
	}
	writeJSON(w, http.StatusOK, job.View())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	job := s.sched.Get(r.PathValue("id"))
	if job == nil {
		writeError(w, http.StatusNotFound, errors.New("unknown job"))
		return
	}
	switch job.Status() {
	case StatusDone, StatusFailed, StatusCancelled:
		// Nothing is (or will be) cancelled; tell the client what the
		// job actually became instead of a phantom "cancelling".
		writeJSON(w, http.StatusConflict, job.View())
	default:
		job.Cancel()
		writeJSON(w, http.StatusOK, map[string]string{"id": job.ID, "cancelling": "true"})
	}
}

// handleWatch streams progress as server-sent events until the job
// finishes (or the client goes away). Each event is a full job View.
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	job := s.sched.Get(r.PathValue("id"))
	if job == nil {
		writeError(w, http.StatusNotFound, errors.New("unknown job"))
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusNotImplemented, errors.New("streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	period := s.watchPeriod
	if period <= 0 {
		period = 250 * time.Millisecond
	}
	ticker := time.NewTicker(period)
	defer ticker.Stop()
	terminal := func(st Status) bool {
		return st == StatusDone || st == StatusFailed || st == StatusCancelled
	}
	emit := func() Status {
		v := job.View()
		data, _ := json.Marshal(v)
		fmt.Fprintf(w, "data: %s\n\n", data)
		flusher.Flush()
		return v.Status
	}
	// Every emit checks for a terminal view so the final state is
	// streamed exactly once — a job that finished before (or between)
	// samples must not produce a duplicate closing event.
	if terminal(emit()) {
		return
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case <-job.Done():
			emit()
			return
		case <-ticker.C:
			if terminal(emit()) {
				return
			}
		}
	}
}

// handleTrace serves a job's span trace: top-level phases tiling the
// lifecycle (parse, queue, admit, solve, persist, respond — or
// coalesce_wait rounds), solver CPU-attribution children under the
// solve span, and the certification sub-span. Available while the job
// runs (open spans report dur_us -1) and after it finishes.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	job := s.sched.Get(r.PathValue("id"))
	if job == nil {
		writeError(w, http.StatusNotFound, errors.New("unknown job"))
		return
	}
	v, ok := job.TraceView()
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("job carries no trace"))
		return
	}
	writeJSON(w, http.StatusOK, v)
}

// handleProof serves a finished job's certification block. Still-active
// jobs answer 202 (come back later), terminal jobs without a result
// 409, and finished jobs that never asked for a proof 404 — the proof
// flag changes the cache keyspace, so it cannot be granted after the
// fact.
func (s *Server) handleProof(w http.ResponseWriter, r *http.Request) {
	job := s.sched.Get(r.PathValue("id"))
	if job == nil {
		writeError(w, http.StatusNotFound, errors.New("unknown job"))
		return
	}
	switch job.Status() {
	case StatusQueued, StatusRunning:
		writeJSON(w, http.StatusAccepted, job.View())
		return
	}
	res, ok := job.Result()
	if !ok {
		writeJSON(w, http.StatusConflict, job.View())
		return
	}
	if res.Proof == nil {
		writeError(w, http.StatusNotFound,
			errors.New(`job carries no certificate (submit with "proof": true)`))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"id":      job.ID,
		"kind":    res.Kind,
		"verdict": res.Verdict,
		"decided": res.Decided,
		"proof":   res.Proof,
	})
}

// handleAuditHead reports the audit chain's length, head hash and
// boot-time verification flag.
func (s *Server) handleAuditHead(w http.ResponseWriter, _ *http.Request) {
	seq, head, bootOK := s.sched.audit.headInfo()
	writeJSON(w, http.StatusOK, map[string]any{
		"records":             seq,
		"head":                head,
		"chain_valid_at_boot": bootOK,
	})
}

// handleAuditGet serves one audit record together with its inclusion
// check: the chain is recomputed from the genesis record up to the
// requested sequence number, so "chain_verified": true means the record
// is provably part of the prefix the current head commits to.
func (s *Server) handleAuditGet(w http.ResponseWriter, r *http.Request) {
	seq, err := strconv.ParseUint(r.PathValue("seq"), 10, 64)
	if err != nil || seq == 0 {
		writeError(w, http.StatusBadRequest, errors.New("bad audit sequence number"))
		return
	}
	rec, ok, err := s.sched.audit.verify(seq)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"record":         rec,
		"chain_verified": ok,
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	st := s.sched.Stats()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":      "ok",
		"queue_depth": st.QueueDepth,
		"running":     st.Running,
	})
}

// handleMetrics renders the scheduler's unified registry (obs.go):
// # HELP/# TYPE metadata, deterministic sorted order, latency
// histograms with trace-ID exemplars. Every family the hand-rolled
// predecessor printed is preserved name-for-name.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.sched.Obs().WritePrometheus(w)
}
