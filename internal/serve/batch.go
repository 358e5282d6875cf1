package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"
)

// Batch submission limits and flush shape.
const (
	// maxBatchItems bounds one POST /v1/jobs/batch. The endpoint exists
	// for MANY SMALL formulas (the paper's EDA workloads fire storms of
	// tiny SAT queries — test-pattern targets, local equivalences);
	// anything bigger belongs in its own request.
	maxBatchItems = 256
	// batchFlushSize is the bounded-batch half of the flush policy: a
	// full group of finished items is flushed immediately.
	batchFlushSize = 16
	// batchFlushWaitDefault is the maxWait half: buffered results never
	// wait longer than this for their group to fill.
	batchFlushWaitDefault = 200 * time.Millisecond
)

// batchRequest is the POST /v1/jobs/batch body.
type batchRequest struct {
	// Items are the job specs, solved concurrently through the same
	// fair-share scheduler as single submissions. Each item carries its
	// own knobs — TimeoutMS in particular is a PER-ITEM deadline: one
	// slow item answers UNKNOWN without poisoning its siblings.
	Items []Spec `json:"items"`
}

// batchItemView is one NDJSON response line: the item's final job view
// tagged with its position in the request. Lines stream in COMPLETION
// order, not request order — index is the correlation handle.
type batchItemView struct {
	Index int `json:"index"`
	View
}

// handleBatch is POST /v1/jobs/batch: submit every item, stream one
// NDJSON line per item as results land. Duplicates inside a batch (and
// against other in-flight traffic) coalesce through the scheduler's
// singleflight; with fleet routing enabled each item is routed to its
// owner individually. Results are flushed in bounded batches
// (batchFlushSize) with a maxWait bound, so a trickle of slow items
// still streams promptly while a burst of cache hits costs few
// flushes. A client disconnect mid-batch cancels only the still
// unfinished items.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes)).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("request body over %d bytes", maxRequestBytes))
			return
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %v", err))
		return
	}
	if len(req.Items) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("empty batch"))
		return
	}
	if len(req.Items) > maxBatchItems {
		writeError(w, http.StatusBadRequest, fmt.Errorf("batch of %d items over the %d limit: split it", len(req.Items), maxBatchItems))
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusNotImplemented, errors.New("streaming unsupported"))
		return
	}

	// ctx governs every per-item worker; cancelling it (disconnect, or
	// handler exit) cancels exactly the jobs still unfinished.
	ctx, cancelAll := context.WithCancel(r.Context())
	defer cancelAll()

	// Buffered to the item count: every worker delivers at most one
	// result and never blocks, so workers cannot leak behind a client
	// that stopped reading.
	results := make(chan batchItemView, len(req.Items))
	forwarded := r.Header.Get(HeaderForwarded) != ""
	for i, item := range req.Items {
		go s.runBatchItem(ctx, i, item, forwarded, results)
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	// Commit the 200 over the wire NOW: clients block on response
	// headers, and a batch whose first finisher is slow would otherwise
	// hold them (the status line buffers until the first flush).
	flusher.Flush()

	flushWait := s.batchFlushWait
	if flushWait <= 0 {
		flushWait = batchFlushWaitDefault
	}
	ticker := time.NewTicker(flushWait)
	defer ticker.Stop()

	enc := json.NewEncoder(w)
	pending := 0
	flush := func() {
		pending = 0
		flusher.Flush()
	}
	for remaining := len(req.Items); remaining > 0; {
		select {
		case v := <-results:
			_ = enc.Encode(v) // buffered by the ResponseWriter until Flush
			remaining--
			if pending++; pending >= batchFlushSize {
				flush()
			}
		case <-ticker.C:
			if pending > 0 {
				flush()
			}
		case <-r.Context().Done():
			// Client gone: the deferred cancelAll cancels the workers,
			// which cancel their still-running jobs. Finished items were
			// already streamed (or are lost with the connection —
			// either way the work is done and cached).
			return
		}
	}
	flush()
}

// runBatchItem solves one batch item end to end and delivers exactly
// one result line. With fleet routing, an item owned by a peer is
// forwarded as a sync single-job submission; a forwarding failure
// falls back to a local solve, mirroring routeSubmit.
func (s *Server) runBatchItem(ctx context.Context, index int, item Spec, forwarded bool, results chan<- batchItemView) {
	var in *ingest // routing's parse, reused by the local submit
	if f := s.fleet; f != nil && !item.NoCache && !forwarded {
		in = item.ingest()
		if in.err == nil {
			if owner := f.Owner(in.key[:]); owner != f.self {
				if v, ok := s.forwardBatchItem(ctx, owner, item); ok {
					results <- batchItemView{Index: index, View: v}
					return
				}
				f.fallbacks.Add(1)
			}
		}
	}

	job, err := s.sched.submit(item, in)
	if err != nil {
		// Admission failed (bad spec, full queue, closing): the item is
		// answered in place — batch siblings are unaffected.
		results <- batchItemView{Index: index, View: View{Kind: item.Kind, Status: StatusFailed, Error: err.Error()}}
		return
	}
	select {
	case <-job.Done():
	case <-ctx.Done():
		// Batch abandoned: cancel THIS item (still queued or running)
		// and report its terminal state for the buffered channel's
		// bookkeeping; nobody is reading the connection anymore.
		job.Cancel()
	}
	results <- batchItemView{Index: index, View: job.View()}
}

// forwardBatchItem submits one batch item synchronously to its owning
// peer and adapts the response to a job view. It reports false when
// the owner was unreachable or answered garbage — the caller solves
// locally instead.
func (s *Server) forwardBatchItem(ctx context.Context, owner string, item Spec) (View, bool) {
	f := s.fleet
	body, err := json.Marshal(submitRequest{Spec: item})
	if err != nil {
		return View{}, false
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, owner+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		f.fwdErrs.Add(1)
		return View{}, false
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(HeaderForwarded, f.self)
	resp, err := f.client.Do(hreq)
	if err != nil {
		f.fwdErrs.Add(1)
		return View{}, false
	}
	defer resp.Body.Close()
	var v View
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxRequestBytes)).Decode(&v); err != nil {
		f.fwdErrs.Add(1)
		return View{}, false
	}
	f.forwards.Add(1)
	if v.Status == "" {
		// Error-shape body ({"error": ...}): a real per-item answer
		// (e.g. the owner shed it), surfaced as a failed item rather
		// than re-solved locally — the owner DID respond.
		return View{Kind: item.Kind, Status: StatusFailed, Error: v.Error}, v.Error != ""
	}
	return v, true
}
