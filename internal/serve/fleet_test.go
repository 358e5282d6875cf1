package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cnf"
)

// mustJSON marshals v or fails the test.
func mustJSON(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// fleetReplica is one in-process replica of a test fleet.
type fleetReplica struct {
	ts    *httptest.Server
	sched *Scheduler
	srv   *Server
	fleet *Fleet
}

// newTestFleet boots n replicas sharing one ring: each replica's fleet
// lists every OTHER replica as a peer (member lists agree as sets, in
// different orders — the ring must not care).
func newTestFleet(t *testing.T, n int, cfg Config) []*fleetReplica {
	t.Helper()
	reps := make([]*fleetReplica, n)
	urls := make([]string, n)
	for i := range reps {
		sched := NewScheduler(cfg)
		srv := NewServer(sched)
		srv.batchFlushWait = 10 * time.Millisecond
		ts := httptest.NewServer(srv)
		reps[i] = &fleetReplica{ts: ts, sched: sched, srv: srv}
		urls[i] = ts.URL
		t.Cleanup(func() {
			ts.Close()
			sched.Close()
		})
	}
	for i, rep := range reps {
		var peers []string
		for j, u := range urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		f, err := NewFleet(urls[i], peers, nil)
		if err != nil {
			t.Fatal(err)
		}
		rep.fleet = f
		rep.srv.SetFleet(f)
	}
	return reps
}

// ownerIndex resolves which replica owns sp's ring position, asserting
// every replica agrees.
func ownerIndex(t *testing.T, reps []*fleetReplica, sp Spec) int {
	t.Helper()
	in := sp.ingest()
	if in.err != nil {
		t.Fatalf("ingest failed on a valid spec: %v", in.err)
	}
	owner := reps[0].fleet.Owner(in.key[:])
	for _, rep := range reps[1:] {
		if got := rep.fleet.Owner(in.key[:]); got != owner {
			t.Fatalf("replicas disagree on owner: %q vs %q", got, owner)
		}
	}
	for i, rep := range reps {
		if rep.ts.URL == owner {
			return i
		}
	}
	t.Fatalf("owner %q is not a replica", owner)
	return -1
}

// fleetSolves sums fresh solves across the fleet.
func fleetSolves(reps []*fleetReplica) int64 {
	var n int64
	for _, rep := range reps {
		n += rep.sched.Stats().Solves
	}
	return n
}

// TestFleetForwardSolveOnceCacheOnOwner is the 3-replica pin of the
// sharding contract: a job submitted to a non-owner is forwarded to
// its owner (X-Satserved-Owner names it), the fleet solves the formula
// exactly once no matter which replicas are hit, and resubmissions —
// from ANY replica — are cache hits on the owner.
func TestFleetForwardSolveOnceCacheOnOwner(t *testing.T) {
	reps := newTestFleet(t, 3, Config{CPUBudget: 2, MaxRunning: 2})
	sp := satSpec(10, 7)
	owner := ownerIndex(t, reps, sp)
	nonOwner := (owner + 1) % 3

	resp, v := postJob(t, reps[nonOwner].ts, submitRequest{Spec: sp})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	if got := resp.Header.Get(HeaderOwner); got != reps[owner].ts.URL {
		t.Fatalf("owner header %q, want %q", got, reps[owner].ts.URL)
	}
	if v.Status != StatusDone || v.Result == nil || v.Result.Verdict != "SAT" {
		t.Fatalf("forwarded view %+v, want done SAT", v)
	}

	// The solve happened on the owner, nowhere else.
	if got := reps[owner].sched.Stats().Solves; got != 1 {
		t.Fatalf("owner solves = %d, want 1", got)
	}
	if got := reps[nonOwner].sched.Stats().Solves; got != 0 {
		t.Fatalf("non-owner solves = %d, want 0", got)
	}
	if got := reps[nonOwner].fleet.Stats().Forwards; got != 1 {
		t.Fatalf("non-owner forwards = %d, want 1", got)
	}

	// Resubmit through every replica (owner included): all cache hits
	// on the owner, zero new solves anywhere.
	for i, rep := range reps {
		resp, v := postJob(t, rep.ts, submitRequest{Spec: sp})
		if resp.StatusCode != http.StatusOK || v.Result == nil || v.Result.Verdict != "SAT" {
			t.Fatalf("replica %d resubmit: status %d view %+v", i, resp.StatusCode, v)
		}
		if !v.Result.Cached {
			t.Fatalf("replica %d resubmit not served from cache: %+v", i, v.Result)
		}
	}
	if got := fleetSolves(reps); got != 1 {
		t.Fatalf("fleet-wide solves = %d, want 1", got)
	}
	if got := reps[owner].sched.Stats().CacheHits; got != 3 {
		t.Fatalf("owner cache hits = %d, want 3", got)
	}
}

// TestFleetForwardedRequestServedWhereItLands pins loop prevention: a
// submission already carrying X-Satserved-Forwarded is solved locally
// even by a replica that does not own it, and never re-forwarded.
func TestFleetForwardedRequestServedWhereItLands(t *testing.T) {
	reps := newTestFleet(t, 3, Config{CPUBudget: 2, MaxRunning: 2})
	sp := satSpec(10, 3)
	owner := ownerIndex(t, reps, sp)
	nonOwner := (owner + 1) % 3

	body := mustJSON(t, submitRequest{Spec: sp})
	req, err := http.NewRequest(http.MethodPost, reps[nonOwner].ts.URL+"/v1/jobs", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(HeaderForwarded, "http://elsewhere.invalid")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	if got := resp.Header.Get(HeaderOwner); got != reps[nonOwner].ts.URL {
		t.Fatalf("owner header %q, want the serving replica %q", got, reps[nonOwner].ts.URL)
	}
	if got := reps[nonOwner].sched.Stats().Solves; got != 1 {
		t.Fatalf("non-owner solves = %d, want 1 (served where it landed)", got)
	}
	if got := reps[owner].sched.Stats().Solves; got != 0 {
		t.Fatalf("owner solves = %d, want 0 (no re-forward)", got)
	}
}

// TestFleetFallbackWhenOwnerDown pins the availability contract:
// ownership is advisory, so a submission whose owner is unreachable is
// solved locally by whichever replica took it.
func TestFleetFallbackWhenOwnerDown(t *testing.T) {
	reps := newTestFleet(t, 3, Config{CPUBudget: 2, MaxRunning: 2})

	// Find a spec owned by replica 2, then kill replica 2.
	var sp Spec
	victim := -1
	for seed := int64(1); seed < 100; seed++ {
		sp = satSpec(10, seed)
		if victim = ownerIndex(t, reps, sp); victim == 2 {
			break
		}
	}
	if victim != 2 {
		t.Fatal("no seed in range owned by replica 2")
	}
	reps[2].ts.Close()

	resp, v := postJob(t, reps[0].ts, submitRequest{Spec: sp})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 via local fallback", resp.StatusCode)
	}
	if v.Status != StatusDone || v.Result == nil || v.Result.Verdict != "SAT" {
		t.Fatalf("fallback view %+v, want done SAT", v)
	}
	if got := reps[0].sched.Stats().Solves; got != 1 {
		t.Fatalf("replica 0 solves = %d, want 1 (local fallback)", got)
	}
	fst := reps[0].fleet.Stats()
	if fst.ForwardErrors < 1 || fst.LocalFallbacks < 1 {
		t.Fatalf("fleet stats %+v, want the failed forward and the fallback counted", fst)
	}
}

// TestFleetNoCacheStaysLocal: NoCache jobs have no cache identity, so
// they are never routed — whoever receives one solves it.
func TestFleetNoCacheStaysLocal(t *testing.T) {
	reps := newTestFleet(t, 2, Config{CPUBudget: 2, MaxRunning: 2})
	sp := satSpec(10, 11)
	sp.NoCache = true

	for i, rep := range reps {
		resp, v := postJob(t, rep.ts, submitRequest{Spec: sp})
		if resp.StatusCode != http.StatusOK || v.Result == nil || v.Result.Verdict != "SAT" {
			t.Fatalf("replica %d: status %d view %+v", i, resp.StatusCode, v)
		}
		if got := rep.sched.Stats().Solves; got != 1 {
			t.Fatalf("replica %d solves = %d, want 1 (NoCache never forwards)", i, got)
		}
		if got := rep.fleet.Stats().Forwards; got != 0 {
			t.Fatalf("replica %d forwards = %d, want 0", i, got)
		}
	}
}

// TestNewFleetValidation rejects configurations that would corrupt the
// ring: no self, relative member URLs.
func TestNewFleetValidation(t *testing.T) {
	if _, err := NewFleet("", []string{"http://a:1"}, nil); err == nil {
		t.Fatal("empty self accepted")
	}
	if _, err := NewFleet("http://a:1", []string{"b:nope:"}, nil); err == nil {
		t.Fatal("relative peer URL accepted")
	}
	f, err := NewFleet("http://a:1", []string{"http://b:1", "http://a:1"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Stats().Members; got != 2 {
		t.Fatalf("members = %d, want 2 (self listed twice deduplicates)", got)
	}
}

// TestFleetParseOncePerReplica pins ingest cost across a two-replica
// fleet: a DIMACS job owned by its entry replica is parsed exactly once
// — routing's parse is the one the local submit uses — and its trace's
// parse tile covers that parse; a forwarded job is parsed once on each
// replica it touches.
func TestFleetParseOncePerReplica(t *testing.T) {
	// Swap the parser before any replica starts and restore it after
	// they all stop (cleanups run last-registered first).
	var parses atomic.Int64
	sound := parseDIMACS
	t.Cleanup(func() { parseDIMACS = sound })
	const parseDelay = 2 * time.Millisecond
	parseDIMACS = func(s string) (*cnf.Formula, error) {
		parses.Add(1)
		time.Sleep(parseDelay) // long enough to stand out in the trace
		return sound(s)
	}
	reps := newTestFleet(t, 2, Config{CPUBudget: 2, MaxRunning: 2})

	owned := satSpec(10, 7)
	owner := ownerIndex(t, reps, owned)
	parses.Store(0)
	resp, v := postJob(t, reps[owner].ts, submitRequest{Spec: owned})
	if resp.StatusCode != http.StatusOK || v.Status != StatusDone {
		t.Fatalf("owned job: status %d, view %+v", resp.StatusCode, v)
	}
	if n := parses.Load(); n != 1 {
		t.Fatalf("owned job parsed %d times, want 1", n)
	}
	tv, ok := reps[owner].sched.Get(v.ID).TraceView()
	if !ok {
		t.Fatal("job carries no trace")
	}
	if parse := tv.PhaseTotals()["parse"]; parse < parseDelay.Microseconds() {
		t.Fatalf("parse tile %d µs, want ≥ %d: the trace misses the routing parse", parse, parseDelay.Microseconds())
	}

	forwarded := satSpec(10, 8)
	entry := 1 - ownerIndex(t, reps, forwarded)
	parses.Store(0)
	resp, v = postJob(t, reps[entry].ts, submitRequest{Spec: forwarded})
	if resp.StatusCode != http.StatusOK || v.Status != StatusDone {
		t.Fatalf("forwarded job: status %d, view %+v", resp.StatusCode, v)
	}
	if n := parses.Load(); n != 2 {
		t.Fatalf("forwarded job parsed %d times, want 2 (entry and owner once each)", n)
	}
}
