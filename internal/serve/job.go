package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/bits"
	"strings"
	"sync"
	"time"

	"repro/internal/bmc"
	"repro/internal/cec"
	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/portfolio"
	"repro/internal/solver"
)

// Kind selects which engine a job runs.
type Kind string

// Supported job kinds.
const (
	// KindDIMACS solves a raw DIMACS CNF formula.
	KindDIMACS Kind = "dimacs"
	// KindCEC checks two combinational .bench circuits for equivalence
	// (miter UNSAT ⇔ equivalent).
	KindCEC Kind = "cec"
	// KindBMC bounded-model-checks a sequential .bench design up to a
	// depth (first declared output is the bad signal, latches reset 0).
	KindBMC Kind = "bmc"
)

// maxBMCDepth bounds Spec.Depth. The unroller adds one frame per step
// until the deadline, so an unbounded depth would turn one request into
// a job-long allocation loop; the deepest job satbench generates (an
// 8-bit LFSR) needs about 257 frames.
const maxBMCDepth = 4096

// singleThreaded reports whether the kind's engine can only ever use
// one worker; the fair-share scheduler accounts such jobs as one CPU
// instead of a full portfolio share.
func (k Kind) singleThreaded() bool { return k == KindBMC }

// payloadSize is the total byte size of the spec's engine inputs — the
// cost driver of parsing and fingerprinting.
func (sp *Spec) payloadSize() int {
	return len(sp.DIMACS) + len(sp.Left) + len(sp.Right) + len(sp.Model)
}

// Spec is the typed job envelope a client submits. Exactly the fields
// of its Kind must be populated; the rest are common knobs.
type Spec struct {
	Kind Kind `json:"kind"`

	// DIMACS is the CNF text for KindDIMACS.
	DIMACS string `json:"dimacs,omitempty"`
	// Left / Right are the two .bench netlists for KindCEC.
	Left  string `json:"left,omitempty"`
	Right string `json:"right,omitempty"`
	// Model is the sequential .bench netlist for KindBMC; Depth is the
	// inclusive unrolling bound.
	Model string `json:"model,omitempty"`
	Depth int    `json:"depth,omitempty"`

	// Workers requests a portfolio size. 0 asks for the scheduler's
	// current fair share; any request is clamped to that share, so one
	// giant job cannot starve the fleet.
	Workers int `json:"workers,omitempty"`
	// Adaptive opts the job's portfolio into adaptive scheduling
	// (kill/respawn of losing recipes). Meaningful with ≥ 2 workers.
	Adaptive bool `json:"adaptive,omitempty"`
	// MaxConflicts bounds each SAT query (0 = unlimited within the
	// deadline).
	MaxConflicts int64 `json:"max_conflicts,omitempty"`
	// TimeoutMS is the job deadline in milliseconds (0 = the
	// scheduler's default; always capped by the scheduler's maximum).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// NoCache bypasses both the result cache and in-flight coalescing:
	// the job is always solved fresh and its result is not stored.
	NoCache bool `json:"no_cache,omitempty"`
	// Proof requests a certified result (KindDIMACS only): UNSAT
	// verdicts carry a DRAT refutation checked server-side by the
	// independent RUP checker, SAT verdicts a server-verified model, and
	// the verdict's digests are committed to the hash-chained audit log.
	// Proof jobs live in their own cache keyspace: they are never
	// satisfied from a proofless cached or persisted entry.
	Proof bool `json:"proof,omitempty"`
}

// parsedPayload is the decoded, validated form of a Spec's payload.
type parsedPayload struct {
	formula     *cnf.Formula     // KindDIMACS
	left, right *circuit.Circuit // KindCEC
	seq         *bmc.Sequential  // KindBMC
}

// jobKey is the cache / singleflight identity of a job: identical keys
// are guaranteed to produce identical decided verdicts.
type jobKey [sha256.Size]byte

// parse validates the payload and derives the job's instance-class
// label (the coarse bucket the cross-run recipe memory keys on). The
// cache key is computed separately by cacheKey — NoCache jobs never
// need one.
func (sp *Spec) parse() (parsedPayload, string, error) {
	var p parsedPayload
	if sp.Proof && sp.Kind != KindDIMACS {
		// CEC and BMC verdicts are derived from transformed formulas
		// (miters, unrollings); a DRAT stream would refute the encoding,
		// not the submitted artifact, so certification stops at DIMACS.
		return p, "", fmt.Errorf("%w: proof is only supported for %q jobs", ErrBadJob, KindDIMACS)
	}
	switch sp.Kind {
	case KindDIMACS:
		f, err := cnf.ParseDIMACSString(sp.DIMACS)
		if err != nil {
			return p, "", fmt.Errorf("%w: %v", ErrBadJob, err)
		}
		if f.NumClauses() == 0 && f.NumVars() == 0 {
			return p, "", fmt.Errorf("%w: empty formula", ErrBadJob)
		}
		p.formula = f
		return p, dimacsClass(f), nil

	case KindCEC:
		left, _, err := circuit.ParseBenchString(sp.Left)
		if err != nil {
			return p, "", fmt.Errorf("%w: left: %v", ErrBadJob, err)
		}
		right, _, err := circuit.ParseBenchString(sp.Right)
		if err != nil {
			return p, "", fmt.Errorf("%w: right: %v", ErrBadJob, err)
		}
		p.left, p.right = left, right
		return p, fmt.Sprintf("cec/g%d", logBucket(len(left.Nodes)+len(right.Nodes))), nil

	case KindBMC:
		if sp.Depth < 0 || sp.Depth > maxBMCDepth {
			return p, "", fmt.Errorf("%w: depth %d outside [0, %d]", ErrBadJob, sp.Depth, maxBMCDepth)
		}
		seq, err := bmc.FromBench(strings.NewReader(sp.Model))
		if err != nil {
			return p, "", fmt.Errorf("%w: %v", ErrBadJob, err)
		}
		if err := seq.Validate(); err != nil {
			return p, "", fmt.Errorf("%w: %v", ErrBadJob, err)
		}
		p.seq = seq
		// BMC runs the sequential incremental unroller — there is no
		// recipe diversity to remember — so it carries no instance
		// class.
		return p, "", nil
	}
	return p, "", fmt.Errorf("%w: unknown kind %q", ErrBadJob, sp.Kind)
}

// cacheKey derives the job's cache/singleflight identity from a parsed
// spec. It is only called for cacheable jobs: the DIMACS canonical
// fingerprint in particular costs a full clause sort + hash, which a
// NoCache submission must not pay.
func (sp *Spec) cacheKey(p parsedPayload) jobKey {
	var key jobKey
	h := sha256.New()
	switch sp.Kind {
	case KindDIMACS:
		// The canonical formula fingerprint makes syntactic variants
		// (clause order, literal order, comments) the same cache line.
		fp := cnf.FormulaFingerprint(p.formula)
		h.Write([]byte("dimacs\x00"))
		if sp.Proof {
			// Proof jobs get a disjoint keyspace: a certified submission
			// must never hit — or coalesce onto — a proofless entry for
			// the same formula, and vice versa a plain submission must
			// not pay for (or pin) the certificate payload.
			h.Write([]byte("proof\x00"))
		}
		h.Write(fp[:])
	case KindCEC:
		// Length-prefix the components: an in-band separator byte could
		// be forged inside a payload, letting two different (Left,
		// Right) pairs collide on one cache key.
		h.Write([]byte("cec\x00"))
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(sp.Left)))
		h.Write(n[:])
		h.Write([]byte(sp.Left))
		binary.LittleEndian.PutUint64(n[:], uint64(len(sp.Right)))
		h.Write(n[:])
		h.Write([]byte(sp.Right))
	case KindBMC:
		h.Write([]byte("bmc\x00"))
		var d [8]byte
		binary.LittleEndian.PutUint64(d[:], uint64(sp.Depth))
		h.Write(d[:])
		h.Write([]byte(sp.Model))
	}
	h.Sum(key[:0])
	return key
}

// dimacsClass buckets a formula into the coarse instance class the
// recipe memory keys on: variable-count magnitude and clause/variable
// density. Two formulas in the same class are expected to favor the
// same recipe family (the IB-Net observation: winning setups are
// instance-class dependent).
func dimacsClass(f *cnf.Formula) string {
	nv := f.NumVars()
	if nv == 0 {
		nv = 1
	}
	ratio := (10*f.NumClauses() + nv/2) / nv // clause density ×10, rounded
	return fmt.Sprintf("dimacs/v%d/r%d", logBucket(nv), ratio)
}

func logBucket(n int) int {
	if n < 1 {
		n = 1
	}
	return bits.Len(uint(n))
}

// Status is a job's lifecycle state.
type Status string

// Job lifecycle states.
const (
	StatusQueued    Status = "queued"
	StatusRunning   Status = "running"
	StatusDone      Status = "done"
	StatusFailed    Status = "failed"
	StatusCancelled Status = "cancelled"
)

// Result is the outcome of a finished job. Results returned by the
// scheduler are value copies: the caller owns every field.
type Result struct {
	Kind Kind `json:"kind"`
	// Verdict is the engine answer: SAT / UNSAT for DIMACS,
	// EQUIVALENT / NOT_EQUIVALENT for CEC, VIOLATED / SAFE for BMC,
	// UNKNOWN when a budget or deadline expired first.
	Verdict string `json:"verdict"`
	// Decided is false only for UNKNOWN verdicts.
	Decided bool `json:"decided"`
	// Model is a satisfying assignment in DIMACS literal form (DIMACS
	// kind, SAT verdict).
	Model []int `json:"model,omitempty"`
	// Counterexample is a distinguishing input vector (CEC kind,
	// NOT_EQUIVALENT verdict), ordered like the left circuit's inputs.
	Counterexample []bool `json:"counterexample,omitempty"`
	// Depth is the first violating frame (BMC kind, VIOLATED verdict).
	// Not omitempty: depth 0 — the initial state already bad — is a
	// legal violating depth and must serialize.
	Depth int `json:"depth"`
	// Recipe is the winning portfolio recipe ("" when a sequential
	// engine answered).
	Recipe string `json:"recipe,omitempty"`
	// Preferred echoes the recipe family the cross-run memory seeded
	// this run with ("" = no hint).
	Preferred string `json:"preferred,omitempty"`
	// Conflicts aggregates conflicts across the engines that ran.
	Conflicts int64 `json:"conflicts"`
	// Workers is the portfolio size the scheduler granted.
	Workers int `json:"workers"`
	// Cached marks a result served from the result cache; Coalesced
	// marks one inherited from an identical in-flight job.
	Cached    bool `json:"cached,omitempty"`
	Coalesced bool `json:"coalesced,omitempty"`
	// WallMS is the solve wall time in milliseconds (0 for cache hits).
	WallMS int64 `json:"wall_ms"`
	// Proof is the certification block of a Spec.Proof job (nil
	// otherwise, and for undecided proof jobs' UNKNOWN results).
	Proof *ProofInfo `json:"proof,omitempty"`

	// warm is the deciding solver's branching warm-start profile,
	// harvested for the scheduler's cross-run recipe memory (which
	// replays it into the next same-class solve). Unexported: it is
	// service-internal heuristic state, not part of the client result.
	warm []solver.WarmVar
}

// clone deep-copies the result, including the slice-valued fields, so
// the original and the copy share no state (the "caller owns every
// field" contract).
func (r Result) clone() Result {
	out := r
	out.Model = append([]int(nil), r.Model...)
	out.Counterexample = append([]bool(nil), r.Counterexample...)
	out.warm = append([]solver.WarmVar(nil), r.warm...)
	if r.Proof != nil {
		// ProofInfo holds only value fields (strings are immutable), so
		// a shallow copy of the struct severs all sharing.
		p := *r.Proof
		out.Proof = &p
	}
	return out
}

// ProofInfo is the certification block attached to a Result when the
// job requested a proof (Spec.Proof).
type ProofInfo struct {
	// Checker is the server-side verification outcome: "verified" (an
	// UNSAT job's DRAT stream passed the independent incremental RUP
	// checker, resp. a SAT job's model satisfied every clause),
	// "truncated" (the stream outgrew the capture bound and was
	// discarded), "unavailable" (no certificate could be derived within
	// the job's budget), or "failed: ..." (a certificate was produced
	// but rejected — do not treat the verdict as certified).
	Checker string `json:"checker"`
	// DRAT is the refutation in textual DRAT format, deletion lines
	// included. Present only for UNSAT verdicts whose stream verified.
	DRAT string `json:"drat,omitempty"`
	// Deletions counts the "d" lines in DRAT.
	Deletions int `json:"deletions,omitempty"`
	// Replayed marks a certificate re-derived by the bounded replay
	// solve: the racing portfolio's winner was not the proof worker, so
	// a sequential proof-logging solve ran after the verdict.
	Replayed bool `json:"replayed,omitempty"`
	// Truncated marks a stream that outgrew the capture bound.
	Truncated bool `json:"truncated,omitempty"`
	// ResultDigest is the hex SHA-256 over the canonical verdict (kind,
	// verdict, model); ProofDigest the same over the DRAT text. Both are
	// committed to the hash-chained audit log.
	ResultDigest string `json:"result_digest,omitempty"`
	ProofDigest  string `json:"proof_digest,omitempty"`
	// AuditSeq / AuditHash locate the verdict's record in the audit
	// chain (sequence numbers start at 1; 0 = not recorded).
	AuditSeq  uint64 `json:"audit_seq,omitempty"`
	AuditHash string `json:"audit_hash,omitempty"`
}

// Job is one submitted work item. All exported access is through
// methods; a Job is safe for concurrent use.
type Job struct {
	// ID is the scheduler-assigned identity ("j1", "j2", …).
	ID string

	spec   Spec
	parsed parsedPayload
	key    jobKey
	class  string

	ctx    context.Context
	cancel context.CancelFunc
	mon    *portfolio.Monitor
	done   chan struct{}

	// trace records the job's lifecycle spans, anchored at the Submit
	// entry instant (before parsing) so every microsecond of the job's
	// wall time is attributable. Top-level phases TILE the trace — each
	// starts where the previous ended — so their durations sum to the
	// root duration by construction. traceOnce guards the one-time
	// closing sequence in finalize; certifyDur is written only by the
	// executor goroutine inside execute.
	trace      *obs.Trace
	traceOnce  sync.Once
	certifyDur time.Duration

	mu        sync.Mutex
	status    Status
	result    *Result
	err       error
	submitted time.Time
	started   time.Time
	workers   int
	preferred string
	// phaseUS is the trace offset where the last closed top-level phase
	// ended — the start of the next tile.
	phaseUS int64
}

// phase closes the current top-level phase at now: the recorded span
// covers [previous boundary, now) under the root, and the boundary
// advances. Returns the span ID (0 when the job carries no trace).
func (j *Job) phase(name string, attrs ...obs.Attr) int {
	if j.trace == nil {
		return 0
	}
	now := time.Since(j.trace.Start()).Microseconds()
	j.mu.Lock()
	last := j.phaseUS
	if now < last {
		now = last
	}
	j.phaseUS = now
	j.mu.Unlock()
	return j.trace.AddOffset(obs.RootSpan, name, last, now-last, attrs...)
}

// phaseOffset reads the current tile boundary.
func (j *Job) phaseOffset() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.phaseUS
}

// TraceView snapshots the job's span trace for serialization.
func (j *Job) TraceView() (obs.View, bool) {
	if j.trace == nil {
		return obs.View{}, false
	}
	return j.trace.Snapshot(), true
}

// Status returns the job's current lifecycle state.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Cancel requests cooperative cancellation: a queued job is dropped
// when an executor reaches it, a running job's solvers are interrupted.
func (j *Job) Cancel() { j.cancel() }

// Wait blocks until the job finishes or ctx expires, returning the
// result copy (or the job error).
func (j *Job) Wait(ctx context.Context) (Result, error) {
	select {
	case <-j.done:
	case <-ctx.Done():
		return Result{}, ctx.Err()
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return Result{}, j.err
	}
	return j.result.clone(), nil
}

// Result returns the finished job's result copy and true, or false
// while the job is still queued or running (and for failed jobs).
func (j *Job) Result() (Result, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.result == nil {
		return Result{}, false
	}
	return j.result.clone(), true
}

// setRunning transitions queued → running.
func (j *Job) setRunning(workers int, preferred string) {
	j.mu.Lock()
	j.status = StatusRunning
	j.started = time.Now()
	j.workers = workers
	j.preferred = preferred
	j.mu.Unlock()
}

// finish transitions to a terminal state exactly once.
func (j *Job) finish(st Status, res *Result, err error) {
	j.mu.Lock()
	if j.status == StatusDone || j.status == StatusFailed || j.status == StatusCancelled {
		j.mu.Unlock()
		return
	}
	j.status = st
	j.result = res
	j.err = err
	// The payload was only needed to solve; finished jobs sit in the
	// retention registry for status-by-ID lookups, which must not pin
	// multi-MB formulas and netlist texts.
	j.parsed = parsedPayload{}
	j.spec.DIMACS, j.spec.Left, j.spec.Right, j.spec.Model = "", "", "", ""
	j.mu.Unlock()
	j.cancel() // release the ctx watcher resources
	close(j.done)
}

// ProgressView is a live sample of a running job, derived from the
// job's portfolio.Monitor.
type ProgressView struct {
	// Conflicts sums the live workers; ConflictsPerSec rates them over
	// the job's running time.
	Conflicts       int64   `json:"conflicts"`
	ConflictsPerSec float64 `json:"conflicts_per_sec"`
	// GlueShare is the conflict-weighted share of glue (LBD ≤ 3)
	// clauses across live workers.
	GlueShare float64 `json:"glue_share"`
	// Workers lists each live solver's recipe and counters.
	Workers []WorkerView `json:"workers,omitempty"`
	// Kills / Respawns mirror the adaptive supervisor so far; Events
	// is its bounded kill/respawn history, oldest first.
	Kills    int      `json:"kills"`
	Respawns int      `json:"respawns"`
	Events   []string `json:"events,omitempty"`
}

// WorkerView is one live worker inside a ProgressView.
type WorkerView struct {
	Slot      int     `json:"slot"`
	Gen       int     `json:"gen"`
	Recipe    string  `json:"recipe"`
	AgeMS     int64   `json:"age_ms"`
	Conflicts int64   `json:"conflicts"`
	Restarts  int64   `json:"restarts"`
	GlueShare float64 `json:"glue_share"`
}

// Progress samples the running job. It returns nil unless the job is
// currently running.
func (j *Job) Progress() *ProgressView {
	j.mu.Lock()
	if j.status != StatusRunning {
		j.mu.Unlock()
		return nil
	}
	started := j.started
	j.mu.Unlock()

	snap := j.mon.Snapshot()
	pv := &ProgressView{Kills: snap.Kills, Respawns: snap.Respawns, Events: snap.Events}
	// Start from the retired workers' final counts so the total stays
	// monotonic across adaptive kills/respawns.
	pv.Conflicts = snap.RetiredConflicts
	var glueWeighted, liveConflicts float64
	for _, w := range snap.Live {
		pv.Conflicts += w.Conflicts
		liveConflicts += float64(w.Conflicts)
		glueWeighted += w.GlueShare * float64(w.Conflicts)
		pv.Workers = append(pv.Workers, WorkerView{
			Slot: w.Slot, Gen: w.Gen, Recipe: w.Label,
			AgeMS:     w.Age.Milliseconds(),
			Conflicts: w.Conflicts, Restarts: w.Restarts,
			GlueShare: w.GlueShare,
		})
	}
	if liveConflicts > 0 {
		// Glue quality is a live-worker signal; retired counts carry no
		// histogram and must not dilute it.
		pv.GlueShare = glueWeighted / liveConflicts
	}
	if dt := time.Since(started).Seconds(); dt > 0 {
		pv.ConflictsPerSec = float64(pv.Conflicts) / dt
	}
	return pv
}

// View is the JSON shape of a job for the HTTP API.
type View struct {
	ID        string        `json:"id"`
	Kind      Kind          `json:"kind"`
	Status    Status        `json:"status"`
	Workers   int           `json:"workers,omitempty"`
	Preferred string        `json:"preferred,omitempty"`
	Result    *Result       `json:"result,omitempty"`
	Error     string        `json:"error,omitempty"`
	Progress  *ProgressView `json:"progress,omitempty"`
}

// View snapshots the job for serialization, including a live progress
// sample when the job is running.
func (j *Job) View() View {
	prog := j.Progress() // outside j.mu: Progress takes it too
	j.mu.Lock()
	if j.status != StatusRunning {
		// The job may have finished between the Progress sample and
		// this lock; a terminal view must not carry a live progress
		// block (clients read its presence as "still running").
		prog = nil
	}
	v := View{
		ID: j.ID, Kind: j.spec.Kind, Status: j.status,
		Workers: j.workers, Preferred: j.preferred,
		Progress: prog,
	}
	if j.result != nil {
		r := j.result.clone()
		v.Result = &r
	}
	if j.err != nil {
		v.Error = j.err.Error()
	}
	j.mu.Unlock()
	return v
}

// execute dispatches the job to its engine under rctx and maps the
// engine answer onto a Result. workers is the granted portfolio size,
// prefer the recipe-memory hint, warm the remembered branching
// warm-start profile for the job's instance class (nil = cold start).
func execute(rctx context.Context, j *Job, workers int, prefer string, warm []solver.WarmVar) (*Result, error) {
	res := &Result{Kind: j.spec.Kind, Workers: workers, Preferred: prefer}
	switch j.spec.Kind {
	case KindDIMACS:
		copts := core.Options{
			Solver:            solver.Options{MaxConflicts: j.spec.MaxConflicts, WarmStart: warm},
			PortfolioWorkers:  workers,
			PortfolioAdaptive: j.spec.Adaptive && workers > 1,
			PortfolioPrefer:   prefer,
			PortfolioMonitor:  j.mon,
		}
		var capture *proofCapture
		if j.spec.Proof {
			capture = newProofCapture()
			copts.Proof = capture.w
		}
		ans := core.SolveContext(rctx, j.parsed.formula, copts)
		res.warm = ans.Warm
		switch ans.Status {
		case solver.Sat:
			res.Verdict, res.Decided = "SAT", true
			res.Model = modelLits(j.parsed.formula, ans.Model)
		case solver.Unsat:
			res.Verdict, res.Decided = "UNSAT", true
		default:
			res.Verdict = "UNKNOWN"
		}
		if p := ans.Portfolio; p != nil {
			res.Recipe = p.Recipe
			for _, w := range p.Workers {
				res.Conflicts += w.Stats.Conflicts
			}
		} else if ans.SolverStats != nil {
			res.Conflicts = ans.SolverStats.Conflicts
		}
		if j.spec.Proof && res.Decided {
			certStart := time.Now()
			res.Proof = certifyDIMACS(rctx, j, res, ans, capture)
			j.certifyDur = time.Since(certStart)
		}
		return res, nil

	case KindCEC:
		cres, err := cec.CheckContext(rctx, j.parsed.left, j.parsed.right, cec.Options{
			MaxConflicts:      j.spec.MaxConflicts,
			PortfolioWorkers:  workers,
			PortfolioAdaptive: j.spec.Adaptive && workers > 1,
			Monitor:           j.mon,
			PreferRecipe:      prefer,
		})
		if err != nil {
			return nil, err
		}
		res.Conflicts = cres.Conflicts
		res.Recipe = cres.Recipe
		switch {
		case !cres.Decided:
			res.Verdict = "UNKNOWN"
		case cres.Equivalent:
			res.Verdict, res.Decided = "EQUIVALENT", true
		default:
			res.Verdict, res.Decided = "NOT_EQUIVALENT", true
			res.Counterexample = cres.Counterexample
		}
		return res, nil

	case KindBMC:
		bres := bmc.CheckContext(rctx, j.parsed.seq, j.spec.Depth, bmc.Options{
			MaxConflicts: j.spec.MaxConflicts,
			Monitor:      j.mon,
		})
		res.Conflicts = bres.Conflicts
		switch {
		case !bres.Decided:
			res.Verdict = "UNKNOWN"
		case bres.Violated:
			res.Verdict, res.Decided = "VIOLATED", true
			res.Depth = bres.Depth
		default:
			res.Verdict, res.Decided = "SAFE", true
		}
		return res, nil
	}
	return nil, fmt.Errorf("%w: unknown kind %q", ErrBadJob, j.spec.Kind)
}

// proofMaxBytes bounds the DRAT text captured per job (32 MiB). A
// stream past the bound is discarded and the certificate reported
// truncated; the verdict itself is unaffected.
const proofMaxBytes = 32 << 20

// minReplayConflicts is the floor of the replay solve's conflict
// budget: tiny instances decided in a handful of conflicts still
// deserve a real re-derivation attempt.
const minReplayConflicts = 100_000

// proofCapture collects a solve's DRAT stream into a bounded in-memory
// buffer. Writes past proofMaxBytes are discarded (never surfaced to
// the solver as an error) and the capture marked truncated.
type proofCapture struct {
	buf       bytes.Buffer
	truncated bool
	w         *solver.DRATWriter
}

func newProofCapture() *proofCapture {
	c := &proofCapture{}
	c.w = solver.NewDRATWriter(c)
	return c
}

// Write implements io.Writer for the DRATWriter underneath.
func (c *proofCapture) Write(p []byte) (int, error) {
	if !c.truncated {
		if c.buf.Len()+len(p) > proofMaxBytes {
			c.truncated = true
		} else {
			c.buf.Write(p)
		}
	}
	return len(p), nil
}

// text flushes and returns the captured DRAT stream.
func (c *proofCapture) text() string {
	_ = c.w.Flush() // the sink never errors
	return c.buf.String()
}

// certifyDIMACS builds a decided DIMACS result's certification block.
// SAT verdicts are certified by checking the model clause by clause;
// UNSAT verdicts by verifying a DRAT refutation with the independent
// incremental RUP checker — the main solve's stream when the designated
// proof worker's verdict was the one adopted (ans.Proved), otherwise a
// stream re-derived by a bounded sequential replay solve.
func certifyDIMACS(rctx context.Context, j *Job, res *Result, ans *core.Answer, capture *proofCapture) *ProofInfo {
	info := &ProofInfo{}
	if res.Verdict == "SAT" {
		if err := solver.VerifyModel(j.parsed.formula, ans.Model); err != nil {
			info.Checker = "failed: " + err.Error()
		} else {
			info.Checker = "verified"
		}
		info.ResultDigest = resultDigest(res)
		return info
	}
	drat, ok, disagreed := unsatCertificate(rctx, j, res, ans, capture, info)
	switch {
	case disagreed:
		info.Checker = "failed: replay solve contradicted the UNSAT verdict"
	case info.Truncated:
		info.Checker = "truncated"
	case !ok:
		info.Checker = "unavailable"
	default:
		// drat may legitimately be empty: a formula refuted by root-level
		// propagation alone needs no lemmas, and the checker's final
		// database-conflicts check certifies exactly that.
		if err := solver.VerifyDRAT(j.parsed.formula, strings.NewReader(drat)); err != nil {
			info.Checker = "failed: " + err.Error()
		} else {
			info.Checker = "verified"
			info.DRAT = drat
			info.Deletions = countDeletions(drat)
			sum := sha256.Sum256([]byte(drat))
			info.ProofDigest = hex.EncodeToString(sum[:])
		}
	}
	info.ResultDigest = resultDigest(res)
	return info
}

// unsatCertificate produces the DRAT text certifying an UNSAT verdict,
// filling info's Replayed/Truncated provenance flags. The replay path
// runs when the racing portfolio was decided by a non-proof worker: a
// bounded sequential proof-logging solve, off the race's hot path — the
// client-visible verdict latency was already paid; the replay only
// delays this one job's certificate.
func unsatCertificate(rctx context.Context, j *Job, res *Result, ans *core.Answer, capture *proofCapture, info *ProofInfo) (drat string, ok, disagreed bool) {
	if ans.Proved {
		if capture.truncated {
			info.Truncated = true
			return "", false, false
		}
		return capture.text(), true, false
	}
	info.Replayed = true
	budget := res.Conflicts * 4
	if budget < minReplayConflicts {
		budget = minReplayConflicts
	}
	if j.spec.MaxConflicts > 0 && j.spec.MaxConflicts < budget {
		budget = j.spec.MaxConflicts // the client's per-query bound still binds
	}
	replay := newProofCapture()
	rans := core.SolveContext(rctx, j.parsed.formula, core.Options{
		Solver: solver.Options{MaxConflicts: budget, WarmStart: res.warm},
		Proof:  replay.w,
	})
	switch {
	case rans.Status == solver.Sat:
		return "", false, true
	case rans.Status != solver.Unsat || !rans.Proved:
		return "", false, false // budget or deadline expired: no certificate
	case replay.truncated:
		info.Truncated = true
		return "", false, false
	}
	return replay.text(), true, false
}

// resultDigest canonically fingerprints the certified verdict — kind,
// verdict, model — independent of delivery metadata (timing, recipe,
// cache flags), so identical verdicts digest identically.
func resultDigest(res *Result) string {
	h := sha256.New()
	h.Write([]byte(res.Kind))
	h.Write([]byte{0})
	h.Write([]byte(res.Verdict))
	h.Write([]byte{0})
	var b [8]byte
	for _, l := range res.Model {
		binary.LittleEndian.PutUint64(b[:], uint64(int64(l)))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// countDeletions counts the deletion lines of a DRAT stream.
func countDeletions(drat string) int {
	n := strings.Count(drat, "\nd ")
	if strings.HasPrefix(drat, "d ") {
		n++
	}
	return n
}

// modelLits renders a model as DIMACS literals over the formula's
// variables.
func modelLits(f *cnf.Formula, m cnf.Assignment) []int {
	out := make([]int, 0, f.NumVars())
	for v := cnf.Var(1); int(v) <= f.NumVars(); v++ {
		l := int(v)
		if m.Value(v) != cnf.True {
			l = -l
		}
		out = append(out, l)
	}
	return out
}
