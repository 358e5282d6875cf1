// Package serve is the SAT-as-a-service layer: a concurrent solve
// scheduler that multiplexes a bounded CPU budget across many
// heterogeneous jobs, fronted by cmd/satserved's HTTP API. The paper
// frames SAT as the shared engine behind many EDA workloads
// (equivalence checking, ATPG, BMC, routing); operationally that means
// one solver fleet serving many concurrent queries, which is exactly
// what this package implements on top of the repository's engines:
//
//   - a job scheduler with fair-share admission: a bounded queue that
//     sheds (ErrQueueFull → HTTP 429) instead of blocking when full,
//     per-job deadlines and conflict budgets, cooperative cancellation
//     through core.SolveContext / cec.CheckContext / bmc.CheckContext,
//     and per-job portfolio sizing clamped to the fleet's current fair
//     share so one giant instance cannot starve everyone else;
//   - a result cache keyed by a canonical CNF fingerprint
//     (cnf.FormulaFingerprint) with LRU eviction, plus singleflight
//     coalescing: identical in-flight formulas are solved once and the
//     result fans out to every waiter;
//   - typed job kinds reusing the existing engines — raw DIMACS solve,
//     CEC miter check, BMC up to a depth — behind one envelope (Spec);
//   - streaming progress: every running job carries a
//     portfolio.Monitor, so status endpoints sample conflicts/s, glue
//     share and the kill/respawn lineage live while the job runs;
//   - cross-run recipe memory: decided portfolio wins are recorded per
//     instance class, and later jobs of the same class have their
//     respawn schedule's explore arm seeded toward the remembered
//     recipe family (portfolio.Options.PreferRecipe);
//   - certified results: a Spec.Proof DIMACS job answers UNSAT with a
//     streamed DRAT refutation (deletion lines included) re-checked
//     server-side by the independent RUP checker, answers SAT with a
//     server-verified model, and commits the verdict's digests to a
//     hash-chained audit log (audit.go) whose inclusion proofs survive
//     restarts when a store is configured.
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/cnf"
	"repro/internal/obs"
	"repro/internal/portfolio"
	"repro/internal/session"
	"repro/internal/solver"
	"repro/internal/store"
)

// maxSheddablePayload is the payload size above which a submission may
// be shed on a full queue WITHOUT being parsed first (losing only its
// slim chance of a cache hit); see Submit.
const maxSheddablePayload = 1 << 20

// Submission errors.
var (
	// ErrQueueFull is load shedding: the backlog is at capacity. The
	// HTTP layer maps it to 429.
	ErrQueueFull = errors.New("serve: queue full")
	// ErrBadJob marks a malformed or unparseable job spec (HTTP 400).
	ErrBadJob = errors.New("serve: bad job")
	// ErrClosed is returned by Submit after Close.
	ErrClosed = errors.New("serve: scheduler closed")
	// ErrCancelled is the terminal error of a cancelled job.
	ErrCancelled = errors.New("serve: job cancelled")
	// ErrBadWitness is the terminal error of a job whose engine answered
	// with a witness that fails its check against the submitted input:
	// the verdict is withheld, never cached and never persisted.
	ErrBadWitness = errors.New("serve: witness check failed")
)

// Config sizes a Scheduler. The zero value is usable.
type Config struct {
	// CPUBudget is the total number of portfolio workers the scheduler
	// may have solving at once, shared fairly across running jobs
	// (0 = GOMAXPROCS). Grants are debited from the budget at job
	// start; because every running job is guaranteed at least one
	// worker, the instantaneous total can exceed CPUBudget by at most
	// MaxRunning−1 when jobs arrive on an already-committed fleet.
	CPUBudget int
	// MaxRunning is the number of jobs solving concurrently — the
	// executor count (0 = min(4, CPUBudget)). Each running job gets
	// ~CPUBudget/running portfolio workers.
	MaxRunning int
	// QueueDepth bounds the backlog beyond the running jobs; a full
	// queue sheds new submissions with ErrQueueFull (0 = 64).
	QueueDepth int
	// CacheCap bounds the result cache entries (0 = 256).
	CacheCap int
	// RetainDone bounds how many finished jobs stay queryable by ID
	// (0 = 512). Older finished jobs are forgotten FIFO.
	RetainDone int
	// DefaultTimeout is the per-job deadline when the spec does not set
	// one (0 = 30s); MaxTimeout caps every deadline (0 = 5m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// SessionMaxResident bounds sessions holding a live solver (0 = 32);
	// SessionIdleTTL is the idle time before a resident session is
	// demoted to its checkpoint (0 = 2m); SessionQueueDepth bounds each
	// session's pending queries (0 = 16). See internal/session.
	SessionMaxResident int
	SessionIdleTTL     time.Duration
	SessionQueueDepth  int
	// Store, when non-nil, persists the result cache, recipe memory
	// and warm-start profiles: replayed into memory before the
	// scheduler serves, written behind asynchronously on decided
	// verdicts. The scheduler flushes pending writes on Close but does
	// NOT close the store — its lifecycle belongs to the caller (who
	// may reopen it into a fresh scheduler, which is exactly what a
	// restart does).
	Store store.Store
}

func (c Config) cpuBudget() int {
	if c.CPUBudget > 0 {
		return c.CPUBudget
	}
	return runtime.GOMAXPROCS(0)
}

func (c Config) maxRunning() int {
	if c.MaxRunning > 0 {
		return c.MaxRunning
	}
	if b := c.cpuBudget(); b < 4 {
		return b
	}
	return 4
}

func (c Config) queueDepth() int {
	if c.QueueDepth > 0 {
		return c.QueueDepth
	}
	return 64
}

func (c Config) retainDone() int {
	if c.RetainDone > 0 {
		return c.RetainDone
	}
	return 512
}

func (c Config) defaultTimeout() time.Duration {
	if c.DefaultTimeout > 0 {
		return c.DefaultTimeout
	}
	return 30 * time.Second
}

func (c Config) maxTimeout() time.Duration {
	if c.MaxTimeout > 0 {
		return c.MaxTimeout
	}
	return 5 * time.Minute
}

// Stats is a point-in-time snapshot of the scheduler's counters.
type Stats struct {
	// Submitted counts accepted submissions (shed ones excluded);
	// Completed / Failed / Cancelled partition the finished jobs.
	Submitted, Completed, Failed, Cancelled int64
	// Shed counts submissions rejected with ErrQueueFull.
	Shed int64
	// Solves counts jobs that actually reached an engine; CacheHits and
	// Coalesced count jobs served without a fresh solve (from the
	// result cache, resp. an identical in-flight job). The singleflight
	// invariant under test: identical concurrent submissions yield
	// Solves == 1 with the rest Coalesced.
	Solves, CacheHits, Coalesced int64
	// CacheEvictions counts results dropped by the LRU at capacity.
	CacheEvictions int64
	// QueueDepth / Running are current occupancy; CacheEntries the
	// current cache population.
	QueueDepth, Running, CacheEntries int
	// Followers is the current number of coalesced waiters;
	// WorkersInUse the granted portfolio workers; SessionBusy the
	// session queries currently executing against the same CPU budget.
	Followers, WorkersInUse, SessionBusy int
	// Sessions snapshots the session manager's gauges and counters.
	Sessions session.Stats
	// Store snapshots the persistence layer (zero when store-less).
	Store StoreStats
	// ProofJobs / ProofFailures count decided certified jobs and
	// rejected certificates.
	ProofJobs, ProofFailures int64
	// AuditRecords is the audit chain length; AuditAppendErrors counts
	// failed synchronous appends; AuditChainValid reports the boot-time
	// chain verification.
	AuditRecords      uint64
	AuditAppendErrors int64
	AuditChainValid   bool
}

// Scheduler multiplexes solve jobs over a bounded CPU budget. Create
// with NewScheduler, submit with Submit, stop with Close (which
// cancels running jobs and waits for every goroutine).
type Scheduler struct {
	cfg     Config
	baseCtx context.Context
	stop    context.CancelFunc
	queue   chan *Job
	wg      sync.WaitGroup

	cache *resultCache
	mem   *recipeMemory
	// persist is the async write-behind path into cfg.Store (nil when
	// store-less); the storeReplay* counters are written once before
	// the executors start and read-only afterwards.
	persist                                    *persister
	storeReplayedResults, storeReplayedClasses int64
	storeReplayedWarm, storeReplaySkipped      int64
	storeReplayDur                             time.Duration
	// audit is the hash-chained log of certified verdicts, backed by
	// cfg.Store (or a private MemStore when store-less); see audit.go.
	audit *auditLog
	// sessions is the resident-formula session manager; its query
	// execution is gated against this scheduler's CPU ledger.
	sessions *session.Manager
	// obs is the unified metric registry every layer registers into
	// (scheduler counters via a scrape-time collector, job/phase latency
	// histograms, session query latencies, store and fleet families).
	obs *obs.Registry

	mu       sync.Mutex
	closed   bool
	seq      int64
	jobs     map[string]*Job
	doneIDs  []string // retention ring over finished jobs
	inflight map[jobKey]*Job
	running  int
	// runningSingle counts the running jobs that can only ever use one
	// worker (Spec.singleThreaded); the fair share divides the
	// remaining budget over the portfolio-capable jobs only.
	runningSingle int
	// workersInUse is the debit ledger of granted portfolio workers:
	// grants are clamped to the budget remaining after earlier grants,
	// so running jobs can exceed CPUBudget only by the one-worker floor
	// every job is guaranteed (at most MaxRunning−1 extra).
	workersInUse int
	// followers counts live coalesced waiters; bounded by QueueDepth so
	// a flood of identical submissions cannot accumulate goroutines and
	// Job records past the same limit the queue enforces.
	followers int
	// sessionBusy counts session queries currently executing. Each holds
	// one CPU (a session query is a single sequential solver), debited
	// from the same budget the fair share divides — sessions and jobs
	// draw from one ledger.
	sessionBusy int

	submitted, completed, failed, cancelled int64
	shed, solves, cacheHits, coalesced      int64
	// proofJobs counts decided Spec.Proof jobs, and proofFailures the
	// server-side certificate rejections (a "failed:" checker outcome —
	// solver-bug territory, worth alerting on).
	proofJobs, proofFailures int64
}

// NewScheduler starts a scheduler with cfg's executors running.
func NewScheduler(cfg Config) *Scheduler {
	ctx, cancel := context.WithCancel(context.Background())
	s := &Scheduler{
		cfg:      cfg,
		baseCtx:  ctx,
		stop:     cancel,
		queue:    make(chan *Job, cfg.queueDepth()),
		cache:    newResultCache(cfg.CacheCap),
		mem:      newRecipeMemory(0),
		jobs:     make(map[string]*Job),
		inflight: make(map[jobKey]*Job),
		obs:      obs.NewRegistry(),
	}
	if cfg.Store != nil {
		// Replay BEFORE the executors start: the first submission must
		// already see yesterday's cache hits and warm profiles.
		s.loadStore()
		s.persist = newPersister(cfg.Store)
		s.audit = openAudit(cfg.Store, false)
	} else {
		// Store-less schedulers still get a working audit chain for the
		// process lifetime: certification must not depend on deployment
		// configuration.
		s.audit = openAudit(store.NewMem(), true)
	}
	s.sessions = session.NewManager(session.Config{
		MaxResident: cfg.SessionMaxResident,
		IdleTTL:     cfg.SessionIdleTTL,
		QueueDepth:  cfg.SessionQueueDepth,
		Gate:        ledgerGate{s},
		Obs:         s.obs,
	})
	s.registerMetrics()
	for i := 0; i < cfg.maxRunning(); i++ {
		s.wg.Add(1)
		go s.executor()
	}
	return s
}

// Sessions exposes the scheduler's session manager (the HTTP layer's
// /v1/sessions routes and in-process consumers drive it directly).
func (s *Scheduler) Sessions() *session.Manager { return s.sessions }

// Obs exposes the scheduler's metric registry — the /metrics endpoint
// renders it, and co-located components (fleet, pprof wrappers) may
// register additional families into it.
func (s *Scheduler) Obs() *obs.Registry { return s.obs }

// WarmHint returns the recipe memory's branching warm-start profile for
// f's instance class (nil = cold start). The session-create path feeds
// it into Manager.Open, so a resident solver opened over a class the
// job path has already decided starts branching where that win's solver
// left off.
func (s *Scheduler) WarmHint(f *cnf.Formula) []solver.WarmVar {
	return s.mem.warmFor(dimacsClass(f))
}

// ledgerGate debits one CPU per executing session query from the
// scheduler's fair-share ledger: while held, portfolio shares shrink
// exactly as if another single-threaded job were running.
type ledgerGate struct{ s *Scheduler }

// Acquire implements session.Gate.
func (g ledgerGate) Acquire() func() {
	g.s.mu.Lock()
	g.s.sessionBusy++
	g.s.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			g.s.mu.Lock()
			g.s.sessionBusy--
			g.s.mu.Unlock()
		})
	}
}

// Submit validates and admits a job. It returns immediately: the job
// solves asynchronously (Job.Wait blocks for the result). Admission
// order: cache hit (no solve, returned finished), singleflight
// coalescing onto an identical in-flight job, then the bounded queue —
// which sheds with ErrQueueFull rather than blocking the caller.
func (s *Scheduler) Submit(spec Spec) (*Job, error) {
	return s.submit(spec, nil)
}

// submit is Submit with the spec's ingest optionally done already (by
// fleet routing, on this replica); nil parses here.
func (s *Scheduler) submit(spec Spec, in *ingest) (*Job, error) {
	// The trace anchor: every microsecond from here to finalize is
	// attributed to some top-level phase, parsing included — also when
	// routing parsed before this call.
	entry := time.Now()
	if in != nil {
		entry = in.start
	}
	// Overload defense BEFORE the expensive parse+fingerprint: with the
	// backlog already full, a large payload is almost certainly headed
	// for the shed anyway, and parsing it first would let a burst of
	// big submissions saturate CPU despite the 429s. Small payloads
	// still parse, so cache hits and coalescing — which need no queue
	// slot — keep being served under pressure. Deliberate tradeoff: a
	// MALFORMED large payload is also answered 429-retryable here
	// instead of its terminal 400 — it gets the 400 once the queue
	// drains, and validating first would hand the overload vector
	// right back. A job fleet routing already parsed is shed the same
	// way.
	if spec.payloadSize() > maxSheddablePayload && len(s.queue) >= cap(s.queue) {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.closed {
			return nil, ErrClosed
		}
		s.shed++
		return nil, ErrQueueFull
	}
	// The key — and for DIMACS the canonical fingerprint behind it —
	// is only needed by the cache and singleflight; NoCache jobs skip
	// the cost entirely (their zero key never enters the inflight map,
	// and finalize's delete is identity-guarded).
	if in == nil {
		in = spec.ingest()
	}
	if in.err != nil {
		return nil, in.err
	}
	parsed, class, key := in.parsed, in.class, in.key
	// Probe the cache before taking the scheduler lock: get() clones
	// the stored result (a model is one int per variable), and that
	// copy must not stall every executor behind s.mu.
	var cached Result
	cacheHit := false
	if !spec.NoCache {
		cached, cacheHit = s.probeCache(&spec, key)
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	s.seq++
	j := &Job{
		ID:        fmt.Sprintf("j%d", s.seq),
		spec:      spec,
		parsed:    parsed,
		key:       key,
		class:     class,
		done:      make(chan struct{}),
		status:    StatusQueued,
		submitted: time.Now(),
	}
	// The deadline covers the job's WHOLE lifetime — queue wait and
	// coalesced waiting included, not just engine execution — so a
	// short-deadline submission is answered within its budget even
	// when stuck behind a slow leader or a deep backlog. Deadline
	// expiry surfaces as context.DeadlineExceeded (→ an UNKNOWN
	// result), distinct from context.Canceled (explicit cancel or
	// shutdown → StatusCancelled).
	j.ctx, j.cancel = context.WithTimeout(s.baseCtx, s.jobTimeout(&spec))
	j.mon = portfolio.NewMonitor()
	j.trace = obs.NewTraceAt("job", 0, entry)
	j.trace.Annotate(obs.RootSpan, obs.A("id", j.ID), obs.A("kind", string(spec.Kind)))
	// The parse tile also covers the fingerprint and cache probe above —
	// all pre-admission CPU the submitter paid.
	j.phase("parse")

	if !cacheHit && !spec.NoCache {
		if leader, ok := s.inflight[key]; ok {
			if s.followers >= s.cfg.queueDepth() {
				// Followers hold a goroutine and a Job each; unbounded,
				// a flood of identical submissions would sidestep the
				// queue bound entirely. Shed past the same depth.
				s.shed++
				s.mu.Unlock()
				j.cancel()
				return nil, ErrQueueFull
			}
			s.followers++
			s.coalesced++
			s.submitted++
			s.registerLocked(j)
			// Add under the lock: Close checks closed under the same
			// lock before wg.Wait, so the follower goroutine is always
			// inside the group Close waits on.
			s.wg.Add(1)
			s.mu.Unlock()
			go s.follow(j, leader)
			return j, nil
		}
		// The probe above ran before s.mu, so a leader may have finished
		// since. It puts its result before finalize drops it from
		// inflight: with no leader in flight, a finished one's entry is in
		// the cache. Probe again rather than solve the payload twice.
		cached, cacheHit = s.probeCache(&spec, key)
	}
	if cacheHit {
		j.trace.Annotate(obs.RootSpan, obs.A("cache", "hit"))
		s.cacheHits++
		s.submitted++
		s.registerLocked(j)
		s.mu.Unlock()
		cached.Cached = true
		cached.WallMS = 0
		s.finalize(j, StatusDone, &cached, nil)
		return j, nil
	}

	select {
	case s.queue <- j:
		if !spec.NoCache {
			s.inflight[key] = j
		}
		s.submitted++
		s.registerLocked(j)
		s.mu.Unlock()
		return j, nil
	default:
		s.shed++
		s.mu.Unlock()
		j.cancel()
		return nil, ErrQueueFull
	}
}

// probeCache looks key up in the result cache. Defense in depth behind
// the keyspace separation: a proof job is never satisfied from an entry
// without a certificate (a hand-edited or corrupted store could smuggle
// a proofless result in under a proof-namespace key).
func (s *Scheduler) probeCache(spec *Spec, key jobKey) (Result, bool) {
	res, ok := s.cache.get(key)
	if ok && spec.Proof && res.Proof == nil {
		return Result{}, false
	}
	return res, ok
}

// registerLocked records the job in the ID registry; caller holds mu.
func (s *Scheduler) registerLocked(j *Job) {
	s.jobs[j.ID] = j
}

// jobTimeout resolves a spec's lifetime deadline: the requested value,
// defaulted and capped by the config.
func (s *Scheduler) jobTimeout(spec *Spec) time.Duration {
	timeout := s.cfg.defaultTimeout()
	if spec.TimeoutMS > 0 {
		timeout = time.Duration(spec.TimeoutMS) * time.Millisecond
	}
	if max := s.cfg.maxTimeout(); timeout > max {
		timeout = max
	}
	return timeout
}

// expired reports whether the job's context ended by DEADLINE — the
// budget ran out, which is an UNKNOWN result — as opposed to being
// cancelled (explicitly or by shutdown), which is StatusCancelled.
func (j *Job) expired() bool {
	return errors.Is(j.ctx.Err(), context.DeadlineExceeded)
}

// unknownResult builds the terminal result of a job whose deadline
// expired before (or while) it solved.
func (j *Job) unknownResult() *Result {
	return &Result{Kind: j.spec.Kind, Verdict: "UNKNOWN"}
}

// Get returns the job with the given ID, or nil when unknown (never
// submitted, or aged out of the finished-job retention window).
func (s *Scheduler) Get(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// Cancel cooperatively cancels the job with the given ID; it reports
// whether the ID was known.
func (s *Scheduler) Cancel(id string) bool {
	if j := s.Get(id); j != nil {
		j.Cancel()
		return true
	}
	return false
}

// Stats snapshots the scheduler counters.
func (s *Scheduler) Stats() Stats {
	// Sample the session manager and the store outside s.mu: both walk
	// their own locks and must not stall executors behind ours.
	sess := s.sessions.Stats()
	st := s.storeStats()
	auditSeq, _, auditOK := s.audit.headInfo()
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		ProofJobs:         s.proofJobs,
		ProofFailures:     s.proofFailures,
		AuditRecords:      auditSeq,
		AuditAppendErrors: s.audit.errs.Load(),
		AuditChainValid:   auditOK,
		Submitted:         s.submitted, Completed: s.completed,
		Failed: s.failed, Cancelled: s.cancelled,
		Shed: s.shed, Solves: s.solves,
		CacheHits: s.cacheHits, Coalesced: s.coalesced,
		CacheEvictions: s.cache.evicted(),
		QueueDepth:     len(s.queue), Running: s.running,
		CacheEntries: s.cache.len(),
		Followers:    s.followers, WorkersInUse: s.workersInUse,
		SessionBusy: s.sessionBusy,
		Sessions:    sess,
		Store:       st,
	}
}

// Close stops the scheduler: running jobs are cancelled cooperatively,
// queued jobs are finished as cancelled, and Close returns only after
// every scheduler goroutine has exited. Submit afterwards returns
// ErrClosed.
func (s *Scheduler) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.sessions.Close() // interrupts session queries, waits for runners
	s.stop()           // cancels every job ctx (they derive from baseCtx)
	s.wg.Wait()
	for {
		select {
		case j := <-s.queue:
			s.finalize(j, StatusCancelled, nil, ErrCancelled)
		default:
			// Executors are gone: no new persistence work can arrive.
			// Drain the write-behind queue so every verdict decided
			// before Close is in the store when Close returns (the
			// store itself stays open — the caller owns it).
			if s.persist != nil {
				s.persist.close()
			}
			s.audit.close()
			return
		}
	}
}

// executor is one job-running goroutine; MaxRunning of them share the
// queue.
func (s *Scheduler) executor() {
	defer s.wg.Done()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case j := <-s.queue:
			s.runJob(j)
		}
	}
}

// runJob executes one dequeued job end to end.
func (s *Scheduler) runJob(j *Job) {
	// The queue tile: from the end of parse (or the last coalesce round)
	// to the moment an executor picked the job up.
	j.phase("queue")
	if j.ctx.Err() != nil {
		if j.expired() {
			// The lifetime deadline ran out while queued: an UNKNOWN
			// result, not a cancellation.
			s.finalize(j, StatusDone, j.unknownResult(), nil)
		} else {
			// Cancelled (or the scheduler closed) while queued.
			s.finalize(j, StatusCancelled, nil, ErrCancelled)
		}
		return
	}

	single := j.spec.singleThreaded()
	s.mu.Lock()
	s.running++
	if single {
		s.runningSingle++
	}
	s.solves++
	// Fair-share grant, debited from the remaining budget. The share —
	// budget minus one CPU per single-threaded job, split over the
	// portfolio-capable jobs running now — is the target; the grant is
	// additionally clamped to what earlier grants left unspent, so the
	// fleet never over-commits the budget beyond the one-worker floor
	// each job is guaranteed. A job may ask for less; it never gets
	// more, so a giant instance cannot starve its neighbours.
	workers := 1
	if !single {
		// Executing session queries hold one CPU each (sessionBusy) and
		// shrink the divisible budget exactly like single-threaded jobs.
		share := 1
		if wide := s.running - s.runningSingle; wide > 0 {
			share = (s.cfg.cpuBudget() - s.runningSingle - s.sessionBusy) / wide
			if share < 1 {
				share = 1
			}
		}
		workers = j.spec.Workers
		if workers <= 0 || workers > share {
			workers = share
		}
		if avail := s.cfg.cpuBudget() - s.runningSingle - s.sessionBusy - s.workersInUse; workers > avail {
			workers = avail
		}
		if workers < 1 {
			workers = 1 // the floor: every running job makes progress
		}
		s.workersInUse += workers
	}
	prefer := s.mem.best(j.class)
	warm := s.mem.warmFor(j.class)
	s.mu.Unlock()

	j.setRunning(workers, prefer)
	// The admit tile: fair-share grant computation and the running
	// transition (normally negligible — its growth signals s.mu
	// contention).
	j.phase("admit", obs.A("workers", fmt.Sprint(workers)))
	solveStartUS := j.phaseOffset()
	start := time.Now()
	// j.ctx already carries the lifetime deadline set at Submit.
	res, err := execute(j.ctx, j, workers, prefer, warm)
	s.traceSolve(j, solveStartUS, res)

	s.mu.Lock()
	s.running--
	if single {
		s.runningSingle--
	} else {
		s.workersInUse -= workers
	}
	s.mu.Unlock()

	switch {
	case err != nil:
		s.finalize(j, StatusFailed, nil, err)
	case j.ctx.Err() != nil && !j.expired() && !res.Decided:
		// Explicit cancel (or shutdown) beat the engine; a deadline
		// expiry stays a normal UNKNOWN result.
		s.finalize(j, StatusCancelled, nil, ErrCancelled)
	default:
		res.WallMS = time.Since(start).Milliseconds()
		if res.Decided {
			if res.Proof != nil {
				// Commit the verdict's digests to the hash-chained audit
				// log BEFORE the result becomes visible (cache, waiters):
				// a certified verdict a client can see is always already
				// in the chain. Synchronous by design — this is the one
				// persistence path correctness depends on, so it never
				// goes through the dropping write-behind queue.
				if seq, hash, err := s.audit.append(j.ID, res.Kind, res.Verdict, res.Proof); err == nil {
					res.Proof.AuditSeq = seq
					res.Proof.AuditHash = hash
				}
				s.mu.Lock()
				s.proofJobs++
				if strings.HasPrefix(res.Proof.Checker, "failed") {
					s.proofFailures++
				}
				s.mu.Unlock()
			}
			if !j.spec.NoCache {
				evictedKey, evicted := s.cache.put(j.key, *res)
				// Write-behind: the verdict is durable soon after — not
				// before — the client sees it. See persist.go.
				s.persistResult(j.key, *res, evictedKey, evicted)
			}
			// Only genuinely diversified wins are signal: a 1-worker
			// portfolio always answers with the base recipe, and base
			// wins generally are "no hint" — the portfolio discards a
			// base preference anyway (worker 0 runs it permanently), so
			// recording them would only shadow the diversified families
			// the memory exists to surface.
			if fam := portfolio.RecipeFamily(res.Recipe); res.Recipe != "" && workers > 1 && fam != "base" {
				s.persistRecipe(j.class, s.mem.record(j.class, fam))
			}
			// The warm profile is useful signal even from a sequential
			// win: it describes the instance class, not the recipe.
			s.mem.recordWarm(j.class, res.warm)
			s.persistWarm(j.class, res.warm)
		}
		// The persist tile: audit append, cache put and write-behind
		// enqueue (near-zero for undecided results).
		j.phase("persist")
		s.finalize(j, StatusDone, res, nil)
	}
}

// traceSolve closes the job's solve tile and attaches its children:
// the certification sub-span (positioned at the tile's end, where
// certifyDIMACS actually ran) and one synthetic CPU-attribution span
// per solver phase, fed by the monitor's sampled live+retired phase
// totals. The CPU spans carry durations, not timeline positions — with
// N portfolio workers they may sum past the tile's wall time — so they
// start at the tile start and are marked cpu="1".
func (s *Scheduler) traceSolve(j *Job, solveStartUS int64, res *Result) {
	if j.trace == nil {
		return
	}
	attrs := []obs.Attr{}
	if res != nil {
		attrs = append(attrs, obs.A("verdict", res.Verdict),
			obs.A("conflicts", fmt.Sprint(res.Conflicts)))
	}
	solveID := j.phase("solve", attrs...)
	endUS := j.phaseOffset()
	if d := j.certifyDur.Microseconds(); d > 0 {
		startUS := endUS - d
		if startUS < solveStartUS {
			startUS = solveStartUS
		}
		j.trace.AddOffset(solveID, "certify", startUS, d)
	}
	snap := j.mon.Snapshot()
	for name, ns := range snap.PhaseTotals() {
		if ns <= 0 {
			continue
		}
		j.trace.AddOffset(solveID, "solver/"+name, solveStartUS, ns/1000, obs.A("cpu", "1"))
	}
}

// follow completes a coalesced job from its singleflight leader. A
// decided leader result fans out to the follower; a failed or
// cancelled leader propagates its outcome. An UNDECIDED leader result
// (the leader's own deadline or conflict budget expired) does not bind
// the follower — its budget may be larger, and the job key identifies
// only the formula, never the budget knobs — so the follower re-enters
// the queue as the key's new leader (or re-follows whoever beat it to
// that), inheriting the UNKNOWN only as a last resort when the
// scheduler is closing or the queue is full.
func (s *Scheduler) follow(j *Job, leader *Job) {
	defer s.wg.Done()
	// Whatever path this goroutine exits by — fan-out, propagation or
	// requeue (where the queue bound takes over) — the job stops being
	// a live follower.
	defer func() {
		s.mu.Lock()
		s.followers--
		s.mu.Unlock()
	}()
	for {
		select {
		case <-leader.done:
			// One coalesce round: waiting on this leader's outcome.
			j.phase("coalesce_wait", obs.A("leader", leader.ID))
		case <-j.ctx.Done():
			j.phase("coalesce_wait", obs.A("leader", leader.ID))
			if j.expired() {
				// The follower's own lifetime deadline ran out while
				// waiting on a slower leader: its budget, its UNKNOWN.
				s.finalize(j, StatusDone, j.unknownResult(), nil)
			} else {
				s.finalize(j, StatusCancelled, nil, ErrCancelled)
			}
			return
		}
		res, ok := leader.Result()
		if ok && res.Decided {
			res = res.clone()
			res.Coalesced = true
			s.finalize(j, StatusDone, &res, nil)
			return
		}
		if !ok {
			leader.mu.Lock()
			st, err := leader.status, leader.err
			leader.mu.Unlock()
			if st == StatusFailed {
				// An engine failure is a property of the formula/spec
				// the followers share; propagate it faithfully.
				s.finalize(j, StatusFailed, nil, err)
				return
			}
			// The leader was cancelled — by ITS client, which must not
			// cancel this one's job. Fall through to the requeue logic
			// below so the follower takes over as the key's new leader.
		}
		// The leader's answer does not bind the follower (its own
		// budget ran out, or it was cancelled by its own client): the
		// follower re-enters the queue and solves for itself. When
		// requeueing is impossible, the best available outcome is the
		// leader's UNKNOWN when there is one; otherwise shutdown means
		// cancellation and a full queue means a queue-full failure —
		// NOT a cancellation, which this client never asked for.
		fallback := func(shutdown bool) {
			switch {
			case ok:
				r := res.clone()
				r.Coalesced = true
				s.finalize(j, StatusDone, &r, nil)
			case shutdown:
				s.finalize(j, StatusCancelled, nil, ErrCancelled)
			default:
				s.finalize(j, StatusFailed, nil,
					fmt.Errorf("%w: cannot requeue after the coalesced leader was cancelled", ErrQueueFull))
			}
		}
		s.mu.Lock()
		if s.closed {
			// Checked under the same lock Close takes: no window where
			// shutdown masquerades as a queue-full failure.
			s.mu.Unlock()
			fallback(true)
			return
		}
		if next, ok := s.inflight[j.key]; ok && next != leader {
			// Another follower already took over as leader; chain onto
			// it. Each round finalizes at least one job (the previous
			// leader), so the chain is finite. next == leader means the
			// finished leader's finalize has not yet cleared its
			// inflight entry — re-adopting it would busy-spin on its
			// closed done channel, so fall through and take over
			// (finalize's delete is guarded by identity and will not
			// clobber the new entry).
			leader = next
			s.mu.Unlock()
			continue
		}
		select {
		case s.queue <- j:
			s.inflight[j.key] = j
			// The job is no longer served by coalescing — it will pay
			// a fresh solve — so give back its Coalesced count to keep
			// the documented partition (Coalesced = served WITHOUT a
			// fresh solve) true in /metrics.
			s.coalesced--
			s.mu.Unlock()
			return // still StatusQueued; an executor will run it
		default:
			s.mu.Unlock()
			fallback(false) // queue full: better than shedding a waited-on job
			return
		}
	}
}

// finalize moves a job to a terminal state, updates the counters, and
// releases its singleflight slot.
func (s *Scheduler) finalize(j *Job, st Status, res *Result, err error) {
	// Close the trace BEFORE finish() unblocks waiters, so a client that
	// fetches the trace right after Wait returns sees it complete. The
	// respond tile sweeps up whatever wall time no earlier phase claimed.
	j.traceOnce.Do(func() {
		if j.trace == nil {
			return
		}
		j.phase("respond", obs.A("status", string(st)))
		j.trace.Finish()
		s.observeJob(j)
	})
	// Count first: a waiter that Wait released must find its job in the
	// counters.
	s.mu.Lock()
	switch st {
	case StatusDone:
		s.completed++
	case StatusFailed:
		s.failed++
	case StatusCancelled:
		s.cancelled++
	}
	s.mu.Unlock()
	j.finish(st, res, err)
	s.mu.Lock()
	if s.inflight[j.key] == j {
		delete(s.inflight, j.key)
	}
	s.doneIDs = append(s.doneIDs, j.ID)
	if over := len(s.doneIDs) - s.cfg.retainDone(); over > 0 {
		for _, id := range s.doneIDs[:over] {
			delete(s.jobs, id)
		}
		s.doneIDs = s.doneIDs[over:]
	}
	s.mu.Unlock()
}
