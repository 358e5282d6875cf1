// Package session implements incremental solve sessions: resident
// formulas served by one warm solver each. A client (the serving layer,
// or an in-process consumer like the ATPG engine) opens a session by
// loading a formula once, then streams assumption-carrying queries
// against the resident solver — whose clause arena, learnt tiers,
// watcher pages and VSIDS/phase state stay warm between queries. This
// is the paper's iterative/incremental SAT usage (§6) turned into a
// service primitive: EDA loops (ATPG fault enumeration, BMC unrolling,
// CEC sweeping) are thousands of related queries over one formula, and
// the win concentrates in carrying the solver's learned state from one
// query to the next instead of re-deriving it.
//
// Lifecycle of a session (the state machine ARCHITECTURE.md documents):
//
//	open ──first query──► resident ◄──query (revive)── checkpointed
//	                         │                              ▲
//	                         └──idle TTL / LRU pressure─────┘
//	         any state ──Close / Manager shutdown──► evicted
//
// A session's queries execute on a dedicated runner goroutine, in
// submission order, each cancellable (before it starts or mid-solve via
// solver.Interrupt). Idle residents are demoted to a solver.Checkpoint
// image (checkpoint-to-evict): the solver's memory is released but the
// level-0 trail, learnt tiers and heuristic state survive, so a revived
// session warm-starts instead of re-solving. The Manager bounds live
// solvers (MaxResident) with LRU demotion and runs a janitor for the
// idle TTL.
//
// CPU accounting is delegated to a Gate: the serving layer passes one
// backed by its fair-share ledger, so running session queries debit the
// same budget portfolio jobs draw from.
package session

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/cnf"
	"repro/internal/obs"
	"repro/internal/portfolio"
	"repro/internal/solver"
)

// Session errors.
var (
	// ErrClosed is returned by Manager.Open after Close.
	ErrClosed = errors.New("session: manager closed")
	// ErrSessionClosed marks an operation on an evicted session.
	ErrSessionClosed = errors.New("session: session closed")
	// ErrQueueFull is load shedding on a session's query queue.
	ErrQueueFull = errors.New("session: query queue full")
)

// Gate meters session query execution against an external CPU ledger.
// Acquire is called before a query starts solving and blocks never; the
// returned release is called exactly once when the query finishes.
type Gate interface {
	Acquire() (release func())
}

// State is a session's lifecycle state.
type State string

// Session lifecycle states.
const (
	// StateOpen: created, no query executed yet (solver resident).
	StateOpen State = "open"
	// StateResident: live solver in memory, warm.
	StateResident State = "resident"
	// StateCheckpointed: solver demoted to its checkpoint image (idle
	// TTL or LRU pressure); the next query revives it.
	StateCheckpointed State = "checkpointed"
	// StateEvicted: terminal (deleted or manager shutdown).
	StateEvicted State = "evicted"
)

// Config sizes a Manager. The zero value is usable.
type Config struct {
	// MaxResident bounds the sessions holding a live solver; beyond it
	// the least-recently-used idle session is demoted to its checkpoint
	// (0 = 32). Busy sessions are never demoted, so the instantaneous
	// count can exceed the bound while queries are in flight.
	MaxResident int
	// IdleTTL is how long a session may sit idle before the janitor
	// demotes it to its checkpoint (0 = 2m).
	IdleTTL time.Duration
	// QueueDepth bounds each session's pending queries; a full queue
	// sheds with ErrQueueFull (0 = 16).
	QueueDepth int
	// JanitorPeriod is the idle-sweep interval (test hook; 0 = IdleTTL/4
	// clamped to [100ms, 15s]).
	JanitorPeriod time.Duration
	// Gate, when non-nil, meters query execution against an external
	// CPU ledger (the serving layer's fair share).
	Gate Gate
	// Obs, when non-nil, receives the manager's query latency
	// histograms (queue wait and execution, with query-ID exemplars).
	// Each query additionally carries its own span trace regardless.
	Obs *obs.Registry
	// Solver carries base solver options for new sessions. The
	// cooperation hooks and both proof sinks (LogProof, Proof) must be
	// left unset (sessions checkpoint, which those configurations
	// cannot).
	Solver solver.Options
}

func (c Config) maxResident() int {
	if c.MaxResident > 0 {
		return c.MaxResident
	}
	return 32
}

func (c Config) idleTTL() time.Duration {
	if c.IdleTTL > 0 {
		return c.IdleTTL
	}
	return 2 * time.Minute
}

func (c Config) queueDepth() int {
	if c.QueueDepth > 0 {
		return c.QueueDepth
	}
	return 16
}

func (c Config) janitorPeriod() time.Duration {
	if c.JanitorPeriod > 0 {
		return c.JanitorPeriod
	}
	p := c.idleTTL() / 4
	if p < 100*time.Millisecond {
		p = 100 * time.Millisecond
	}
	if p > 15*time.Second {
		p = 15 * time.Second
	}
	return p
}

// Stats is a point-in-time snapshot of the manager.
type Stats struct {
	// Sessions counts live (non-evicted) sessions; Resident of them hold
	// a live solver, Checkpointed sit as images.
	Sessions, Resident, Checkpointed int
	// CheckpointBytes is the current total size of checkpoint images.
	CheckpointBytes int64
	// Opened / Deleted are lifetime counters.
	Opened, Deleted int64
	// Queries counts finished session queries; Evictions counts
	// checkpoint-to-evict demotions, Revivals checkpoint restores.
	Queries, Evictions, Revivals int64
	// LiveClauses / LiveVars sum the resident formulas of the live
	// sessions as their solvers hold them now: clauses and variables
	// the level-0 sweep dropped or retired are gone from these.
	LiveClauses, LiveVars int64
	// Sweeps, SweptClauses and RetiredVars total the level-0 sweep
	// work (solver.Stats) of every finished query, lifetime.
	Sweeps, SweptClauses, RetiredVars int64
}

// Manager owns the session registry, the resident-solver budget and the
// idle janitor. Create with NewManager, stop with Close.
type Manager struct {
	cfg Config

	mu       sync.Mutex
	closed   bool
	seq      int64
	sessions map[string]*Session

	opened, deleted, queries, evictions, revivals int64
	sweeps, sweptClauses, retiredVars             int64

	// obsWait / obsExec are the registered latency histograms (nil when
	// Config.Obs is nil).
	obsWait, obsExec *obs.Histogram

	stop chan struct{}
	wg   sync.WaitGroup
}

// NewManager starts a manager (and its idle janitor).
func NewManager(cfg Config) *Manager {
	m := &Manager{
		cfg:      cfg,
		sessions: make(map[string]*Session),
		stop:     make(chan struct{}),
	}
	if cfg.Obs != nil {
		m.obsWait = cfg.Obs.Histogram("session_query_wait_seconds",
			"session query queue wait (submit to execution start)", nil)
		m.obsExec = cfg.Obs.Histogram("session_query_solve_seconds",
			"session query execution time on the resident solver", nil)
	}
	m.wg.Add(1)
	go m.janitor()
	return m
}

// Open creates a session resident over f and returns it. The formula is
// loaded into a fresh solver once; every subsequent query reuses that
// solver's state. An optional warm profile (a cross-run memory's record
// of the variables that mattered on this instance class) seeds the
// resident solver's branching heuristic before its first query; the
// seed survives checkpoint/revive cycles — the activities carry it —
// and conflict bumps overrule it as the session accumulates its own
// heuristic state.
func (m *Manager) Open(f *cnf.Formula, warm ...solver.WarmVar) (*Session, error) {
	opts := m.cfg.Solver
	if opts.LogProof || opts.Proof != nil || opts.ExportClause != nil || opts.ImportClauses != nil {
		// Checkpointing strips or rejects these; refuse up front instead
		// of failing on the first idle demotion.
		return nil, errors.New("session: solver options incompatible with checkpointing")
	}
	if len(warm) > 0 {
		opts.WarmStart = warm
	}
	s := solver.FromFormula(f, opts)

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrClosed
	}
	m.seq++
	m.opened++
	ss := &Session{
		ID:         fmt.Sprintf("s%d", m.seq),
		m:          m,
		state:      StateOpen,
		s:          s,
		numClauses: s.NumClauses(),
		numVars:    s.NumLiveVars(),
		lastUsed:   time.Now(),
		queue:      make(chan *Query, m.cfg.queueDepth()),
		done:       make(chan struct{}),
	}
	ss.ctx, ss.cancel = context.WithCancel(context.Background())
	m.sessions[ss.ID] = ss
	m.wg.Add(1)
	m.mu.Unlock()

	go ss.run()
	m.enforceResident(ss)
	return ss, nil
}

// Get returns the session with the given ID, or nil.
func (m *Manager) Get(id string) *Session {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sessions[id]
}

// Delete closes and unregisters the session with the given ID; it
// reports whether the ID was known. In-flight queries are interrupted,
// pending ones finished as cancelled.
func (m *Manager) Delete(id string) bool {
	m.mu.Lock()
	ss, ok := m.sessions[id]
	if ok {
		delete(m.sessions, id)
		m.deleted++
	}
	m.mu.Unlock()
	if !ok {
		return false
	}
	ss.Close()
	return true
}

// Stats snapshots the manager's gauges and counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	st := Stats{
		Opened: m.opened, Deleted: m.deleted,
		Queries: m.queries, Evictions: m.evictions, Revivals: m.revivals,
		Sweeps: m.sweeps, SweptClauses: m.sweptClauses, RetiredVars: m.retiredVars,
	}
	list := make([]*Session, 0, len(m.sessions))
	for _, ss := range m.sessions {
		list = append(list, ss)
	}
	m.mu.Unlock()
	for _, ss := range list {
		ss.mu.Lock()
		switch ss.state {
		case StateOpen, StateResident:
			st.Sessions++
			st.Resident++
		case StateCheckpointed:
			st.Sessions++
			st.Checkpointed++
			st.CheckpointBytes += int64(ss.ckpt.Bytes())
		}
		if ss.state != StateEvicted {
			st.LiveClauses += int64(ss.numClauses)
			st.LiveVars += int64(ss.numVars)
		}
		ss.mu.Unlock()
	}
	return st
}

// Close shuts the manager down: every session is closed (in-flight
// queries interrupted), the janitor stopped, and Close returns only
// after every runner goroutine has exited. Open afterwards returns
// ErrClosed.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.wg.Wait()
		return
	}
	m.closed = true
	list := make([]*Session, 0, len(m.sessions))
	for id, ss := range m.sessions {
		list = append(list, ss)
		delete(m.sessions, id)
		m.deleted++
	}
	m.mu.Unlock()
	close(m.stop)
	for _, ss := range list {
		ss.Close()
	}
	m.wg.Wait()
}

// janitor periodically demotes idle resident sessions to checkpoints.
func (m *Manager) janitor() {
	defer m.wg.Done()
	ticker := time.NewTicker(m.cfg.janitorPeriod())
	defer ticker.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-ticker.C:
			m.sweep(time.Now())
		}
	}
}

// sweep demotes every resident session idle for longer than the TTL.
func (m *Manager) sweep(now time.Time) {
	m.mu.Lock()
	list := make([]*Session, 0, len(m.sessions))
	for _, ss := range m.sessions {
		list = append(list, ss)
	}
	m.mu.Unlock()
	ttl := m.cfg.idleTTL()
	for _, ss := range list {
		if ss.idleSince(now) >= ttl {
			ss.demote()
		}
	}
}

// enforceResident demotes least-recently-used idle sessions until the
// resident count fits the bound again. except (the session that just
// became resident) is never the victim: it is about to serve a query.
// Busy sessions are not demotable either, so the instantaneous count
// may stay over the bound while queries are in flight.
func (m *Manager) enforceResident(except *Session) {
	for {
		m.mu.Lock()
		list := make([]*Session, 0, len(m.sessions))
		for _, ss := range m.sessions {
			list = append(list, ss)
		}
		m.mu.Unlock()

		resident := 0
		var victim *Session
		var victimTime time.Time
		for _, ss := range list {
			st, idle, touched := ss.residentView()
			if st != StateOpen && st != StateResident {
				continue
			}
			resident++
			if ss == except || !idle {
				continue
			}
			if victim == nil || touched.Before(victimTime) {
				victim, victimTime = ss, touched
			}
		}
		if resident <= m.cfg.maxResident() || victim == nil {
			return
		}
		if !victim.demote() {
			return // raced with a new query; over-commit until the janitor
		}
	}
}

// noteQuery counts a finished query and the level-0 sweep work its
// solve did (the difference of the solver's counters around it).
func (m *Manager) noteQuery(before, after *solver.Stats) {
	m.mu.Lock()
	m.queries++
	m.sweeps += after.Sweeps - before.Sweeps
	m.sweptClauses += after.SweptClauses - before.SweptClauses
	m.retiredVars += after.RetiredVars - before.RetiredVars
	m.mu.Unlock()
}

func (m *Manager) noteEviction() {
	m.mu.Lock()
	m.evictions++
	m.mu.Unlock()
}

func (m *Manager) noteRevival() {
	m.mu.Lock()
	m.revivals++
	m.mu.Unlock()
}

// Session is one resident formula with its query stream. All exported
// access is through methods; a Session is safe for concurrent use.
type Session struct {
	// ID is the manager-assigned identity ("s1", "s2", …).
	ID string

	m *Manager

	mu       sync.Mutex
	state    State
	s        *solver.Solver     // non-nil while open/resident
	ckpt     *solver.Checkpoint // non-nil while checkpointed
	busy     bool               // the runner is executing a query
	lastUsed time.Time
	// numClauses / numVars are the resident solver's live problem
	// clauses and open variables as of the last finished query.
	numClauses, numVars int
	served              int64
	qseq                int64

	queue chan *Query
	// ctx spans the session's life; Close cancels it, which interrupts
	// the in-flight query and sends the runner into its drain.
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{} // closed when the runner exits
}

// State returns the session's current lifecycle state.
func (ss *Session) State() State {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.state
}

// Info is the session's serializable snapshot.
type Info struct {
	ID    string `json:"id"`
	State State  `json:"state"`
	// Vars / Clauses describe the resident formula as the solver holds
	// it after the last finished query: the variables still open (not
	// fixed at top level, not retired) and the live problem clauses of
	// two or more literals. Queries that add grow them; clause groups
	// switched off by a top-level unit leave them again.
	Vars    int `json:"vars"`
	Clauses int `json:"clauses"`
	// Queries counts finished queries; Pending the queued ones.
	Queries int64 `json:"queries"`
	Pending int   `json:"pending"`
	// CheckpointBytes is the image size while checkpointed (0 live).
	CheckpointBytes int `json:"checkpoint_bytes,omitempty"`
	// IdleMS is the time since the session was last touched.
	IdleMS int64 `json:"idle_ms"`
}

// Info snapshots the session.
func (ss *Session) Info() Info {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	in := Info{
		ID: ss.ID, State: ss.state,
		Vars: ss.numVars, Clauses: ss.numClauses,
		Queries: ss.served, Pending: len(ss.queue),
		IdleMS: time.Since(ss.lastUsed).Milliseconds(),
	}
	if ss.ckpt != nil {
		in.CheckpointBytes = ss.ckpt.Bytes()
	}
	return in
}

// idleSince returns how long the session has been idle at now; busy or
// non-resident sessions report 0.
func (ss *Session) idleSince(now time.Time) time.Duration {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if (ss.state != StateOpen && ss.state != StateResident) || ss.busy || len(ss.queue) > 0 {
		return 0
	}
	return now.Sub(ss.lastUsed)
}

// residentView samples (state, demotable-idle, last-touched) under one
// lock acquisition, for the LRU enforcement scan.
func (ss *Session) residentView() (State, bool, time.Time) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	idle := !ss.busy && len(ss.queue) == 0
	return ss.state, idle, ss.lastUsed
}

// demote checkpoints an idle resident session, releasing its solver. It
// reports whether the demotion happened (false when the session is
// busy, already checkpointed, or evicted).
func (ss *Session) demote() bool {
	ss.mu.Lock()
	if (ss.state != StateOpen && ss.state != StateResident) || ss.busy || len(ss.queue) > 0 {
		ss.mu.Unlock()
		return false
	}
	ck, err := ss.s.Checkpoint()
	if err != nil {
		// Should be unreachable (Open rejects incompatible options);
		// keep the session resident rather than losing it.
		ss.mu.Unlock()
		return false
	}
	ss.ckpt = ck
	ss.s = nil
	ss.state = StateCheckpointed
	ss.mu.Unlock()
	ss.m.noteEviction()
	return true
}

// Close evicts the session: the in-flight query (if any) is
// interrupted, pending queries finish as cancelled, and the runner
// exits. Idempotent; does not unregister from the manager (Delete
// does).
func (ss *Session) Close() {
	ss.mu.Lock()
	ss.state = StateEvicted
	ss.ckpt = nil
	ss.mu.Unlock()
	ss.cancel()
}

// Done is closed when the session's runner goroutine has exited.
func (ss *Session) Done() <-chan struct{} { return ss.done }

// Request is one assumption-carrying query against the session.
type Request struct {
	// Assume are the assumption literals the query solves under.
	Assume []cnf.Lit
	// Add are clauses added to the resident formula before solving (the
	// incremental pattern: guarded cones, retirement units). Adds are
	// permanent — they outlive the query.
	Add []cnf.Clause
	// MaxConflicts bounds this query's search (0 = unlimited).
	MaxConflicts int64
}

// Submit enqueues a query. It returns immediately; the query executes
// in submission order on the session's runner (Query.Wait blocks for
// the result). ctx cancels the query: before it starts, it finishes
// cancelled; mid-solve, the solver is interrupted. A full queue sheds
// with ErrQueueFull.
func (ss *Session) Submit(ctx context.Context, req Request) (*Query, error) {
	ss.mu.Lock()
	if ss.state == StateEvicted {
		ss.mu.Unlock()
		return nil, ErrSessionClosed
	}
	if ctx == nil {
		ctx = context.Background()
	}
	ss.qseq++
	submitted := time.Now()
	q := &Query{
		ID:           fmt.Sprintf("%s.q%d", ss.ID, ss.qseq),
		ctx:          ctx,
		assume:       append([]cnf.Lit(nil), req.Assume...),
		maxConflicts: req.MaxConflicts,
		mon:          portfolio.NewMonitor(),
		done:         make(chan struct{}),
		submitted:    submitted,
		trace:        obs.NewTraceAt("query", 0, submitted),
	}
	q.trace.Annotate(obs.RootSpan, obs.A("id", q.ID), obs.A("session", ss.ID))
	// The query keeps its own copy of the clauses, packed into one
	// literal buffer (a guarded cone is hundreds of short clauses).
	n := 0
	for _, c := range req.Add {
		n += len(c)
	}
	lits := make([]cnf.Lit, 0, n)
	q.add = make([]cnf.Clause, 0, len(req.Add))
	for _, c := range req.Add {
		at := len(lits)
		lits = append(lits, c...)
		q.add = append(q.add, lits[at:len(lits):len(lits)])
	}
	select {
	case ss.queue <- q:
		ss.lastUsed = time.Now()
		ss.mu.Unlock()
		return q, nil
	default:
		ss.mu.Unlock()
		return nil, ErrQueueFull
	}
}

// run is the session's runner goroutine: it executes queries in order
// until the session closes, then drains the queue as cancelled.
func (ss *Session) run() {
	defer ss.m.wg.Done()
	defer close(ss.done)
	for {
		select {
		case <-ss.ctx.Done():
			ss.mu.Lock()
			ss.s = nil
			ss.ckpt = nil
			ss.mu.Unlock()
			for {
				select {
				case q := <-ss.queue:
					q.trace.Finish(obs.A("outcome", "session_closed"))
					q.finish(nil, ErrSessionClosed)
				default:
					return
				}
			}
		case q := <-ss.queue:
			ss.execute(q)
		}
	}
}
