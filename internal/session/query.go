package session

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/cnf"
	"repro/internal/obs"
	"repro/internal/portfolio"
	"repro/internal/solver"
)

// Result is the outcome of one session query.
type Result struct {
	// Status is the solver verdict. Unknown with Cancelled set means the
	// query was interrupted (its context, the session closing), Unknown
	// without it that the conflict budget ran out.
	Status    solver.Status
	Cancelled bool
	// Model is the satisfying assignment (Sat only). The assumptions are
	// true in it.
	Model cnf.Assignment
	// Core is the refuting subset of the assumptions (Unsat under
	// assumptions only; empty when the formula itself is unsat).
	Core []cnf.Lit
	// Conflicts / Decisions are this query's own search effort (deltas,
	// not solver lifetime totals).
	Conflicts, Decisions int64
	// WallMS is the query's execution wall time (queue wait excluded).
	WallMS int64
}

// Query is one submitted session query. All exported access is through
// methods; a Query is safe for concurrent use.
type Query struct {
	// ID is "<session>.q<n>", unique within the manager.
	ID string

	ctx          context.Context
	assume       []cnf.Lit
	add          []cnf.Clause
	maxConflicts int64

	// mon observes the solver while this query executes; it is attached
	// for exactly the query's duration, so SSE watchers of one query see
	// only their own search.
	mon *portfolio.Monitor

	// submitted anchors the query's trace: the wait span covers
	// submission to execution start, the solve span the execution.
	submitted time.Time
	trace     *obs.Trace

	mu   sync.Mutex
	res  *Result
	err  error
	done chan struct{}
}

// Trace snapshots the query's span trace (queue wait, revive, solve).
func (q *Query) Trace() obs.View { return q.trace.Snapshot() }

// Done is closed when the query reaches a terminal state.
func (q *Query) Done() <-chan struct{} { return q.done }

// Monitor returns the query's progress monitor: attached while the
// query executes, sampleable at any time (empty before and after).
func (q *Query) Monitor() *portfolio.Monitor { return q.mon }

// Wait blocks until the query finishes or ctx expires, returning the
// result (or the query error).
func (q *Query) Wait(ctx context.Context) (Result, error) {
	select {
	case <-q.done:
	case <-ctx.Done():
		return Result{}, ctx.Err()
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.err != nil {
		return Result{}, q.err
	}
	return *q.res, nil
}

// Result returns the finished result and true, or false while pending.
func (q *Query) Result() (Result, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.res == nil {
		return Result{}, false
	}
	return *q.res, true
}

// finish resolves the query exactly once.
func (q *Query) finish(res *Result, err error) {
	q.mu.Lock()
	if q.res != nil || q.err != nil {
		q.mu.Unlock()
		return
	}
	q.res, q.err = res, err
	q.mu.Unlock()
	close(q.done)
}

// execute runs one query on the session's resident solver. Called only
// from the runner goroutine, which owns the solver while ss.busy holds;
// the session mutex is never held across the solve.
func (ss *Session) execute(q *Query) {
	if q.ctx.Err() != nil {
		q.trace.Finish(obs.A("outcome", "cancelled_before_start"))
		q.finish(&Result{Status: solver.Unknown, Cancelled: true}, nil)
		return
	}

	ss.mu.Lock()
	if ss.state == StateEvicted {
		ss.mu.Unlock()
		q.trace.Finish(obs.A("outcome", "session_closed"))
		q.finish(nil, ErrSessionClosed)
		return
	}
	revived := false
	if ss.ckpt != nil {
		// Revive: the warm image becomes a live solver again.
		ss.s = ss.ckpt.Restore()
		ss.ckpt = nil
		ss.m.noteRevival()
		revived = true
	}
	ss.state = StateResident
	ss.busy = true
	s := ss.s
	ss.mu.Unlock()
	ss.m.enforceResident(ss)

	var release func()
	if g := ss.m.cfg.Gate; g != nil {
		release = g.Acquire()
	}

	// Cancellation: the query's context or the session closing interrupt
	// the solver; the sticky interrupt is cleared afterwards so the next
	// query runs unimpeded.
	stopOnClose := context.AfterFunc(ss.ctx, s.Interrupt)
	stopOnCancel := context.AfterFunc(q.ctx, s.Interrupt)

	detach := q.mon.Attach(0, 0, "session", s)
	start := time.Now()
	// The wait span covers submission through dequeue, revival included;
	// the solve span covers execution on the resident solver.
	q.trace.Add(obs.RootSpan, "wait", q.submitted, start.Sub(q.submitted))
	preStats := s.Stats

	res := &Result{Status: solver.Unsat}
	addsOK := true
	for _, cl := range q.add {
		if !s.AddClause(cl) {
			addsOK = false // formula now unsatisfiable at top level
			break
		}
	}
	if addsOK {
		s.SetBudget(q.maxConflicts, 0)
		res.Status = s.Solve(q.assume...)
		switch res.Status {
		case solver.Sat:
			res.Model = s.TakeModel()
		case solver.Unsat:
			res.Core = s.Core()
		default:
			res.Cancelled = ss.ctx.Err() != nil || q.ctx.Err() != nil
		}
	}
	res.Conflicts = s.Stats.Conflicts - preStats.Conflicts
	res.Decisions = s.Stats.Decisions - preStats.Decisions
	res.WallMS = time.Since(start).Milliseconds()

	solveAttrs := []obs.Attr{
		obs.A("status", res.Status.String()),
		obs.A("conflicts", fmt.Sprint(res.Conflicts)),
	}
	if revived {
		solveAttrs = append(solveAttrs, obs.A("revived", "1"))
	}
	q.trace.Add(obs.RootSpan, "solve", start, time.Since(start), solveAttrs...)
	q.trace.Finish()
	if ss.m.obsWait != nil {
		ss.m.obsWait.ObserveEx(start.Sub(q.submitted).Seconds(), q.ID)
		ss.m.obsExec.ObserveEx(time.Since(start).Seconds(), q.ID)
	}

	stopOnCancel()
	stopOnClose()
	detach("")
	s.ClearInterrupt()
	if release != nil {
		release()
	}

	ss.mu.Lock()
	ss.busy = false
	ss.lastUsed = time.Now()
	ss.served++
	ss.numClauses, ss.numVars = s.NumClauses(), s.NumLiveVars()
	ss.mu.Unlock()
	ss.m.noteQuery(&preStats, &s.Stats)
	q.finish(res, nil)
}
