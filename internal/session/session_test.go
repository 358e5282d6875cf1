package session

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/cnf"
	"repro/internal/gen"
	"repro/internal/solver"
)

func waitResult(t *testing.T, q *Query) Result {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := q.Wait(ctx)
	if err != nil {
		t.Fatalf("query %s: %v", q.ID, err)
	}
	return res
}

// TestSessionQueryStream pins the basic contract: ordered assumption
// queries against one resident solver, verdicts matching fresh solvers.
func TestSessionQueryStream(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()
	f := gen.RandomKSAT(24, 90, 3, 5)
	ss, err := m.Open(f)
	if err != nil {
		t.Fatal(err)
	}
	if st := ss.State(); st != StateOpen {
		t.Fatalf("fresh session state: %v", st)
	}
	rng := rand.New(rand.NewSource(1))
	for q := 0; q < 15; q++ {
		v := cnf.Var(rng.Intn(24) + 1)
		assume := []cnf.Lit{cnf.NewLit(v, rng.Intn(2) == 0)}
		qq, err := ss.Submit(context.Background(), Request{Assume: assume})
		if err != nil {
			t.Fatal(err)
		}
		res := waitResult(t, qq)
		want := solver.FromFormula(f, solver.Options{}).Solve(assume...)
		if res.Status != want {
			t.Fatalf("query %d: session %v fresh %v", q, res.Status, want)
		}
		if res.Status == solver.Sat {
			if !res.Model.Satisfies(f) || res.Model.LitValue(assume[0]) != cnf.True {
				t.Fatalf("query %d: bad model", q)
			}
		}
		if res.Status == solver.Unsat && len(res.Core) == 0 {
			t.Fatalf("query %d: unsat under assumption with empty core", q)
		}
	}
	if got := ss.Info().Queries; got != 15 {
		t.Fatalf("served %d queries, want 15", got)
	}
	if st := m.Stats(); st.Queries != 15 || st.Resident != 1 {
		t.Fatalf("manager stats: %+v", st)
	}
}

// TestSessionAddClauses pins that query Adds persist: pinning a
// variable in one query constrains all later ones.
func TestSessionAddClauses(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()
	f := gen.XorChain(10, false, 2)
	ss, err := m.Open(f)
	if err != nil {
		t.Fatal(err)
	}
	q1, _ := ss.Submit(context.Background(), Request{Add: []cnf.Clause{{cnf.PosLit(1)}}})
	if res := waitResult(t, q1); res.Status != solver.Sat {
		t.Fatalf("after pin +1: %v", res.Status)
	}
	q2, _ := ss.Submit(context.Background(), Request{Assume: []cnf.Lit{cnf.NegLit(1)}})
	if res := waitResult(t, q2); res.Status != solver.Unsat {
		t.Fatalf("assume -1 after pinned +1: %v", res.Status)
	}
}

// TestSessionCheckpointRevive forces an idle demotion and checks the
// revived session answers identically and the gauges move.
func TestSessionCheckpointRevive(t *testing.T) {
	m := NewManager(Config{IdleTTL: 50 * time.Millisecond, JanitorPeriod: 10 * time.Millisecond})
	defer m.Close()
	f := gen.RandomKSAT(20, 70, 3, 9)
	ss, err := m.Open(f)
	if err != nil {
		t.Fatal(err)
	}
	q, _ := ss.Submit(context.Background(), Request{Assume: []cnf.Lit{cnf.PosLit(1)}})
	first := waitResult(t, q)

	deadline := time.Now().Add(5 * time.Second)
	for ss.State() != StateCheckpointed {
		if time.Now().After(deadline) {
			t.Fatalf("janitor never checkpointed the idle session (state %v)", ss.State())
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := m.Stats()
	if st.Checkpointed != 1 || st.Evictions == 0 || st.CheckpointBytes <= 0 {
		t.Fatalf("post-eviction stats: %+v", st)
	}

	q2, err := ss.Submit(context.Background(), Request{Assume: []cnf.Lit{cnf.PosLit(1)}})
	if err != nil {
		t.Fatal(err)
	}
	second := waitResult(t, q2)
	if second.Status != first.Status {
		t.Fatalf("revived verdict %v, resident verdict %v", second.Status, first.Status)
	}
	if ss.State() != StateResident {
		t.Fatalf("post-revival state: %v", ss.State())
	}
	if st := m.Stats(); st.Revivals == 0 {
		t.Fatalf("no revival counted: %+v", st)
	}
}

// TestSessionLRUBound opens more sessions than MaxResident and checks
// the oldest idle ones are demoted to checkpoints.
func TestSessionLRUBound(t *testing.T) {
	m := NewManager(Config{MaxResident: 2, IdleTTL: time.Hour})
	defer m.Close()
	var sessions []*Session
	for i := 0; i < 5; i++ {
		ss, err := m.Open(gen.RandomKSAT(15, 50, 3, int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		q, _ := ss.Submit(context.Background(), Request{})
		waitResult(t, q)
		sessions = append(sessions, ss)
	}
	// Each Open (and each query) enforces the bound; after the last
	// query finishes at most MaxResident+1 can be live (the one that
	// just ran was exempt while busy).
	st := m.Stats()
	if st.Resident > 3 {
		t.Fatalf("resident %d over bound 2 (+1 in-flight exemption): %+v", st.Resident, st)
	}
	if st.Checkpointed == 0 {
		t.Fatalf("no LRU demotion happened: %+v", st)
	}
	// Every session still answers.
	for _, ss := range sessions {
		q, err := ss.Submit(context.Background(), Request{})
		if err != nil {
			t.Fatal(err)
		}
		waitResult(t, q)
	}
}

// TestSessionCancelMidQuery interrupts a hard query and checks the
// session survives to serve the next one.
func TestSessionCancelMidQuery(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()
	ss, err := m.Open(gen.Pigeonhole(10)) // hard enough to outlive the cancel
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	q, err := ss.Submit(ctx, Request{})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	cancel()
	res := waitResult(t, q)
	if res.Status == solver.Sat {
		t.Fatalf("php10 cannot be SAT: %+v", res)
	}
	if res.Status == solver.Unknown && !res.Cancelled {
		t.Fatalf("interrupted query not marked cancelled: %+v", res)
	}
	// The sticky interrupt must be cleared: the follow-up query runs its
	// (tiny) budget instead of returning instantly as cancelled.
	q2, _ := ss.Submit(context.Background(), Request{Assume: []cnf.Lit{cnf.PosLit(1)}, MaxConflicts: 50})
	res2 := waitResult(t, q2)
	if res2.Cancelled {
		t.Fatalf("next query inherited the interrupt: %+v", res2)
	}
	if res2.Status == solver.Unknown && res2.Conflicts == 0 {
		t.Fatalf("next query did no work: %+v", res2)
	}
}

// TestSessionDelete pins eviction semantics: pending queries finish as
// cancelled and later submits are refused.
func TestSessionDelete(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()
	ss, err := m.Open(gen.Pigeonhole(9))
	if err != nil {
		t.Fatal(err)
	}
	running, _ := ss.Submit(context.Background(), Request{})
	pending, _ := ss.Submit(context.Background(), Request{})
	time.Sleep(10 * time.Millisecond)
	if !m.Delete(ss.ID) {
		t.Fatal("delete reported unknown session")
	}
	if m.Delete(ss.ID) {
		t.Fatal("double delete reported success")
	}
	<-running.Done()
	if _, err := pending.Wait(context.Background()); err != ErrSessionClosed {
		t.Fatalf("pending query after delete: %v", err)
	}
	if _, err := ss.Submit(context.Background(), Request{}); err != ErrSessionClosed {
		t.Fatalf("submit after delete: %v", err)
	}
	if st := m.Stats(); st.Sessions != 0 {
		t.Fatalf("deleted session still counted: %+v", st)
	}
}

// countingGate checks the Gate contract: one acquire/release bracket
// per executed query.
type countingGate struct {
	mu                 sync.Mutex
	acquired, released int
	inUse, maxInUse    int
}

func (g *countingGate) Acquire() func() {
	g.mu.Lock()
	g.acquired++
	g.inUse++
	if g.inUse > g.maxInUse {
		g.maxInUse = g.inUse
	}
	g.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			g.mu.Lock()
			g.released++
			g.inUse--
			g.mu.Unlock()
		})
	}
}

func TestSessionGate(t *testing.T) {
	g := &countingGate{}
	m := NewManager(Config{Gate: g})
	defer m.Close()
	ss, err := m.Open(gen.RandomKSAT(15, 50, 3, 4))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		q, _ := ss.Submit(context.Background(), Request{})
		waitResult(t, q)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.acquired != 5 || g.released != 5 || g.inUse != 0 {
		t.Fatalf("gate brackets: %+v", g)
	}
}

// TestSessionStress is the CI stress test: many goroutines hammering
// concurrent queries across sessions while eviction churns (tiny TTL,
// tiny resident bound) and a canceller kills queries mid-flight. Run
// under -race. Afterwards the manager closes and the goroutine count
// must return to baseline (leak check).
func TestSessionStress(t *testing.T) {
	baseline := runtime.NumGoroutine()

	m := NewManager(Config{
		MaxResident:   2,
		IdleTTL:       5 * time.Millisecond,
		JanitorPeriod: 2 * time.Millisecond,
		QueueDepth:    64,
	})
	const nSessions = 6
	var sessions []*Session
	for i := 0; i < nSessions; i++ {
		ss, err := m.Open(gen.RandomKSAT(30, 110, 3, int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, ss)
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 30; i++ {
				ss := sessions[rng.Intn(nSessions)]
				ctx, cancel := context.WithCancel(context.Background())
				var assume []cnf.Lit
				if rng.Intn(2) == 0 {
					v := cnf.Var(rng.Intn(30) + 1)
					assume = []cnf.Lit{cnf.NewLit(v, rng.Intn(2) == 0)}
				}
				q, err := ss.Submit(ctx, Request{Assume: assume, MaxConflicts: 2000})
				if err != nil {
					cancel()
					continue // queue full under churn: fine
				}
				if rng.Intn(4) == 0 {
					cancel() // mid-query (or pre-start) cancel
				}
				ctxw, cancelw := context.WithTimeout(context.Background(), 30*time.Second)
				if _, err := q.Wait(ctxw); err != nil && err != ErrSessionClosed {
					t.Errorf("worker %d query %d: %v", w, i, err)
				}
				cancelw()
				cancel()
			}
		}(w)
	}
	// Eviction churn from the side: delete and reopen one session slot.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			time.Sleep(3 * time.Millisecond)
			ss, err := m.Open(gen.RandomKSAT(20, 70, 3, int64(100+i)))
			if err != nil {
				return
			}
			q, err := ss.Submit(context.Background(), Request{})
			if err == nil {
				ctxw, cancelw := context.WithTimeout(context.Background(), 30*time.Second)
				_, _ = q.Wait(ctxw)
				cancelw()
			}
			m.Delete(ss.ID)
		}
	}()
	wg.Wait()
	m.Close()

	// Leak check: all runners, janitor and watcher goroutines must be
	// gone. Allow slack for runtime background goroutines.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			break
		} else if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak: %d > baseline %d\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}

	st := m.Stats()
	if st.Sessions != 0 || st.Resident != 0 || st.Checkpointed != 0 {
		t.Fatalf("sessions survived Close: %+v", st)
	}
	if st.Queries == 0 {
		t.Fatalf("stress served no queries: %+v", st)
	}
}

// TestManagerClosedOpen pins ErrClosed after Close.
func TestManagerClosedOpen(t *testing.T) {
	m := NewManager(Config{})
	m.Close()
	if _, err := m.Open(gen.RandomKSAT(5, 10, 3, 1)); err != ErrClosed {
		t.Fatalf("open after close: %v", err)
	}
}

// TestManagerRejectsUncheckpointable pins the Open-time option check:
// neither proof sink can be checkpointed, so neither may open a session.
func TestManagerRejectsUncheckpointable(t *testing.T) {
	for name, opts := range map[string]solver.Options{
		"LogProof": {LogProof: true},
		"Proof":    {Proof: &solver.Proof{}},
	} {
		m := NewManager(Config{Solver: opts})
		if _, err := m.Open(gen.RandomKSAT(5, 10, 3, 1)); err == nil {
			t.Errorf("%s session was accepted", name)
		}
		m.Close()
	}
}

// TestSessionInfoFollowsLiveFormula pins the bookkeeping fix: Info and
// the manager's gauges report what the resident solver holds, so
// clause groups switched off by a retirement unit leave the counts
// again instead of accumulating forever, through a checkpoint too.
func TestSessionInfoFollowsLiveFormula(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()
	f := gen.RandomKSAT(30, 60, 3, 2)
	ss, err := m.Open(f)
	if err != nil {
		t.Fatal(err)
	}
	open := ss.Info()
	if open.Vars != 30 || open.Clauses != 60 {
		t.Fatalf("fresh session reports %d vars / %d clauses, want 30 / 60", open.Vars, open.Clauses)
	}
	next := cnf.Var(30)
	var retire []cnf.Clause
	peak := 0
	for round := 0; round < 20; round++ {
		next++
		act := next
		add := retire
		for i := 0; i < 10; i++ {
			next++
			add = append(add, cnf.Clause{cnf.PosLit(next), cnf.NewLit(cnf.Var(1+i), round%2 == 0), cnf.NegLit(act)})
		}
		q, err := ss.Submit(context.Background(), Request{Assume: []cnf.Lit{cnf.PosLit(act)}, Add: add})
		if err != nil {
			t.Fatal(err)
		}
		if res := waitResult(t, q); res.Status != solver.Sat || len(res.Model) != int(next)+1 {
			t.Fatalf("round %d: %v with a model over %d variables", round, res.Status, len(res.Model)-1)
		}
		retire = []cnf.Clause{{cnf.NegLit(act)}}
		peak = max(peak, ss.Info().Clauses)
	}
	if peak > 60+3*10 {
		t.Fatalf("resident formula peaked at %d clauses: retired groups pile up", peak)
	}
	in, st := ss.Info(), m.Stats()
	if in.Vars > 30+2*11 || in.Clauses > 60+3*10 {
		t.Fatalf("after 20 retired groups the session reports %d vars / %d clauses", in.Vars, in.Clauses)
	}
	if st.LiveClauses != int64(in.Clauses) || st.LiveVars != int64(in.Vars) {
		t.Fatalf("manager gauges %d/%d, session %d/%d", st.LiveClauses, st.LiveVars, in.Clauses, in.Vars)
	}
	if st.Sweeps == 0 || st.SweptClauses < 150 || st.RetiredVars < 150 {
		t.Fatalf("sweep counters not surfaced: %+v", st)
	}
	if !ss.demote() {
		t.Fatal("idle session did not demote")
	}
	if ck := ss.Info(); ck.Vars != in.Vars || ck.Clauses != in.Clauses || ck.CheckpointBytes == 0 {
		t.Fatalf("checkpointed session reports %+v, resident reported %+v", ck, in)
	}
}
