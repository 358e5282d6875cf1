package solver

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/cnf"
	"repro/internal/gen"
)

// guardedRun drives the incremental idiom the level-0 sweep exists for
// over one solver and checks every answer against brute force: the base
// clauses are permanent; every group is added guarded by a fresh
// activation variable, solved under it, and switched off for good with
// the unit ¬act. All clauses range over variables 1..nVars, so a
// variable retired with one group is woken by a later one.
type guardedRun struct {
	t     *testing.T
	nVars int
	s     *Solver
	base  []cnf.Clause // permanent clauses added so far
	round int
}

func newGuardedRun(t *testing.T, nVars int, opts Options) *guardedRun {
	return &guardedRun{t: t, nVars: nVars, s: New(nVars, opts)}
}

// addPermanent adds an unguarded clause.
func (g *guardedRun) addPermanent(cl cnf.Clause) {
	g.base = append(g.base, cl)
	g.s.AddClause(cl)
	checkValues(g.t, g.s)
}

// solveGroup runs one add/solve/retire round and returns the verdict.
func (g *guardedRun) solveGroup(group []cnf.Clause) Status {
	g.t.Helper()
	g.round++
	act := g.s.NewVar()
	for _, cl := range group {
		g.s.AddClause(append(cl.Clone(), cnf.NegLit(act)))
		checkValues(g.t, g.s)
	}
	live := cnf.New(g.nVars)
	for _, cl := range g.base {
		live.AddClause(cl)
	}
	baseSat, _ := cnf.BruteForce(live)
	for _, cl := range group {
		live.AddClause(cl)
	}
	want, _ := cnf.BruteForce(live)

	st := g.s.Solve(cnf.PosLit(act)) // a repeat Solve sweeps first
	checkValues(g.t, g.s)
	where := fmt.Sprintf("round %d (opts %+v)", g.round, g.s.opts)
	switch st {
	case Sat:
		if !want {
			g.t.Fatalf("%s: solver Sat, brute force Unsat on %v", where, live)
		}
		m := g.s.Model()
		if len(m) != g.s.NumVars()+1 {
			g.t.Fatalf("%s: model over %d variables, solver has %d", where, len(m)-1, g.s.NumVars())
		}
		for v := 1; v < len(m); v++ {
			if m[v] == cnf.Undef {
				g.t.Fatalf("%s: model leaves variable %d unassigned (%d retired)", where, v, g.s.sweepSt.retired)
			}
		}
		if m.Value(act) != cnf.True {
			g.t.Fatalf("%s: assumption false in the model", where)
		}
		if err := VerifyModel(live, m); err != nil {
			g.t.Fatalf("%s: %v", where, err)
		}
	case Unsat:
		if want {
			g.t.Fatalf("%s: solver Unsat, brute force Sat on %v", where, live)
		}
		core := g.s.Core()
		if len(core) > 1 || (len(core) == 1 && core[0] != cnf.PosLit(act)) {
			g.t.Fatalf("%s: core %v is not a subset of the assumptions", where, core)
		}
		if len(core) == 0 && baseSat {
			g.t.Fatalf("%s: empty core but the permanent clauses are satisfiable", where)
		}
	default:
		g.t.Fatalf("%s: complete configuration returned Unknown", where)
	}
	g.s.AddClause(cnf.Clause{cnf.NegLit(act)})
	checkValues(g.t, g.s)
	if g.round%4 == 0 {
		// After a compaction every watcher is live again: no clause may
		// have lost one to a released page, no antecedent may dangle.
		g.s.garbageCollect()
		checkWatchConsistency(g.t, g.s)
		checkWatchCompleteness(g.t, g.s)
		checkReasonConsistency(g.t, g.s)
	}
	if g.round%3 == 0 {
		// Carry on with a fork: checkpoint and restore must hand over
		// the assignment, retired variables included. (A solver logging
		// a proof cannot be checkpointed and carries on itself.)
		if fork, err := g.s.Clone(); err == nil {
			checkValues(g.t, g.s)
			checkValues(g.t, fork)
			g.s = fork
		}
	}
	return st
}

func randomClause(rng *rand.Rand, nVars, maxLen int) cnf.Clause {
	cl := make(cnf.Clause, 1+rng.Intn(maxLen))
	for i := range cl {
		cl[i] = cnf.NewLit(cnf.Var(1+rng.Intn(nVars)), rng.Intn(2) == 0)
	}
	return cl
}

// sweepConfigs are the configurations the incremental differential test
// and the FuzzSolverVsBrute incremental entries run under: the default,
// deletion pressure (so dropped learnt clauses and arena GCs happen on
// tiny instances), every branching heuristic (each has its own "not a
// decision candidate" check), inprocessing with variable elimination
// (the other owner of the per-variable flags) and proof logging.
var sweepConfigs = []Options{
	{},
	{MaxLearnts: 1, Restart: RestartFixed, RestartBase: 2},
	{Decide: DecideOrdered},
	{Decide: DecideRandom, Seed: 5},
	{Decide: DecideDLIS},
	{RandomFreq: 0.5, Seed: 9, Chronological: true},
	{Inprocess: true, InprocessVarElim: true, InprocessEvery: 1, Restart: RestartFixed, RestartBase: 2},
	{LogProof: true},
}

// TestSweepDifferential: random guarded add/solve/retire rounds with
// variable reuse and occasional permanent facts, every verdict, model
// and core checked against brute force over the live formula.
func TestSweepDifferential(t *testing.T) {
	var sweeps, retired, swept int64
	for ci, opts := range sweepConfigs {
		for seed := int64(0); seed < 12; seed++ {
			rng := rand.New(rand.NewSource(seed*31 + int64(ci)))
			nVars := 6 + rng.Intn(8)
			g := newGuardedRun(t, nVars, opts)
			for i := 0; i < nVars; i++ {
				g.addPermanent(randomClause(rng, nVars, 3))
			}
			for r := 0; r < 40; r++ {
				if rng.Intn(4) == 0 {
					// A permanent fact: satisfies clauses for good and
					// strands the variables only they mentioned.
					g.addPermanent(randomClause(rng, nVars, 1+rng.Intn(2)))
				}
				group := make([]cnf.Clause, 1+rng.Intn(6))
				for i := range group {
					group[i] = randomClause(rng, nVars, 3)
				}
				g.solveGroup(group)
			}
			sweeps += g.s.Stats.Sweeps
			retired += g.s.Stats.RetiredVars
			swept += g.s.Stats.SweptClauses
		}
	}
	if sweeps == 0 || retired == 0 || swept == 0 {
		t.Fatalf("the test never exercised the sweep: %d sweeps, %d clauses swept, %d variables retired", sweeps, swept, retired)
	}
}

// TestSweepNeverOnFirstSolve pins the one-shot guarantee: whatever was
// added before it, the first Solve does not sweep.
func TestSweepNeverOnFirstSolve(t *testing.T) {
	s := New(4, Options{})
	s.AddClause(cnf.NewClause(1, 2))
	s.AddClause(cnf.NewClause(1, 3, 4))
	s.AddClause(cnf.NewClause(1)) // satisfies both
	if st := s.Solve(); st != Sat {
		t.Fatal(st)
	}
	if s.Stats.Sweeps != 0 || s.NumClauses() != 2 {
		t.Fatalf("first Solve swept: %d sweeps, %d clauses live", s.Stats.Sweeps, s.NumClauses())
	}
	s.AddClause(cnf.NewClause(-2, 3, 4))
	if st := s.Solve(); st != Sat {
		t.Fatal(st)
	}
	if s.Stats.Sweeps != 1 || s.Stats.SweptClauses != 2 || s.NumClauses() != 1 {
		t.Fatalf("second Solve: %d sweeps, %d swept, %d live", s.Stats.Sweeps, s.Stats.SweptClauses, s.NumClauses())
	}
	if got, want := s.Snapshot().SweptClauses, s.Stats.SweptClauses; got != want {
		t.Fatalf("Snapshot mirrors %d swept clauses, Stats has %d", got, want)
	}
}

// TestSweepRetireAndWake walks one variable through the retire/wake
// state machine and checks the heap and the flags at every step.
func TestSweepRetireAndWake(t *testing.T) {
	s := New(3, Options{})
	s.AddClause(cnf.NewClause(1, 2))
	act := s.NewVar()
	x := s.NewVar() // occurs only in the guarded group
	s.AddClause(cnf.Clause{cnf.PosLit(x), cnf.PosLit(3), cnf.NegLit(act)})
	s.AddClause(cnf.Clause{cnf.NegLit(x), cnf.PosLit(2), cnf.NegLit(act)})
	if st := s.Solve(cnf.PosLit(act)); st != Sat {
		t.Fatal(st)
	}
	s.AddClause(cnf.Clause{cnf.NegLit(act)})
	s.AddClause(cnf.NewClause(-1, 2, 3)) // an addition arms the trigger
	if st := s.Solve(); st != Sat {
		t.Fatal(st)
	}
	if s.varFlags[x]&varRetired == 0 || s.order.contains(x) {
		t.Fatalf("x not retired: flags %b, in heap %v", s.varFlags[x], s.order.contains(x))
	}
	if s.varFlags[3] != 0 {
		t.Fatalf("variable 3 still occurs in a live clause but carries flags %b", s.varFlags[3])
	}
	if s.NumLiveVars() != 3 { // 1, 2, 3: act is fixed, x retired
		t.Fatalf("NumLiveVars %d of %d", s.NumLiveVars(), s.NumVars())
	}
	if m := s.Model(); m[x] == cnf.Undef || s.Value(x) != m[x] {
		t.Fatalf("retired variable: model %v, Value %v", m[x], s.Value(x))
	}
	for _, li := range []int{cnf.PosLit(x).Index(), cnf.NegLit(x).Index(), cnf.PosLit(act).Index(), cnf.NegLit(act).Index()} {
		if s.watches.ref[li].cap != 0 || s.binWatches.ref[li].cap != 0 {
			t.Fatalf("literal index %d still owns a watcher page", li)
		}
	}
	// An assumption wakes it…
	if st := s.Solve(cnf.NegLit(x)); st != Sat || s.Model()[x] != cnf.False {
		t.Fatalf("assumption over a retired variable: %v", st)
	}
	if s.varFlags[x] != 0 || s.NumLiveVars() != 4 {
		t.Fatalf("x not woken by the assumption: flags %b, %d live", s.varFlags[x], s.NumLiveVars())
	}
	// …and so does a clause, which then constrains it.
	s.cancelUntil(0)
	s.retire(x)
	s.AddClause(cnf.Clause{cnf.PosLit(x)})
	if st := s.Solve(); st != Sat || s.Model()[x] != cnf.True {
		t.Fatalf("clause over a retired variable: %v, x=%v", st, s.Model()[x])
	}
}

// TestSweepCostFollowsLiveFormula is the scaling check: thousands of
// guarded add/solve/retire rounds over a fixed base must cost the same
// at the end as at the start — per-round decisions and per-round time
// in the last tenth within 1.5× of the first tenth. Without the sweep
// both grow linearly with the number of rounds (tenfold over this run).
// Decisions are exact; the clock is given three runs to show the bound,
// since a busy host can slow either tenth of one run.
func TestSweepCostFollowsLiveFormula(t *testing.T) {
	const rounds = 2400
	var firstT, lastT time.Duration
	for attempt := 0; attempt < 3; attempt++ {
		firstT, lastT = guardedRoundsCost(t, rounds)
		if float64(lastT) <= 1.5*float64(firstT) {
			return
		}
	}
	t.Errorf("time per round grew from %v to %v", firstT, lastT)
}

// guardedRoundsCost runs the rounds on a fresh solver, checks the exact
// criteria and returns the median time per round in the first and the
// last tenth.
func guardedRoundsCost(t *testing.T, rounds int) (first, last time.Duration) {
	base := gen.RandomKSAT(60, 150, 3, 4)
	s := FromFormula(base, Options{})
	if st := s.Solve(); st != Sat {
		t.Fatalf("base formula: %v", st)
	}
	rng := rand.New(rand.NewSource(1))
	decisions := make([]int64, rounds)
	elapsed := make([]time.Duration, rounds)
	for r := 0; r < rounds; r++ {
		start := time.Now()
		before := s.Stats.Decisions
		act := s.NewVar()
		// A chain of eight fresh variables hung off the base variables.
		prev := cnf.Var(1 + rng.Intn(60))
		for i := 0; i < 8; i++ {
			x := s.NewVar()
			other := cnf.NewLit(cnf.Var(1+rng.Intn(60)), rng.Intn(2) == 0)
			s.AddClause(cnf.Clause{cnf.NegLit(x), cnf.PosLit(prev), other, cnf.NegLit(act)})
			s.AddClause(cnf.Clause{cnf.PosLit(x), cnf.NegLit(prev), cnf.NegLit(act)})
			prev = x
		}
		if st := s.Solve(cnf.PosLit(act)); st != Sat {
			t.Fatalf("round %d: %v", r, st)
		}
		s.AddClause(cnf.Clause{cnf.NegLit(act)})
		decisions[r] = s.Stats.Decisions - before
		elapsed[r] = time.Since(start)
	}
	tenth := rounds / 10
	// The first few rounds run before the first sweep; skip them.
	firstD, lastD := median(decisions[10:tenth]), median(decisions[rounds-tenth:])
	first, last = median(elapsed[10:tenth]), median(elapsed[rounds-tenth:])
	t.Logf("%d rounds, %d variables (%d live), %d sweeps, %d arena GCs: decisions/round %d → %d, time/round %v → %v",
		rounds, s.NumVars(), s.NumLiveVars(), s.Stats.Sweeps, s.Stats.ArenaGCs, firstD, lastD, first, last)
	if float64(lastD) > 1.5*float64(firstD) {
		t.Fatalf("decisions per round grew from %d to %d", firstD, lastD)
	}
	if live := s.NumLiveVars(); live > 60+20 {
		t.Fatalf("%d variables still live after %d retired groups", live, rounds)
	}
	return first, last
}

func median[T int64 | time.Duration](xs []T) T {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[len(s)/2]
}

// TestSweepCheckpoint: a checkpoint taken between rounds carries the
// retired flags and the sweep trigger; its image size equals that of a
// checkpoint of the restored fork, and two forks of it answer the
// remaining rounds with identical search counts and the original's
// verdicts.
func TestSweepCheckpoint(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const nVars = 10
		g := newGuardedRun(t, nVars, Options{})
		for i := 0; i < nVars; i++ {
			g.addPermanent(randomClause(rng, nVars, 3))
		}
		groups := make([][]cnf.Clause, 30)
		for r := range groups {
			groups[r] = make([]cnf.Clause, 2+rng.Intn(5))
			for i := range groups[r] {
				groups[r][i] = randomClause(rng, nVars, 3)
			}
		}
		for _, group := range groups[:15] {
			g.solveGroup(group)
		}
		ck, err := g.s.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		forks := [2]*guardedRun{}
		for i := range forks {
			forks[i] = &guardedRun{t: t, nVars: nVars, s: ck.Restore(), base: g.base, round: g.round}
			if !slices.Equal(forks[i].s.varFlags, g.s.varFlags) || forks[i].s.sweepSt.retired != g.s.sweepSt.retired {
				t.Fatalf("seed %d: fork %d lost the retired flags", seed, i)
			}
			for v := cnf.Var(1); int(v) <= forks[i].s.NumVars(); v++ {
				if forks[i].s.varFlags[v]&varRetired != 0 && forks[i].s.order.contains(v) {
					t.Fatalf("seed %d: fork %d has retired variable %d in its heap", seed, i, v)
				}
			}
		}
		ck2, err := forks[0].s.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		if ck2.Bytes() != ck.Bytes() {
			t.Fatalf("seed %d: image of the fork is %d bytes, the original's %d", seed, ck2.Bytes(), ck.Bytes())
		}
		for r, group := range groups[15:] {
			want := g.solveGroup(group)
			for i, f := range forks {
				if got := f.solveGroup(group); got != want {
					t.Fatalf("seed %d round %d: fork %d %v, original %v", seed, r, i, got, want)
				}
			}
			if a, b := forks[0].s.Stats, forks[1].s.Stats; a != b {
				t.Fatalf("seed %d round %d: forks diverged:\n%+v\n%+v", seed, r, a, b)
			}
		}
	}
}

// TestSweepProof: with a proof sink attached the sweep still runs and
// writes its deletions; a refutation reached after sweeps verifies
// against the full formula, in memory and through the DRAT text form.
func TestSweepProof(t *testing.T) {
	f := gen.Pigeonhole(5)
	full := f.Clone()
	s := New(f.NumVars(), Options{LogProof: true})
	// Satisfiable guarded prefix rounds first: they leave satisfied
	// clauses (original and learnt) behind for the sweep.
	for r := 0; r < 6; r++ {
		act := s.NewVar()
		for _, cl := range f.Clauses[:len(f.Clauses)/2] {
			g := append(cl.Clone(), cnf.NegLit(act))
			full.AddClause(g)
			s.AddClause(g)
		}
		if st := s.Solve(cnf.PosLit(act)); st != Sat {
			t.Fatalf("round %d: %v", r, st)
		}
		full.Add(cnf.NegLit(act))
		s.AddClause(cnf.Clause{cnf.NegLit(act)})
	}
	for _, cl := range f.Clauses {
		s.AddClause(cl)
	}
	if st := s.Solve(); st != Unsat {
		t.Fatalf("php5: %v", st)
	}
	if s.Stats.Sweeps == 0 || s.Stats.SweptClauses == 0 {
		t.Fatalf("no sweep under proof logging: %+v", s.Stats)
	}
	if s.Proof().NumDeletions() < int(s.Stats.SweptClauses) {
		t.Fatalf("%d clauses swept, only %d deletion lines", s.Stats.SweptClauses, s.Proof().NumDeletions())
	}
	if err := VerifyUnsat(full, s.Proof()); err != nil {
		t.Fatalf("proof with sweep deletions rejected: %v", err)
	}
}
