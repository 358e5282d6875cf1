package solver

import (
	"fmt"
	"testing"

	"repro/internal/cnf"
	"repro/internal/gen"
)

func mustSat(t *testing.T, s *Solver, assumptions ...cnf.Lit) cnf.Assignment {
	t.Helper()
	if st := s.Solve(assumptions...); st != Sat {
		t.Fatalf("expected SAT, got %v", st)
	}
	return s.Model()
}

func TestTrivial(t *testing.T) {
	f := cnf.New(2)
	f.AddDIMACS(1, 2)
	f.AddDIMACS(-1)
	s := FromFormula(f, Options{})
	m := mustSat(t, s)
	if m.Value(1) != cnf.False || m.Value(2) != cnf.True {
		t.Fatalf("model wrong: %v %v", m.Value(1), m.Value(2))
	}
}

func TestEmptyFormula(t *testing.T) {
	s := New(0, Options{})
	if s.Solve() != Sat {
		t.Fatal("empty formula should be SAT")
	}
}

func TestImmediateConflict(t *testing.T) {
	f := cnf.New(1)
	f.AddDIMACS(1)
	f.AddDIMACS(-1)
	s := FromFormula(f, Options{})
	if s.Solve() != Unsat {
		t.Fatal("x ∧ ¬x should be UNSAT")
	}
	if s.Okay() {
		t.Fatal("Okay should be false after top-level conflict")
	}
	// Solving again must remain Unsat.
	if s.Solve() != Unsat {
		t.Fatal("re-solve after Unsat should stay Unsat")
	}
}

func TestEmptyClauseRejected(t *testing.T) {
	s := New(1, Options{})
	if s.AddClause(cnf.Clause{}) {
		t.Fatal("empty clause should return false")
	}
	if s.Solve() != Unsat {
		t.Fatal("solver with empty clause must be Unsat")
	}
}

func TestTautologyIgnored(t *testing.T) {
	s := New(2, Options{})
	if !s.AddClause(cnf.NewClause(1, -1)) {
		t.Fatal("tautology should be accepted (and dropped)")
	}
	if len(s.clauses) != 0 {
		t.Fatal("tautology should not be stored")
	}
	if s.Solve() != Sat {
		t.Fatal("should be SAT")
	}
}

func TestUnsatPigeonhole(t *testing.T) {
	for n := 2; n <= 5; n++ {
		f := gen.Pigeonhole(n)
		s := FromFormula(f, Options{})
		if s.Solve() != Unsat {
			t.Fatalf("PHP(%d) must be UNSAT", n)
		}
	}
}

func TestSatQueens(t *testing.T) {
	f := gen.Queens(6)
	s := FromFormula(f, Options{})
	m := mustSat(t, s)
	if !m.Satisfies(f) {
		t.Fatal("model does not satisfy queens formula")
	}
}

// configs returns a representative set of solver configurations; every
// one must be sound and complete.
func configs() map[string]Options {
	return map[string]Options{
		"default":       {},
		"chronological": {Chronological: true},
		"nolearning":    {NoLearning: true},
		"nolearn-chron": {NoLearning: true, Chronological: true},
		"nominimize":    {NoMinimize: true},
		"relevance":     {Deletion: DeleteByRelevance, RelevanceBound: 3, MaxLearnts: 20},
		"keepall":       {Deletion: DeleteNever},
		"luby-random":   {Restart: RestartLuby, RestartBase: 8, RandomFreq: 0.1, Seed: 7},
		"geometric":     {Restart: RestartGeometric, RestartBase: 10},
		"fixed-restart": {Restart: RestartFixed, RestartBase: 5},
		"dlis":          {Decide: DecideDLIS},
		"ordered":       {Decide: DecideOrdered},
		"random":        {Decide: DecideRandom, Seed: 3},
		"nophase":       {NoPhaseSaving: true},
		"tinydb":        {MaxLearnts: 1},
	}
}

// TestConfigurationsAgreeWithBruteForce cross-checks every configuration
// against exhaustive enumeration on many small random formulas — the
// central soundness/completeness property test.
func TestConfigurationsAgreeWithBruteForce(t *testing.T) {
	for name, opt := range configs() {
		t.Run(name, func(t *testing.T) {
			for seed := int64(0); seed < 60; seed++ {
				nv := 4 + int(seed%6)
				nc := int(float64(nv) * 4.0)
				f := gen.RandomKSAT(nv, nc, 3, seed)
				want, _ := cnf.BruteForce(f)
				s := FromFormula(f, opt)
				got := s.Solve()
				if (got == Sat) != want {
					t.Fatalf("seed %d: solver=%v brute=%v\n%s", seed, got, want, cnf.DIMACSString(f))
				}
				if got == Sat && !s.Model().Satisfies(f) {
					t.Fatalf("seed %d: model does not satisfy formula", seed)
				}
			}
		})
	}
}

func TestConfigurationsOnStructured(t *testing.T) {
	php := gen.Pigeonhole(3)
	chainU := gen.XorChain(8, true, 1)
	chainS := gen.XorChain(8, false, 1)
	for name, opt := range configs() {
		t.Run(name, func(t *testing.T) {
			if FromFormula(php, opt).Solve() != Unsat {
				t.Error("PHP(3) must be UNSAT")
			}
			if FromFormula(chainU, opt).Solve() != Unsat {
				t.Error("odd xor cycle must be UNSAT")
			}
			s := FromFormula(chainS, opt)
			if s.Solve() != Sat {
				t.Error("even xor cycle must be SAT")
			} else if !s.Model().Satisfies(chainS) {
				t.Error("model does not satisfy xor chain")
			}
		})
	}
}

func TestAssumptions(t *testing.T) {
	// (x1 ∨ x2) ∧ (¬x1 ∨ x3)
	f := cnf.New(3)
	f.AddDIMACS(1, 2)
	f.AddDIMACS(-1, 3)
	s := FromFormula(f, Options{})

	if s.Solve(cnf.PosLit(1), cnf.NegLit(3)) != Unsat {
		t.Fatal("x1 ∧ ¬x3 should contradict (¬x1 ∨ x3)")
	}
	core := s.Core()
	if len(core) == 0 || len(core) > 2 {
		t.Fatalf("core size %d, want 1..2: %v", len(core), core)
	}
	// Solver must be reusable after an assumption failure.
	m := mustSat(t, s, cnf.PosLit(1))
	if m.Value(3) != cnf.True {
		t.Fatal("x3 must be implied by x1")
	}
	// And with the opposite assumption.
	m = mustSat(t, s, cnf.NegLit(1))
	if m.Value(2) != cnf.True {
		t.Fatal("x2 must be implied by ¬x1")
	}
}

func TestAssumptionCoreMinimalish(t *testing.T) {
	// Chain: a → b → c; assuming a and ¬c is inconsistent, assuming z is
	// irrelevant and must not appear in the core.
	f := cnf.New(4)
	f.AddDIMACS(-1, 2) // a → b
	f.AddDIMACS(-2, 3) // b → c
	s := FromFormula(f, Options{})
	st := s.Solve(cnf.PosLit(4), cnf.PosLit(1), cnf.NegLit(3))
	if st != Unsat {
		t.Fatalf("expected Unsat, got %v", st)
	}
	for _, l := range s.Core() {
		if l.Var() == 4 {
			t.Fatalf("irrelevant assumption in core: %v", s.Core())
		}
	}
}

func TestIncrementalAddClause(t *testing.T) {
	s := New(3, Options{})
	s.AddClause(cnf.NewClause(1, 2))
	if s.Solve() != Sat {
		t.Fatal("SAT expected")
	}
	s.AddClause(cnf.NewClause(-1))
	s.AddClause(cnf.NewClause(-2, 3))
	m := mustSat(t, s)
	if m.Value(2) != cnf.True || m.Value(3) != cnf.True {
		t.Fatal("incremental implications wrong")
	}
	s.AddClause(cnf.NewClause(-3))
	if s.Solve() != Unsat {
		t.Fatal("now UNSAT expected")
	}
}

func TestIncrementalNewVar(t *testing.T) {
	s := New(1, Options{})
	s.AddClause(cnf.NewClause(1))
	if s.Solve() != Sat {
		t.Fatal("SAT expected")
	}
	v := s.NewVar()
	s.AddClause(cnf.Clause{cnf.NegLit(1), cnf.PosLit(v)})
	m := mustSat(t, s)
	if m.Value(v) != cnf.True {
		t.Fatal("new var should be implied true")
	}
	// AddFormula allocates a frame's variables even when no clause
	// mentions them, so the next frame numbers past them.
	f := cnf.New(s.NumVars())
	w := f.NewVar()
	f.Add(cnf.NegLit(w))
	f.NewVar() // the frame's last variable feeds nothing
	if !s.AddFormula(f) || s.NumVars() != f.NumVars() {
		t.Fatalf("AddFormula: %d vars, formula has %d", s.NumVars(), f.NumVars())
	}
	if mustSat(t, s).Value(w) != cnf.False {
		t.Fatal("AddFormula's clause not in effect")
	}
}

func TestBudgets(t *testing.T) {
	f := gen.Pigeonhole(7) // hard enough to not finish in 10 conflicts
	s := FromFormula(f, Options{MaxConflicts: 10})
	if st := s.Solve(); st != Unknown {
		t.Fatalf("expected Unknown under tiny budget, got %v", st)
	}
	s2 := FromFormula(f, Options{MaxDecisions: 5})
	if st := s2.Solve(); st != Unknown {
		t.Fatalf("expected Unknown under decision budget, got %v", st)
	}
}

func TestStatsPopulated(t *testing.T) {
	f := gen.Pigeonhole(4)
	s := FromFormula(f, Options{})
	s.Solve()
	if s.Stats.Conflicts == 0 || s.Stats.Decisions == 0 || s.Stats.Propagations == 0 {
		t.Fatalf("stats not populated: %+v", s.Stats)
	}
	if s.Stats.Learned == 0 {
		t.Fatal("expected learned clauses on PHP(4)")
	}
}

func TestNoLearningRecordsNothing(t *testing.T) {
	f := gen.Pigeonhole(4)
	s := FromFormula(f, Options{NoLearning: true})
	s.Solve()
	if s.Stats.Learned != 0 {
		t.Fatalf("NoLearning recorded %d clauses", s.Stats.Learned)
	}
	if s.db.learntCount() != 0 {
		t.Fatal("learnt database should be empty")
	}
}

func TestNonChronologicalJumps(t *testing.T) {
	// On structured instances the default solver should perform at least
	// one multi-level backjump; the chronological solver never does.
	f := gen.Pigeonhole(5)
	s := FromFormula(f, Options{})
	s.Solve()
	chrono := FromFormula(f, Options{Chronological: true})
	chrono.Solve()
	if chrono.Stats.MaxJump != 0 {
		t.Fatalf("chronological solver jumped %d levels", chrono.Stats.MaxJump)
	}
	if s.Stats.MaxJump == 0 {
		t.Log("note: no backjump observed on PHP(5); unusual but not unsound")
	}
}

func TestLearnedClausesAreImplicates(t *testing.T) {
	// Every recorded clause must be an implicate of the original formula:
	// formula ∧ ¬clause must be UNSAT (checked by brute force).
	f := gen.RandomKSAT(8, 34, 3, 42)
	s := FromFormula(f, Options{Deletion: DeleteNever})
	s.Solve()
	checked := 0
	var learnts []CRef
	for t := range s.db.roster {
		learnts = append(learnts, s.db.roster[t]...)
	}
	for _, c := range learnts {
		g := f.Clone()
		for _, l := range s.db.lits(c) {
			g.AddUnit(l.Not())
		}
		if sat, _ := cnf.BruteForce(g); sat {
			t.Fatalf("learned clause %v is not an implicate", s.db.lits(c))
		}
		checked++
		if checked >= 25 {
			break
		}
	}
	if s.Stats.Conflicts > 0 && checked == 0 {
		t.Log("no learned clauses retained to check")
	}
}

func TestRestartStats(t *testing.T) {
	f := gen.Pigeonhole(6)
	s := FromFormula(f, Options{Restart: RestartFixed, RestartBase: 5, MaxConflicts: 200})
	s.Solve()
	if s.Stats.Restarts == 0 {
		t.Fatal("expected restarts with a 5-conflict fixed policy")
	}
}

func TestLuby(t *testing.T) {
	want := []int64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(i); got != w {
			t.Fatalf("luby(%d) = %d, want %d", i, got, w)
		}
	}
}

func TestSolveFormulaOnce(t *testing.T) {
	f := cnf.New(2)
	f.AddDIMACS(1)
	f.AddDIMACS(-1, 2)
	st, m := SolveFormulaOnce(f, Options{})
	if st != Sat || !m.Satisfies(f) {
		t.Fatal("SolveFormulaOnce broken")
	}
	g := cnf.New(1)
	g.AddDIMACS(1)
	g.AddDIMACS(-1)
	st, m = SolveFormulaOnce(g, Options{})
	if st != Unsat || m != nil {
		t.Fatal("SolveFormulaOnce on UNSAT broken")
	}
}

func TestModelCompleteWithoutTheory(t *testing.T) {
	f := gen.RandomKSAT(10, 20, 3, 5)
	s := FromFormula(f, Options{})
	if s.Solve() == Sat {
		m := s.Model()
		for v := cnf.Var(1); int(v) <= 10; v++ {
			if m.Value(v) == cnf.Undef {
				t.Fatalf("var %d unassigned in full model", v)
			}
		}
		if s.PartialModel() {
			t.Fatal("model should not be partial without a theory")
		}
	}
}

// stubTheory stops the search as soon as `stopAfter` variables are
// assigned, and suggests a fixed literal first.
type stubTheory struct {
	s         *Solver
	assigned  int
	stopAfter int
	suggest   cnf.Lit
	events    []string
}

func (st *stubTheory) OnAssign(l cnf.Lit) {
	st.assigned++
	st.events = append(st.events, "+"+l.String())
}
func (st *stubTheory) OnUnassign(l cnf.Lit) {
	st.assigned--
	st.events = append(st.events, "-"+l.String())
}
func (st *stubTheory) Done() bool { return st.assigned >= st.stopAfter }
func (st *stubTheory) Suggest() cnf.Lit {
	if st.s.LitValue(st.suggest) == cnf.Undef {
		return st.suggest
	}
	return cnf.LitUndef
}

func TestTheoryEarlyStopAndSuggest(t *testing.T) {
	// Large satisfiable formula where one assignment satisfies nothing by
	// itself; theory stops after 2 assignments -> partial model.
	f := cnf.New(6)
	f.AddDIMACS(1, 2)
	f.AddDIMACS(3, 4)
	f.AddDIMACS(5, 6)
	s := FromFormula(f, Options{})
	th := &stubTheory{s: s, stopAfter: 2, suggest: cnf.PosLit(5)}
	s.SetTheory(th)
	if s.Solve() != Sat {
		t.Fatal("expected SAT")
	}
	if !s.PartialModel() {
		t.Fatal("expected partial model")
	}
	m := s.Model()
	if m.NumAssigned() > 3 { // 2 + possible propagation slack
		t.Fatalf("too many assignments for early stop: %d", m.NumAssigned())
	}
	if m.Value(5) != cnf.True {
		t.Fatal("suggested literal should have been decided first")
	}
	if len(th.events) == 0 {
		t.Fatal("theory saw no events")
	}
}

func TestTheoryUnassignCallbacks(t *testing.T) {
	// Force conflicts so OnUnassign fires; the counter must return to the
	// trail size (callbacks balanced).
	f := gen.Pigeonhole(4)
	s := FromFormula(f, Options{})
	th := &stubTheory{s: s, stopAfter: 1 << 30}
	s.SetTheory(th)
	s.Solve()
	// Level-0 facts stay on the trail after Solve; everything else must
	// have produced a balancing OnUnassign.
	if th.assigned != len(s.trail) {
		t.Fatalf("unbalanced callbacks: theory sees %d, trail has %d", th.assigned, len(s.trail))
	}
}

func TestDLISOnIncremental(t *testing.T) {
	s := New(3, Options{Decide: DecideDLIS})
	s.AddClause(cnf.NewClause(1, 2))
	if s.Solve() != Sat {
		t.Fatal("SAT expected")
	}
	s.AddClause(cnf.NewClause(-1, 3))
	s.AddClause(cnf.NewClause(-2, 3))
	m := mustSat(t, s)
	if m.Value(3) == cnf.Undef {
		t.Fatal("expected full model")
	}
}

func TestStatusString(t *testing.T) {
	if Sat.String() != "SATISFIABLE" || Unsat.String() != "UNSATISFIABLE" || Unknown.String() != "UNKNOWN" {
		t.Fatal("Status.String broken")
	}
}

func TestManyIncrementalRounds(t *testing.T) {
	// Incremental usage across many rounds with assumptions — the usage
	// pattern of iterative ATPG (§6 [25]).
	f := gen.RandomKSAT(20, 60, 3, 11)
	s := FromFormula(f, Options{})
	for round := 0; round < 20; round++ {
		sel := cnf.NewLit(cnf.Var(round%20+1), round%2 == 0)
		st := s.Solve(sel)
		switch st {
		case Sat:
			if s.LitValue(sel) != cnf.True {
				t.Fatalf("round %d: assumption not honoured", round)
			}
		case Unsat:
			core := s.Core()
			if len(core) != 1 || core[0] != sel {
				t.Fatalf("round %d: bad core %v", round, core)
			}
		default:
			t.Fatalf("round %d: unexpected status", round)
		}
	}
}

func ExampleSolver() {
	f := cnf.New(3)
	f.AddDIMACS(1, 2)  // x1 ∨ x2
	f.AddDIMACS(-1, 3) // ¬x1 ∨ x3
	f.AddDIMACS(-2)    // ¬x2
	s := FromFormula(f, Options{})
	fmt.Println(s.Solve())
	fmt.Println("x1 =", s.Value(1), "x3 =", s.Value(3))
	// Output:
	// SATISFIABLE
	// x1 = 1 x3 = 1
}
