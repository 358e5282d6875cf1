package solver

import (
	"testing"

	"repro/internal/cnf"
	"repro/internal/gen"
)

// inprocTestConfigs are the inprocessing configurations the differential
// tests sweep: every transform alone and all together, at a cadence
// aggressive enough to fire many rounds on small instances.
func inprocTestConfigs() map[string]Options {
	base := Options{Inprocess: true, InprocessEvery: 1, Restart: RestartFixed, RestartBase: 8}
	all := base
	all.InprocessVarElim = true
	vivOnly := base
	vivOnly.InprocessNoSubsume = true
	subOnly := base
	subOnly.InprocessNoVivify = true
	elimOnly := base
	elimOnly.InprocessVarElim = true
	elimOnly.InprocessNoVivify = true
	elimOnly.InprocessNoSubsume = true
	return map[string]Options{
		"all":     all,
		"viv+sub": base,
		"vivify":  vivOnly,
		"subsume": subOnly,
		"varelim": elimOnly,
		"tiny-budget": {Inprocess: true, InprocessVarElim: true, InprocessEvery: 1,
			InprocessBudget: 50, Restart: RestartFixed, RestartBase: 4},
	}
}

// TestInprocessDifferential cross-checks every inprocessing
// configuration against the plain solver's verdict on random instances,
// verifying Sat models clause by clause (which exercises the varelim
// model reconstruction on every Sat answer).
func TestInprocessDifferential(t *testing.T) {
	for name, opts := range inprocTestConfigs() {
		for seed := int64(0); seed < 12; seed++ {
			f := gen.RandomKSAT(20, 82, 3, seed)
			want := FromFormula(f, Options{}).Solve()
			s := FromFormula(f, opts)
			got := s.Solve()
			if got != want {
				t.Fatalf("config %q seed %d: got %v want %v", name, seed, got, want)
			}
			if got == Sat {
				if err := VerifyModel(f, s.Model()); err != nil {
					t.Fatalf("config %q seed %d: model rejected: %v", name, seed, err)
				}
			}
		}
	}
}

// TestInprocessTransformsFire pins that the engine actually runs: on a
// learnt-heavy instance the round counter and at least one transform
// counter must move (a silently-gated engine would pass the differential
// tests while testing nothing).
func TestInprocessTransformsFire(t *testing.T) {
	opts := Options{Inprocess: true, InprocessVarElim: true, InprocessEvery: 1,
		Restart: RestartFixed, RestartBase: 8}
	var rounds, work int64
	for seed := int64(0); seed < 8; seed++ {
		s := FromFormula(gen.Random3SATHard(60, seed), opts)
		s.Solve()
		rounds += s.Stats.InprocRounds
		work += s.Stats.Vivified + s.Stats.VivifiedLits + s.Stats.Subsumed +
			s.Stats.StrengthenedLits + s.Stats.ElimVars
	}
	if rounds == 0 {
		t.Fatal("no inprocessing rounds ran")
	}
	if work == 0 {
		t.Fatal("inprocessing rounds ran but no transform ever fired")
	}
}

// elimInstance builds an instance where in-search variable elimination
// is guaranteed a target: a hard random core (drives the conflicts and
// restarts that open deep boundaries) plus an implication chain over
// fresh variables whose middle links occur exactly once per polarity —
// the textbook NiVER shape (1×1 resolvents never exceed the input
// clause count).
func elimInstance(seed int64) *cnf.Formula {
	f := gen.Random3SATHard(40, seed).Clone()
	y := f.NewVars(8)
	f.Add(cnf.PosLit(cnf.Var(1)), cnf.PosLit(y[0]))
	for i := 0; i+1 < len(y); i++ {
		f.Add(cnf.NegLit(y[i]), cnf.PosLit(y[i+1]))
	}
	f.Add(cnf.NegLit(y[len(y)-1]), cnf.PosLit(cnf.Var(2)))
	return f
}

// elimOpts fires a round at every restart (every 2 conflicts) so round 4
// — the deep boundary where variable elimination runs — arrives fast.
var elimOpts = Options{Inprocess: true, InprocessVarElim: true, InprocessEvery: 1,
	Restart: RestartFixed, RestartBase: 2}

// TestInprocessVarElimFires pins the deep-boundary path specifically:
// chains with many two-occurrence variables must see eliminations, and
// the reconstructed models must still verify.
func TestInprocessVarElimFires(t *testing.T) {
	var elim int64
	for seed := int64(0); seed < 10; seed++ {
		f := elimInstance(seed)
		s := FromFormula(f, elimOpts)
		st := s.Solve()
		elim += s.Stats.ElimVars
		if want := FromFormula(f, Options{}).Solve(); st != want {
			t.Fatalf("seed %d: got %v want %v", seed, st, want)
		}
		if st == Sat {
			if err := VerifyModel(f, s.Model()); err != nil {
				t.Fatalf("seed %d: reconstructed model rejected: %v", seed, err)
			}
		}
	}
	if elim == 0 {
		t.Fatal("no variable was ever eliminated in-search")
	}
}

// TestInprocessAssumptionRestore: an assumption over an in-search-
// eliminated variable must transparently restore the eliminations and
// answer exactly like a fresh solver.
func TestInprocessAssumptionRestore(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		f := elimInstance(seed)
		s := FromFormula(f, elimOpts)
		s.Solve()
		if len(s.inproc.elimRecs) == 0 {
			continue
		}
		v := s.inproc.elimRecs[0].v
		for _, a := range []cnf.Lit{cnf.PosLit(v), cnf.NegLit(v)} {
			got := s.Solve(a)
			want := FromFormula(f, Options{}).Solve(a)
			if got != want {
				t.Fatalf("seed %d assume %v: got %v want %v", seed, a, got, want)
			}
			if got == Sat {
				m := s.Model()
				if err := VerifyModel(f, m); err != nil {
					t.Fatalf("seed %d assume %v: model rejected: %v", seed, a, err)
				}
				if m.LitValue(a) != cnf.True {
					t.Fatalf("seed %d: model does not honor assumption %v", seed, a)
				}
			}
		}
		return // one instance with eliminations suffices
	}
	t.Fatal("no seed produced an elimination to test against")
}

// TestInprocessAddClauseRestore: adding a clause over an eliminated
// variable must restore it (the elimination stops being model-
// preserving) and subsequent solves must agree with a fresh solver.
func TestInprocessAddClauseRestore(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		f := elimInstance(seed)
		s := FromFormula(f, elimOpts)
		// An Unsat instance wedges the solver (ok=false); restore-on-contact
		// only has a contract on a live one.
		if s.Solve() != Sat || len(s.inproc.elimRecs) == 0 {
			continue
		}
		v := s.inproc.elimRecs[len(s.inproc.elimRecs)-1].v
		extra := cnf.Clause{cnf.PosLit(v)}
		s.AddClause(extra)
		if len(s.inproc.elimRecs) != 0 {
			t.Fatalf("seed %d: eliminations survived a clause over eliminated var %d", seed, v)
		}
		got := s.Solve()
		f2 := f.Clone()
		f2.AddClause(extra)
		want := FromFormula(f2, Options{}).Solve()
		if got != want {
			t.Fatalf("seed %d: got %v want %v after unit over eliminated var", seed, got, want)
		}
		if got == Sat {
			if err := VerifyModel(f2, s.Model()); err != nil {
				t.Fatalf("seed %d: model rejected: %v", seed, err)
			}
		}
		return
	}
	t.Fatal("no seed produced an elimination to test against")
}

// TestCloneMidInprocessing is the checkpoint-safety regression test: a
// clone taken while inprocessing state is resident (occurrence index
// built, vivification cursor mid-rotation, variables eliminated) must
// search bit-identically to a clone taken after that transient state was
// explicitly flushed. Checkpoint must flush — not capture — the index
// and cursor.
func TestCloneMidInprocessing(t *testing.T) {
	opts := Options{Inprocess: true, InprocessVarElim: true, InprocessEvery: 1,
		Restart: RestartFixed, RestartBase: 8, MaxConflicts: 800}
	f := gen.Random3SATHard(170, 3)

	mk := func() *Solver {
		s := FromFormula(f, opts)
		if st := s.Solve(); st != Unknown {
			t.Fatalf("budgeted probe decided (%v); raise the instance size", st)
		}
		return s
	}
	s1 := mk()
	if s1.Stats.InprocRounds == 0 {
		t.Fatal("probe ran no inprocessing rounds; nothing to regress against")
	}
	if !s1.inproc.occValid {
		t.Fatal("probe left no resident occurrence index; test is vacuous")
	}
	c1, err := s1.Clone() // mid-inprocessing clone
	if err != nil {
		t.Fatal(err)
	}

	s2 := mk()
	s2.inproc.dropOccIndex() // explicit flush before cloning
	s2.inproc.vivCur = 0
	c2, err := s2.Clone()
	if err != nil {
		t.Fatal(err)
	}

	for _, c := range []*Solver{c1, c2} {
		c.SetBudget(4000, 0)
	}
	st1, st2 := c1.Solve(), c2.Solve()
	if st1 != st2 {
		t.Fatalf("clone verdicts diverge: %v vs %v", st1, st2)
	}
	if c1.Stats != c2.Stats {
		t.Fatalf("clone searches diverge:\n mid-inprocessing: %+v\n after flush:      %+v",
			c1.Stats, c2.Stats)
	}
	// The original must remain healthy after being checkpointed: a further
	// budgeted continuation must run (and verify if it decides Sat).
	s1.SetBudget(2000, 0)
	if st := s1.Solve(); st == Sat {
		if err := VerifyModel(f, s1.Model()); err != nil {
			t.Fatalf("original model rejected after checkpoint: %v", err)
		}
	}
}

// TestCloneCarriesEliminations: a clone of a solver with in-search
// eliminations must reconstruct models (and honor restore-on-contact)
// exactly like the original.
func TestCloneCarriesEliminations(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		f := elimInstance(seed)
		s := FromFormula(f, elimOpts)
		st := s.Solve()
		if len(s.inproc.elimRecs) == 0 {
			continue
		}
		c, err := s.Clone()
		if err != nil {
			t.Fatal(err)
		}
		if got := c.Solve(); got != st {
			t.Fatalf("seed %d: clone verdict %v, original %v", seed, got, st)
		}
		if st == Sat {
			if err := VerifyModel(f, c.Model()); err != nil {
				t.Fatalf("seed %d: clone model rejected: %v", seed, err)
			}
		}
		// Restore-on-contact must work on the clone without touching the
		// original's records.
		v := c.inproc.elimRecs[0].v
		before := len(s.inproc.elimRecs)
		c.Solve(cnf.PosLit(v))
		if len(s.inproc.elimRecs) != before {
			t.Fatalf("seed %d: clone restore mutated the original's records", seed)
		}
		return
	}
	t.Fatal("no seed produced an elimination to test against")
}

// TestWarmStartProfile pins WarmProfile/Options.WarmStart: profile
// extraction is ranked and bounded, seeding is deterministic, applied
// exactly once, and a warm-started solver still answers correctly.
func TestWarmStartProfile(t *testing.T) {
	f := gen.Random3SATHard(120, 5)
	probe := FromFormula(f, Options{})
	want := probe.Solve()
	prof := probe.WarmProfile(16)
	if len(prof) == 0 || len(prof) > 16 {
		t.Fatalf("profile size %d out of range", len(prof))
	}
	seen := map[cnf.Var]bool{}
	for _, wv := range prof {
		if wv.Var < 1 || int(wv.Var) > f.NumVars() {
			t.Fatalf("profile names unknown variable %d", wv.Var)
		}
		if seen[wv.Var] {
			t.Fatalf("profile repeats variable %d", wv.Var)
		}
		seen[wv.Var] = true
	}

	warm := FromFormula(f, Options{WarmStart: prof})
	if got := warm.Solve(); got != want {
		t.Fatalf("warm-started verdict %v, want %v", got, want)
	}
	if want == Sat {
		if err := VerifyModel(f, warm.Model()); err != nil {
			t.Fatalf("warm model rejected: %v", err)
		}
	}
	if !warm.warmDone {
		t.Fatal("warm start was not applied")
	}

	// Determinism: an identical warm-started solver searches identically.
	again := FromFormula(f, Options{WarmStart: prof})
	again.Solve()
	if warm.Stats != again.Stats {
		t.Fatalf("warm-started searches diverge:\n %+v\n %+v", warm.Stats, again.Stats)
	}
}

// TestWarmStartSurvivesCheckpoint: a checkpoint taken after warm-start
// application must not re-apply the profile on the restored fork (the
// seeded activities are already in the image).
func TestWarmStartSurvivesCheckpoint(t *testing.T) {
	f := gen.RandomKSAT(20, 60, 3, 1)
	probe := FromFormula(f, Options{})
	probe.Solve()
	prof := probe.WarmProfile(8)
	if len(prof) == 0 {
		t.Skip("no activity accumulated; nothing to test")
	}
	s := FromFormula(f, Options{WarmStart: prof, MaxConflicts: 1})
	s.Solve()
	c, err := s.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if !c.warmDone {
		t.Fatal("restored fork would re-apply the warm-start profile")
	}
}
