package solver

import (
	"testing"

	"repro/internal/cnf"
)

// checkValues asserts the invariants of the literal-indexed assignment:
// the two slots of a variable are complements (or both Undef), every
// trail literal is True, a retired variable is parked at False off the
// trail, and nothing else is assigned. Valid between propagate calls at
// any decision level.
func checkValues(t testing.TB, s *Solver) {
	t.Helper()
	if want := 2 * (s.NumVars() + 1); len(s.vals) != want {
		t.Fatalf("vals holds %d slots for %d variables, want %d", len(s.vals), s.NumVars(), want)
	}
	onTrail := make([]bool, s.NumVars()+1)
	for _, l := range s.trail {
		if s.vals[l] != cnf.True {
			t.Fatalf("trail literal %v reads %v", l, s.vals[l])
		}
		if onTrail[l.Var()] {
			t.Fatalf("variable %d is on the trail twice", l.Var())
		}
		onTrail[l.Var()] = true
	}
	for v := cnf.Var(0); int(v) <= s.NumVars(); v++ {
		pos, neg := s.vals[cnf.PosLit(v)], s.vals[cnf.NegLit(v)]
		if pos != neg.Not() {
			t.Fatalf("variable %d: positive literal %v, negative literal %v", v, pos, neg)
		}
		switch {
		case v > 0 && s.varFlags[v]&varRetired != 0:
			if pos != cnf.False || onTrail[v] {
				t.Fatalf("retired variable %d reads %v (on trail: %v), want parked False", v, pos, onTrail[v])
			}
		case !onTrail[v]:
			if pos != cnf.Undef {
				t.Fatalf("variable %d is off the trail but reads %v", v, pos)
			}
		}
	}
}

// TestValuesRetireWakeCheckpoint walks one solver through everything
// that writes the assignment outside enqueue and backtrack — the sweep
// retiring a variable, a clause and an assumption waking it, a
// checkpoint carrying it into a fork — and checks the invariants, and
// that Value, LitValue and the model agree, after every step on the
// solver and on a fork taken there.
func TestValuesRetireWakeCheckpoint(t *testing.T) {
	s := New(3, Options{})
	var act, x, y cnf.Var
	solve := func(t *testing.T, want Status, assumptions ...cnf.Lit) {
		t.Helper()
		if st := s.Solve(assumptions...); st != want {
			t.Fatalf("Solve(%v) = %v, want %v", assumptions, st, want)
		}
	}
	retired := func(t *testing.T, v cnf.Var, want bool) {
		t.Helper()
		if got := s.varFlags[v]&varRetired != 0; got != want {
			t.Fatalf("variable %d retired = %v, want %v", v, got, want)
		}
	}
	steps := []struct {
		name string
		do   func(*testing.T)
	}{
		{"load", func(*testing.T) {
			s.AddClause(cnf.NewClause(1, 2))
			act, x = s.NewVar(), s.NewVar() // x occurs only in the guarded group
			s.AddClause(cnf.Clause{cnf.PosLit(x), cnf.PosLit(3), cnf.NegLit(act)})
			s.AddClause(cnf.Clause{cnf.NegLit(x), cnf.PosLit(2), cnf.NegLit(act)})
		}},
		{"solve under the guard", func(t *testing.T) { solve(t, Sat, cnf.PosLit(act)) }},
		{"switch the group off", func(*testing.T) {
			s.AddClause(cnf.Clause{cnf.NegLit(act)})
			s.AddClause(cnf.NewClause(-1, 2, 3)) // an addition arms the sweep
		}},
		{"solve: the sweep retires x", func(t *testing.T) { solve(t, Sat); retired(t, x, true) }},
		{"an assumption wakes x", func(t *testing.T) { solve(t, Sat, cnf.NegLit(x)); retired(t, x, false) }},
		{"retire x again", func(t *testing.T) { s.retire(x); retired(t, x, true) }},
		{"a clause wakes x", func(t *testing.T) {
			s.AddClause(cnf.Clause{cnf.PosLit(x), cnf.PosLit(1)})
			retired(t, x, false)
		}},
		{"solve with x live", func(t *testing.T) { solve(t, Sat, cnf.NegLit(1)) }},
		{"a fresh variable, retired at once", func(t *testing.T) { y = s.NewVar(); s.retire(y); retired(t, y, true) }},
		{"a new variable beside the retired one", func(*testing.T) { s.NewVar() }},
		{"solve with y parked", func(t *testing.T) {
			solve(t, Sat)
			if got := s.Model()[y]; got != cnf.False {
				t.Fatalf("model gives the retired variable %v, want False", got)
			}
		}},
	}
	for _, step := range steps {
		t.Log(step.name)
		step.do(t)
		checkValues(t, s)
		for v := cnf.Var(1); int(v) <= s.NumVars(); v++ {
			if s.Value(v) != s.LitValue(cnf.PosLit(v)) || s.Value(v).Not() != s.LitValue(cnf.NegLit(v)) {
				t.Fatalf("step %q: Value(%d) = %v, literals read %v / %v", step.name, v,
					s.Value(v), s.LitValue(cnf.PosLit(v)), s.LitValue(cnf.NegLit(v)))
			}
		}
		if m := s.Model(); m != nil {
			// Captured at Sat time: equal to the live assignment until
			// the next call that backtracks.
			for v := cnf.Var(1); int(v) < len(m) && s.decisionLevel() > 0; v++ {
				if m[v] != s.Value(v) {
					t.Fatalf("step %q: model gives variable %d %v, the solver %v", step.name, v, m[v], s.Value(v))
				}
			}
		}
		// A fork taken here carries the same level-0 assignment. (Clone
		// backtracks the original to level 0, as AddClause would, so
		// every step starts there.)
		fork, err := s.Clone()
		if err != nil {
			t.Fatalf("step %q: %v", step.name, err)
		}
		checkValues(t, s)
		checkValues(t, fork)
		for v := cnf.Var(1); int(v) <= s.NumVars(); v++ {
			if fork.Value(v) != s.Value(v) {
				t.Fatalf("step %q: fork reads variable %d as %v, the original %v", step.name, v, fork.Value(v), s.Value(v))
			}
		}
	}
}
