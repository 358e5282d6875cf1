package solver

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/cnf"
	"repro/internal/gen"
)

// These tests pin the incremental reuse pattern resident solve sessions
// depend on: many back-to-back assumption solves against ONE solver
// instance, with Core(), the model, and the heuristic state (saved
// phases, VSIDS order) staying correct query after query.

// TestAssumptionReuseDifferential cross-checks a long run of assumption
// queries on one reused solver against a fresh solver per query.
// Verdicts must agree, Sat models must satisfy the formula and the
// assumptions, and Unsat cores must be a refuting subset of the
// assumptions.
func TestAssumptionReuseDifferential(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		f := gen.RandomKSAT(24, 90, 3, seed)
		reused := FromFormula(f, Options{Seed: seed})
		rng := rand.New(rand.NewSource(seed * 7))
		for q := 0; q < 12; q++ {
			var assume []cnf.Lit
			for k := 0; k < 1+rng.Intn(4); k++ {
				v := cnf.Var(rng.Intn(24) + 1)
				assume = append(assume, cnf.NewLit(v, rng.Intn(2) == 0))
			}
			if !reused.Okay() {
				break
			}
			st1 := reused.Solve(assume...)
			fresh := FromFormula(f, Options{Seed: seed})
			st2 := fresh.Solve(assume...)
			if st1 != st2 {
				t.Fatalf("seed %d query %d assume %v: reused %v fresh %v", seed, q, assume, st1, st2)
			}
			switch st1 {
			case Sat:
				m := reused.Model()
				if !m.Satisfies(f) {
					t.Fatalf("seed %d query %d: reused model does not satisfy", seed, q)
				}
				for _, a := range assume {
					if m.LitValue(a) != cnf.True {
						t.Fatalf("seed %d query %d: model violates assumption %v", seed, q, a)
					}
				}
				if len(reused.Core()) != 0 {
					t.Fatalf("seed %d query %d: non-empty core %v after Sat", seed, q, reused.Core())
				}
			case Unsat:
				if !reused.Okay() {
					break // genuinely unsat formula: empty core is correct
				}
				core := reused.Core()
				in := func(l cnf.Lit) bool {
					for _, a := range assume {
						if a == l {
							return true
						}
					}
					return false
				}
				for _, l := range core {
					if !in(l) {
						t.Fatalf("seed %d query %d: core literal %v not among assumptions %v (core %v)",
							seed, q, l, assume, core)
					}
				}
				chk := FromFormula(f, Options{Seed: seed})
				if st := chk.Solve(core...); st != Unsat {
					t.Fatalf("seed %d query %d: core %v does not refute (got %v)", seed, q, core, st)
				}
			}
		}
	}
}

// TestAssumptionReuseHeuristicState checks that phase saving and the
// VSIDS order survive assumption solves: after a Sat answer every
// variable must be back in the branching order for the next query (a
// popped-but-never-restored variable would silently vanish from the
// heuristic), and a plain solve after contradictory assumption queries
// must still answer Sat on a satisfiable formula.
func TestAssumptionReuseHeuristicState(t *testing.T) {
	f := gen.XorChain(12, false, 3)
	s := FromFormula(f, Options{})
	if st := s.Solve(cnf.PosLit(1)); st != Sat {
		t.Fatalf("assume +1: %v", st)
	}
	if st := s.Solve(cnf.NegLit(1)); st != Sat {
		t.Fatalf("assume -1: %v", st)
	}
	if st := s.Solve(cnf.PosLit(1), cnf.NegLit(1)); st != Unsat {
		t.Fatalf("assume +1 -1: %v", st)
	}
	if core := s.Core(); len(core) != 2 {
		t.Fatalf("contradictory assumptions: core %v", core)
	}
	if st := s.Solve(); st != Sat {
		t.Fatalf("plain solve after assumption solves: %v", st)
	}
	// Every variable is either assigned on the live trail or available
	// to the branching order; none may have leaked out of both.
	s.cancelUntil(0)
	for v := cnf.Var(1); int(v) <= s.NumVars(); v++ {
		if s.Value(v) == cnf.Undef && !s.order.contains(v) {
			t.Fatalf("variable %d leaked out of the branching order", v)
		}
	}
}

// TestAssumptionReuseConcurrentSnapshot runs the session reuse pattern
// while another goroutine samples Snapshot, as the serving layer's
// progress probe does — the combination the session runner exercises on
// every query. Run under -race this pins the absence of data races
// between the solving goroutine and the sampler.
func TestAssumptionReuseConcurrentSnapshot(t *testing.T) {
	f := gen.RandomKSAT(30, 120, 3, 11)
	s := FromFormula(f, Options{Seed: 11})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = s.Snapshot()
			}
		}
	}()
	rng := rand.New(rand.NewSource(99))
	for q := 0; q < 40 && s.Okay(); q++ {
		v := cnf.Var(rng.Intn(30) + 1)
		st := s.Solve(cnf.NewLit(v, rng.Intn(2) == 0))
		if st == Sat && !s.Model().Satisfies(f) {
			t.Fatalf("query %d: model does not satisfy", q)
		}
	}
	close(stop)
	wg.Wait()
}
