package solver

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/cnf"
	"repro/internal/gen"
)

// TestCloneAgreement forks a warmed-up solver and cross-checks clone vs
// original on a stream of assumption queries: verdicts must agree with a
// fresh solver on every query, for both.
func TestCloneAgreement(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		f := gen.RandomKSAT(26, 100, 3, seed)
		orig := FromFormula(f, Options{Seed: seed})
		orig.Solve() // warm up: learnt clauses, activities, phases
		cl, err := orig.Clone()
		if err != nil {
			t.Fatalf("seed %d: clone: %v", seed, err)
		}
		rng := rand.New(rand.NewSource(seed))
		for q := 0; q < 8; q++ {
			var assume []cnf.Lit
			for k := 0; k < 1+rng.Intn(3); k++ {
				v := cnf.Var(rng.Intn(26) + 1)
				assume = append(assume, cnf.NewLit(v, rng.Intn(2) == 0))
			}
			want := FromFormula(f, Options{Seed: seed}).Solve(assume...)
			if got := cl.Solve(assume...); got != want {
				t.Fatalf("seed %d q %d: clone %v want %v", seed, q, got, want)
			}
			if got := orig.Solve(assume...); got != want {
				t.Fatalf("seed %d q %d: original %v want %v", seed, q, got, want)
			}
		}
	}
}

// TestCloneIndependence checks that a clone shares no mutable state with
// its original: clauses added to one must not constrain the other.
func TestCloneIndependence(t *testing.T) {
	f := gen.RandomKSAT(20, 60, 3, 7)
	orig := FromFormula(f, Options{Seed: 7})
	orig.Solve()
	cl, err := orig.Clone()
	if err != nil {
		t.Fatal(err)
	}
	// Pin variable 1 true in the clone only.
	if !cl.AddClause(cnf.Clause{cnf.PosLit(1)}) {
		t.Skip("formula forces ¬1; pick of pin literal unlucky")
	}
	if st := cl.Solve(cnf.NegLit(1)); st != Unsat {
		t.Fatalf("clone with unit +1 under assumption -1: %v", st)
	}
	if st := orig.Solve(cnf.NegLit(1)); st != Sat {
		t.Fatalf("original must be unaffected by clone's clause: %v", st)
	}
	// And the other direction: grow the original, clone unaffected.
	v := orig.NewVar()
	orig.AddClause(cnf.Clause{cnf.PosLit(v)})
	if cl.NumVars() >= orig.NumVars() {
		t.Fatalf("clone grew with original: %d vs %d", cl.NumVars(), orig.NumVars())
	}
}

// TestCloneConcurrentForks restores many solvers from one checkpoint in
// parallel and solves in all of them at once — the speculative-branch
// pattern sessions use. Run under -race this pins that a Checkpoint is
// immutable and restored forks are disjoint.
func TestCloneConcurrentForks(t *testing.T) {
	f := gen.RandomKSAT(30, 120, 3, 3)
	s := FromFormula(f, Options{Seed: 3})
	s.Solve()
	ck, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if ck.Bytes() <= 0 {
		t.Fatalf("checkpoint bytes: %d", ck.Bytes())
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fork := ck.Restore()
			v := cnf.Var(i%30 + 1)
			st := fork.Solve(cnf.NewLit(v, i%2 == 0))
			if st == Sat && !fork.Model().Satisfies(f) {
				t.Errorf("fork %d: bad model", i)
			}
		}(i)
	}
	wg.Wait()
}

// TestCloneWarmStart checks the point of the primitive: a restored fork
// answers a repeat Unsat query in far fewer conflicts than a cold solver,
// because the learnt tiers and heuristic state came with the image.
func TestCloneWarmStart(t *testing.T) {
	f := gen.Pigeonhole(7)
	cold := FromFormula(f, Options{Seed: 1})
	if st := cold.Solve(); st != Unsat {
		t.Fatalf("php7: %v", st)
	}
	coldConflicts := cold.Stats.Conflicts
	ck, err := cold.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	warm := ck.Restore()
	base := warm.Stats.Conflicts
	if st := warm.Solve(); st != Unsat {
		t.Fatalf("php7 warm: %v", st)
	}
	warmConflicts := warm.Stats.Conflicts - base
	if warmConflicts*2 > coldConflicts {
		t.Fatalf("warm restart not cheaper: cold %d conflicts, warm %d", coldConflicts, warmConflicts)
	}
}

// TestCloneRejects pins the unsupported configurations.
func TestCloneRejects(t *testing.T) {
	s := FromFormula(gen.RandomKSAT(10, 30, 3, 1), Options{Proof: &Proof{}})
	if _, err := s.Checkpoint(); err != ErrCheckpointProof {
		t.Fatalf("proof-logging checkpoint: %v", err)
	}
}

// TestCloneOfUnsat checks that a closed (ok=false) solver round-trips:
// the fork answers Unsat immediately.
func TestCloneOfUnsat(t *testing.T) {
	f := gen.Pigeonhole(4)
	s := FromFormula(f, Options{})
	if st := s.Solve(); st != Unsat {
		t.Fatalf("php4: %v", st)
	}
	cl, err := s.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if st := cl.Solve(); st != Unsat {
		t.Fatalf("clone of refuted php4: %v", st)
	}
}
