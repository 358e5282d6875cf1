package solver

import (
	"testing"
	"time"

	"repro/internal/cnf"
	"repro/internal/gen"
)

// TestInterrupt: an asynchronous Interrupt makes a long-running Solve
// return Unknown promptly instead of finishing the proof.
func TestInterrupt(t *testing.T) {
	f := gen.Pigeonhole(10) // far beyond what finishes in milliseconds
	s := FromFormula(f, Options{})
	done := make(chan Status, 1)
	go func() { done <- s.Solve() }()
	time.Sleep(10 * time.Millisecond)
	s.Interrupt()
	select {
	case st := <-done:
		if st != Unknown {
			t.Fatalf("interrupted solve returned %v, want Unknown", st)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("solver ignored the interrupt")
	}
	if !s.Interrupted() {
		t.Fatal("Interrupted() must report the pending request")
	}
	// After rearming, the solver is reusable and correct.
	s.ClearInterrupt()
	small := FromFormula(gen.Pigeonhole(4), Options{})
	if small.Solve() != Unsat {
		t.Fatal("PHP(4) must be UNSAT")
	}
}

// TestInterruptBeforeSolve: a sticky interrupt set before Solve yields
// Unknown immediately.
func TestInterruptBeforeSolve(t *testing.T) {
	s := FromFormula(gen.Pigeonhole(7), Options{})
	s.Interrupt()
	if st := s.Solve(); st != Unknown {
		t.Fatalf("got %v, want Unknown for pre-interrupted solve", st)
	}
}

// TestExportHook: solving a conflict-rich instance with an export hook
// yields recorded clauses implied by the formula. The hook copies what
// it keeps: the lent slice is valid only during the call.
func TestExportHook(t *testing.T) {
	f := gen.Pigeonhole(5)
	var got []cnf.Clause
	s := FromFormula(f, Options{
		ExportClause: func(lits []cnf.Lit, lbd int) bool {
			if len(lits) == 0 {
				t.Fatal("exported empty clause")
			}
			if lbd < 0 || lbd > len(lits) {
				t.Fatalf("implausible LBD %d for clause of length %d", lbd, len(lits))
			}
			got = append(got, append(cnf.Clause(nil), lits...))
			return true
		},
	})
	if s.Solve() != Unsat {
		t.Fatal("PHP(5) must be UNSAT")
	}
	if len(got) == 0 {
		t.Fatal("no clauses exported on a conflict-rich instance")
	}
	if s.Stats.Exported != int64(len(got)) {
		t.Fatalf("Stats.Exported = %d, callback saw %d", s.Stats.Exported, len(got))
	}
	// Length/LBD caps: nothing longer than the default cap may leak
	// (units are exempt but still within the cap trivially).
	for _, c := range got {
		if len(c) > 8 {
			t.Fatalf("clause of length %d escaped the ShareMaxLen cap", len(c))
		}
	}
}

// TestImportHook: clauses imported at restart boundaries participate in
// the proof, and importing a unit consequence prunes immediately.
func TestImportHook(t *testing.T) {
	// x1 AND (¬x1 ∨ x2): x2 is a consequence. Import ¬x2 from a
	// "sibling" that derived the formula unsat — the solver must answer
	// Unsat purely from the injected contradiction.
	f := cnf.New(2)
	f.AddDIMACS(1)
	f.AddDIMACS(-1, 2)
	fed := false
	s := FromFormula(f, Options{
		ImportClauses: func() []cnf.Clause {
			if fed {
				return nil
			}
			fed = true
			return []cnf.Clause{cnf.NewClause(-2)}
		},
	})
	if st := s.Solve(); st != Unsat {
		t.Fatalf("got %v, want Unsat from imported unit", st)
	}
}

// TestImportConsequences: feeding genuine learned clauses from one
// solver into another preserves the verdict and records imports.
func TestImportConsequences(t *testing.T) {
	f := gen.Pigeonhole(6)
	var lemmas []cnf.Clause
	teacher := FromFormula(f, Options{
		ExportClause: func(lits []cnf.Lit, lbd int) bool {
			lemmas = append(lemmas, append(cnf.Clause(nil), lits...))
			return true
		},
	})
	if teacher.Solve() != Unsat {
		t.Fatal("PHP(6) must be UNSAT")
	}
	served := false
	student := FromFormula(f, Options{
		ImportClauses: func() []cnf.Clause {
			if served {
				return nil
			}
			served = true
			return lemmas
		},
	})
	if student.Solve() != Unsat {
		t.Fatal("student must still prove UNSAT")
	}
	if student.Stats.Imported == 0 {
		t.Fatal("student imported nothing despite a stocked pool")
	}
	// And on a satisfiable instance the imports must not break models.
	sat := gen.Queens(8)
	lemmas = nil
	teacher2 := FromFormula(sat, Options{
		ExportClause: func(lits []cnf.Lit, lbd int) bool {
			lemmas = append(lemmas, append(cnf.Clause(nil), lits...))
			return true
		},
		RandomFreq: 0.1, Seed: 7,
	})
	if teacher2.Solve() != Sat {
		t.Fatal("queens(8) is SAT")
	}
	served = false
	student2 := FromFormula(sat, Options{ImportClauses: func() []cnf.Clause {
		if served {
			return nil
		}
		served = true
		return lemmas
	}})
	if student2.Solve() != Sat {
		t.Fatal("student2 must find a model")
	}
	if !cnf.Assignment(student2.Model()).Satisfies(sat) {
		t.Fatal("model corrupted by imported clauses")
	}
}

// TestExportDisable: an ExportClause hook returning false permanently
// stops further export (the shared-pool-full fast path).
func TestExportDisable(t *testing.T) {
	f := gen.Pigeonhole(5)
	calls := 0
	s := FromFormula(f, Options{
		ExportClause: func(lits []cnf.Lit, lbd int) bool {
			calls++
			return calls < 3 // accept two, then refuse
		},
	})
	if s.Solve() != Unsat {
		t.Fatal("PHP(5) must be UNSAT")
	}
	if calls != 3 {
		t.Fatalf("hook called %d times, want exactly 3 (two accepts + the refusal)", calls)
	}
}

// TestLogProofSuppressesImport: with proof logging on, foreign clauses
// must NOT be imported — they are not RUP steps of this solver's lemma
// sequence and would make a correct refutation fail verification.
func TestLogProofSuppressesImport(t *testing.T) {
	f := gen.Pigeonhole(5)
	var lemmas []cnf.Clause
	teacher := FromFormula(f, Options{
		ExportClause: func(lits []cnf.Lit, lbd int) bool {
			lemmas = append(lemmas, append(cnf.Clause(nil), lits...))
			return true
		},
	})
	if teacher.Solve() != Unsat {
		t.Fatal("PHP(5) must be UNSAT")
	}
	p := &Proof{}
	s := FromFormula(f, Options{
		Proof:         p,
		ImportClauses: func() []cnf.Clause { return lemmas },
	})
	if s.Solve() != Unsat {
		t.Fatal("PHP(5) must be UNSAT")
	}
	if s.Stats.Imported != 0 {
		t.Fatalf("imported %d clauses under proof logging; import must be suppressed", s.Stats.Imported)
	}
	if err := VerifyUnsat(f, p); err != nil {
		t.Fatalf("proof must verify: %v", err)
	}
}

// TestNoLearningRejectsImport: a no-learning configuration must not
// acquire pruning clauses through the import path (units excepted —
// NoLearning asserts unit implicates at top level too).
func TestNoLearningRejectsImport(t *testing.T) {
	f := gen.Pigeonhole(5)
	var lemmas []cnf.Clause
	teacher := FromFormula(f, Options{
		ExportClause: func(lits []cnf.Lit, lbd int) bool {
			lemmas = append(lemmas, append(cnf.Clause(nil), lits...))
			return true
		},
	})
	if teacher.Solve() != Unsat {
		t.Fatal("PHP(5) must be UNSAT")
	}
	long := 0
	for _, c := range lemmas {
		if len(c) > 1 {
			long++
		}
	}
	if long == 0 {
		t.Fatal("test needs non-unit lemmas to be meaningful")
	}
	s := FromFormula(f, Options{
		NoLearning:    true,
		ImportClauses: func() []cnf.Clause { return lemmas },
	})
	if s.Solve() != Unsat {
		t.Fatal("PHP(5) must be UNSAT")
	}
	if s.Stats.Imported > int64(len(lemmas)-long) {
		t.Fatalf("NoLearning solver imported %d clauses (only %d units were eligible)",
			s.Stats.Imported, len(lemmas)-long)
	}
}
