package solver

import (
	"testing"

	"repro/internal/cnf"
	"repro/internal/gen"
)

// checkWatchConsistency verifies the watched-literal invariants against
// the arena: every long watcher references a live clause that really
// watches the complement literal, and every binary watcher carries
// exactly the other literal of a live two-literal clause. Valid whenever
// propagate is not mid-flight (i.e. between Solve/propagate calls).
func checkWatchConsistency(t *testing.T, s *Solver) {
	t.Helper()
	for li := range s.watches.ref {
		l := cnf.Lit(li)
		for _, w := range s.watches.list(li) {
			if s.db.deleted(w.cref) {
				continue // lazily dropped; must still be addressable
			}
			lits := s.db.lits(w.cref)
			if len(lits) < 3 {
				t.Fatalf("binary clause %v in long watch list of %v", lits, l)
			}
			if lits[0] != l.Not() && lits[1] != l.Not() {
				t.Fatalf("watcher of %v references clause %v that does not watch it", l, lits)
			}
		}
		for _, bw := range s.binWatches.list(li) {
			if s.db.deleted(bw.cref) {
				t.Fatalf("deleted clause in binary watch list of %v", l)
			}
			lits := s.db.lits(bw.cref)
			if len(lits) != 2 {
				t.Fatalf("non-binary clause %v in binary watch list of %v", lits, l)
			}
			switch {
			case lits[0] == l.Not() && lits[1] == bw.blocker:
			case lits[1] == l.Not() && lits[0] == bw.blocker:
			default:
				t.Fatalf("binary watcher (%v → %v) does not match clause %v", l, bw.blocker, lits)
			}
		}
	}
}

// checkReasonConsistency verifies that every assigned variable with a
// clause antecedent points at a live clause that contains the variable's
// true literal (the assignment it implied).
func checkReasonConsistency(t *testing.T, s *Solver) {
	t.Helper()
	for v := 1; v <= s.NumVars(); v++ {
		r := s.reason[v]
		if r == CRefUndef {
			continue
		}
		if s.Value(cnf.Var(v)) == cnf.Undef {
			t.Fatalf("unassigned var %d has a reason", v)
		}
		if s.db.deleted(r) {
			t.Fatalf("reason of var %d is a deleted clause", v)
		}
		found := false
		for _, l := range s.db.lits(r) {
			if l.Var() == cnf.Var(v) && s.LitValue(l) == cnf.True {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("reason clause %v of var %d lacks its implied literal", s.db.lits(r), v)
		}
	}
}

// TestArenaGCLockedReasonsSurvive stops a search mid-proof (so the trail
// carries decision levels and locked antecedents), forces a compaction,
// and checks that every reason CRef was patched to a live clause that
// still justifies its assignment — then finishes the proof.
func TestArenaGCLockedReasonsSurvive(t *testing.T) {
	f := gen.Pigeonhole(7)
	s := FromFormula(f, Options{MaxConflicts: 60, MaxLearnts: 10})
	if st := s.Solve(); st != Unknown {
		t.Fatalf("expected Unknown under the tiny budget, got %v", st)
	}
	if s.decisionLevel() == 0 || len(s.trail) == 0 {
		t.Fatal("test needs a live mid-search trail to be meaningful")
	}
	locked := 0
	for v := 1; v <= s.NumVars(); v++ {
		if s.reason[v] != CRefUndef {
			locked++
		}
	}
	if locked == 0 {
		t.Fatal("test needs locked antecedents to be meaningful")
	}
	before := s.Stats.ArenaGCs
	s.garbageCollect()
	if s.Stats.ArenaGCs != before+1 {
		t.Fatal("garbageCollect did not run")
	}
	if s.db.wasted != 0 {
		t.Fatalf("wasted = %d after compaction", s.db.wasted)
	}
	checkReasonConsistency(t, s)
	checkWatchConsistency(t, s)
	// The solver must finish the proof correctly on the compacted arena.
	s.opts.MaxConflicts = 0
	if st := s.Solve(); st != Unsat {
		t.Fatalf("PHP(7) must be UNSAT after GC, got %v", st)
	}
}

// TestArenaGCWatchersConsistentAfterRelocation deletes heavily (tiny
// learnt cap), compacts, and checks the rebuilt watch lists: relocated
// CRefs, lazily-dropped tombstones gone, binary watchers intact.
func TestArenaGCWatchersConsistentAfterRelocation(t *testing.T) {
	f := gen.Random3SATHard(150, 9)
	s := FromFormula(f, Options{MaxLearnts: 50})
	s.Solve()
	if s.Stats.Deleted == 0 {
		t.Fatal("test needs clause deletions to be meaningful")
	}
	s.garbageCollect()
	checkWatchConsistency(t, s)
	checkReasonConsistency(t, s)
	// No tombstone survives compaction.
	for c := 0; c < len(s.db.arena); c += clsHdrWords + s.db.size(CRef(c)) {
		if s.db.deleted(CRef(c)) {
			t.Fatalf("tombstoned clause at %d survived compaction", c)
		}
	}
}

// TestArenaGCSolveAgreesWithBruteForce interleaves budget-bounded solving
// with forced compactions on small random instances and checks the final
// verdict (and model) against exhaustive enumeration.
func TestArenaGCSolveAgreesWithBruteForce(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		nv := 5 + int(seed%5)
		f := gen.RandomKSAT(nv, nv*4, 3, seed)
		want, _ := cnf.BruteForce(f)
		s := FromFormula(f, Options{MaxLearnts: 2, MaxConflicts: 5})
		var st Status
		for round := 0; ; round++ {
			st = s.Solve()
			if st != Unknown {
				break
			}
			s.garbageCollect() // compact between every budget slice
			checkWatchConsistency(t, s)
			if round > 10000 {
				t.Fatalf("seed %d: solver livelocked", seed)
			}
		}
		if (st == Sat) != want {
			t.Fatalf("seed %d: solver=%v brute=%v", seed, st, want)
		}
		if st == Sat && !s.Model().Satisfies(f) {
			t.Fatalf("seed %d: model does not satisfy formula", seed)
		}
	}
}

// TestArenaGCTriggersOrganically checks that maybeGC fires on its own on
// deletion-heavy and NoLearning (temp-clause churn) workloads, and that
// verdicts stay correct.
func TestArenaGCTriggersOrganically(t *testing.T) {
	s := FromFormula(gen.Random3SATHard(150, 9), Options{MaxLearnts: 50})
	if st := s.Solve(); st == Unknown {
		t.Fatal("instance must be decided")
	}
	if s.Stats.ArenaGCs == 0 {
		t.Fatal("deletion-heavy run never compacted the arena")
	}
	checkWatchConsistency(t, s)

	nl := FromFormula(gen.Pigeonhole(6), Options{NoLearning: true})
	if nl.Solve() != Unsat {
		t.Fatal("PHP(6) must be UNSAT")
	}
	if nl.Stats.ArenaGCs == 0 {
		t.Fatal("NoLearning temp-clause churn never compacted the arena")
	}
}

// TestArenaBinaryWatcherNoArenaReads is a structural guard for the
// binary fast path: a chain of implications through binary clauses must
// propagate fully, with reasons attached, without any long watchers.
func TestArenaBinaryWatcherChain(t *testing.T) {
	const n = 50
	f := cnf.New(n)
	f.AddDIMACS(1)
	for v := 1; v < n; v++ {
		f.AddDIMACS(-v, v+1) // v → v+1
	}
	s := FromFormula(f, Options{})
	if s.Solve() != Sat {
		t.Fatal("implication chain is SAT")
	}
	m := s.Model()
	for v := cnf.Var(1); v <= n; v++ {
		if m.Value(v) != cnf.True {
			t.Fatalf("var %d must be implied true", v)
		}
	}
	for li := range s.watches.ref {
		if len(s.watches.list(li)) != 0 {
			t.Fatalf("binary-only formula grew long watchers for lit %v", cnf.Lit(li))
		}
	}
}
