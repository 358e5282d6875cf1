package solver

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/cnf"
	"repro/internal/dpll"
	"repro/internal/gen"
)

// Property: on arbitrary small random formulas the CDCL solver and the
// independent DPLL implementation agree, and Sat models verify.
func TestQuickSolverMatchesDPLL(t *testing.T) {
	f := func(seed int64, nv8 uint8, ratio8 uint8) bool {
		nv := 3 + int(nv8%8)
		m := nv * (2 + int(ratio8%4))
		formula := gen.RandomKSAT(nv, m, 3, seed)
		s := FromFormula(formula, Options{Seed: seed})
		st := s.Solve()
		ref := dpll.Solve(formula, dpll.Options{})
		if (st == Sat) != ref.Sat {
			return false
		}
		if st == Sat {
			return VerifyModel(formula, s.Model()) == nil
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: an UNSAT answer with proof logging always carries a
// verifiable refutation.
func TestQuickProofsAlwaysVerify(t *testing.T) {
	f := func(seed int64) bool {
		nv := 5 + int(uint64(seed)%5)
		formula := gen.RandomKSAT(nv, nv*6, 3, seed) // overconstrained
		s := FromFormula(formula, Options{LogProof: true})
		if s.Solve() != Unsat {
			return true // satisfiable instances vacuously pass
		}
		return VerifyUnsat(formula, s.Proof()) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Property: the variable heap pops variables in non-increasing activity
// order when activities are fixed.
func TestQuickHeapOrder(t *testing.T) {
	f := func(seed int64, n8 uint8) bool {
		n := 1 + int(n8%32)
		rng := rand.New(rand.NewSource(seed))
		act := make([]float64, n+1)
		h := newVarHeap(&act)
		for v := 1; v <= n; v++ {
			act[v] = rng.Float64()
			h.push(cnf.Var(v))
		}
		var popped []float64
		for !h.empty() {
			popped = append(popped, act[h.pop()])
		}
		if len(popped) != n {
			return false
		}
		return sort.SliceIsSorted(popped, func(i, j int) bool { return popped[i] > popped[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: heap update after an activity bump keeps pop order correct.
func TestQuickHeapUpdate(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 16
		act := make([]float64, n+1)
		h := newVarHeap(&act)
		for v := 1; v <= n; v++ {
			act[v] = rng.Float64()
			h.push(cnf.Var(v))
		}
		// Bump a few random variables.
		for k := 0; k < 5; k++ {
			v := cnf.Var(rng.Intn(n) + 1)
			act[v] += rng.Float64() * 2
			h.update(v)
		}
		prev := 1e18
		for !h.empty() {
			a := act[h.pop()]
			if a > prev {
				return false
			}
			prev = a
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: after an activity bump, increased (sift up only — what
// bumpVar calls) leaves the heap exactly as update (sift up, then down —
// what it called before) does: two heaps driven through the same random
// push/bump/pop sequence hold the same array after every operation and
// pop in the same order, ties and rescaled activities included.
func TestQuickHeapIncreasedMatchesUpdate(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 24
		actA, actB := make([]float64, n+1), make([]float64, n+1)
		a, b := newVarHeap(&actA), newVarHeap(&actB)
		for op := 0; op < 400; op++ {
			v := cnf.Var(rng.Intn(n) + 1)
			switch rng.Intn(4) {
			case 0:
				a.push(v)
				b.push(v)
			case 1:
				if a.empty() {
					continue
				}
				if a.pop() != b.pop() {
					return false
				}
			default:
				// Coarse increments make ties common; the occasional
				// rescale mirrors bumpVar's overflow guard.
				inc := float64(rng.Intn(3))
				actA[v] += inc
				actB[v] += inc
				if rng.Intn(50) == 0 {
					for i := range actA {
						actA[i] *= 1e-100
						actB[i] *= 1e-100
					}
				}
				a.increased(v)
				b.update(v)
			}
			if !slices.Equal(a.heap, b.heap) || !slices.Equal(a.indices, b.indices) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: incremental solving is consistent — adding the negation of a
// Sat model as a blocking clause never yields the same model again, and
// enumeration terminates with Unsat.
func TestQuickModelEnumerationTerminates(t *testing.T) {
	f := func(seed int64) bool {
		formula := gen.RandomKSAT(6, 14, 3, seed)
		s := FromFormula(formula, Options{})
		seen := map[string]bool{}
		for round := 0; round < 80; round++ {
			st := s.Solve()
			if st == Unsat {
				return true
			}
			m := s.Model()
			key := ""
			block := make(cnf.Clause, 0, 6)
			for v := cnf.Var(1); v <= 6; v++ {
				key += m.Value(v).String()
				block = append(block, cnf.NewLit(v, m.Value(v) == cnf.True))
			}
			if seen[key] {
				return false // duplicate model: blocking failed
			}
			seen[key] = true
			if !s.AddClause(block) {
				return true
			}
		}
		return false // 2^6 = 64 < 80 rounds must have terminated
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: solving is deterministic for a fixed seed.
func TestQuickDeterminism(t *testing.T) {
	f := func(seed int64) bool {
		formula := gen.Random3SATHard(25, seed)
		s1 := FromFormula(formula, Options{Seed: 42, RandomFreq: 0.1, Restart: RestartLuby, RestartBase: 10})
		s2 := FromFormula(formula, Options{Seed: 42, RandomFreq: 0.1, Restart: RestartLuby, RestartBase: 10})
		st1, st2 := s1.Solve(), s2.Solve()
		return st1 == st2 && s1.Stats.Decisions == s2.Stats.Decisions &&
			s1.Stats.Conflicts == s2.Stats.Conflicts
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
