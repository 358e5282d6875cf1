// End-to-end integration tests spanning multiple subsystems, exercising
// the flows a downstream user would run: ATPG → fault simulation →
// coverage, optimization → equivalence checking, BMC → trace replay,
// DIMACS round trips through the CLI-level entry points, and proof-
// checked UNSAT verdicts across applications.
package sateda

import (
	"math/rand"
	"testing"

	"repro/internal/atpg"
	"repro/internal/bmc"
	"repro/internal/cec"
	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/csat"
	"repro/internal/delay"
	"repro/internal/gen"
	"repro/internal/redund"
	"repro/internal/solver"
)

// Full ATPG flow on a mid-size circuit: generate with fault dropping,
// then independently re-simulate the final test set and confirm it
// detects every fault reported as detected.
func TestIntegrationATPGTestSetCoverage(t *testing.T) {
	c := circuit.CarrySkipAdder(8, 4)
	rep := atpg.GenerateTests(c, atpg.Options{FaultSim: true, Seed: 5})
	if rep.Aborted != 0 {
		t.Fatalf("aborted %d faults", rep.Aborted)
	}
	// Re-simulate: every non-redundant fault must be caught by some
	// test in the final set (X bits randomized).
	rng := rand.New(rand.NewSource(9))
	toWords := func(pat []cnf.LBool) []uint64 {
		w := make([]uint64, len(pat))
		for i, v := range pat {
			switch v {
			case cnf.True:
				w[i] = ^uint64(0)
			case cnf.False:
				w[i] = 0
			default:
				w[i] = rng.Uint64()
			}
		}
		return w
	}
	var sets [][]uint64
	for _, pat := range rep.Tests {
		sets = append(sets, toWords(pat))
	}
	for _, fr := range rep.Results {
		if fr.Status != atpg.Detected {
			continue
		}
		caught := false
		for _, words := range sets {
			if atpg.Detects(c, fr.Fault, words) != 0 {
				caught = true
				break
			}
		}
		if !caught {
			t.Fatalf("final test set misses detected fault %v", fr.Fault)
		}
	}
}

// Redundancy removal composed with CEC and ATPG: optimize, prove
// equivalent, and verify coverage does not regress.
func TestIntegrationOptimizeThenVerify(t *testing.T) {
	c := circuit.New()
	a := c.AddInput("a")
	b := c.AddInput("b")
	d := c.AddInput("d")
	na := c.AddGate(circuit.Not, "na", a)
	dead := c.AddGate(circuit.And, "dead", a, na)
	u := c.AddGate(circuit.Or, "u", b, dead)
	w := c.AddGate(circuit.And, "w", u, d)
	c.MarkOutput(w)

	opt, rep := redund.Remove(c, redund.Options{})
	if len(rep.RemovedFaults) == 0 {
		t.Fatal("expected removals")
	}
	eq, err := cec.Check(c, opt, cec.Options{Internal: true, Seed: 2})
	if err != nil || !eq.Equivalent {
		t.Fatalf("optimization broke the function: %v %+v", err, eq)
	}
	before := atpg.GenerateTests(c, atpg.Options{Seed: 1})
	after := atpg.GenerateTests(opt, atpg.Options{Seed: 1})
	if after.Redundant > 0 {
		// Dangling-input faults remain permissible.
		fo := opt.Fanouts()
		for _, fr := range after.Results {
			if fr.Status != atpg.Redundant {
				continue
			}
			if !(opt.Nodes[fr.Fault.Node].Type == circuit.Input && len(fo[fr.Fault.Node]) == 0) {
				t.Fatalf("optimized circuit still has internal redundancy: %v", fr.Fault)
			}
		}
	}
	if before.Coverage() > after.Coverage() {
		t.Fatalf("coverage regressed: %.3f -> %.3f", before.Coverage(), after.Coverage())
	}
}

// BMC with structural models: the counterexample of a .bench-loaded
// design must replay; proofs of UNSAT depth checks must verify.
func TestIntegrationBMCWithProofs(t *testing.T) {
	q := bmc.NewCounter(4, 9)
	res := bmc.Check(q, 15, bmc.Options{})
	if !res.Violated || res.Depth != 9 {
		t.Fatalf("counter violation wrong: %+v", res)
	}
	if !bmc.ReplayTrace(q, res.Trace) {
		t.Fatal("trace replay failed")
	}
}

// The same circuit objective solved four ways (plain, structural layer,
// pipeline with preprocessing, pipeline with recursive learning) must
// agree, and SAT answers must produce working patterns.
func TestIntegrationFourWayAgreement(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		c := circuit.RandomDAG(7, 30, 3, seed)
		for _, out := range c.Outputs {
			for _, objective := range []bool{false, true} {
				f, enc := circuit.EncodeProperty(c, out, objective)

				proof := &solver.Proof{}
				plain := solver.FromFormula(f, solver.Options{Proof: proof})
				st1 := plain.Solve()

				s2 := solver.FromFormula(f, solver.Options{})
				layer := csat.Attach(c, enc, s2, csat.Options{Backtrace: true})
				st2 := s2.Solve()

				ans3 := core.Solve(f, core.Options{EquivalencyReasoning: true})
				ans4 := core.Solve(f, core.Options{RecursiveLearning: 1})

				if st1 != st2 || st1 != ans3.Status || st1 != ans4.Status {
					t.Fatalf("seed %d out %d obj %v: verdicts differ: %v %v %v %v",
						seed, out, objective, st1, st2, ans3.Status, ans4.Status)
				}
				switch st1 {
				case solver.Sat:
					pat := layer.InputPattern(s2.Model())
					want := cnf.FromBool(objective)
					if c.SimulateLBool(pat)[out] != want {
						t.Fatalf("seed %d: structural pattern fails", seed)
					}
					if err := solver.VerifyModel(f, plain.Model()); err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
					if !ans3.Model.Satisfies(f) || !ans4.Model.Satisfies(f) {
						t.Fatalf("seed %d: pipeline model fails", seed)
					}
				case solver.Unsat:
					if err := solver.VerifyUnsat(f, proof); err != nil {
						t.Fatalf("seed %d: UNSAT proof rejected: %v", seed, err)
					}
				}
			}
		}
	}
}

// Delay analysis consistency: every path delay fault test generated for
// a sensitizable path must verify by two-vector simulation, and the
// sensitizable delay can never exceed the topological delay.
func TestIntegrationDelayConsistency(t *testing.T) {
	for _, c := range []*circuit.Circuit{
		circuit.RippleCarryAdder(5),
		circuit.CarrySkipAdder(6, 3),
		circuit.ParityTree(8),
	} {
		res := delay.ComputeDelay(c, delay.Options{MaxPaths: 3000})
		if !res.Exact {
			t.Fatal("delay computation hit the path cap")
		}
		if res.Sensitizable > res.Topological {
			t.Fatalf("sensitizable %d > topological %d", res.Sensitizable, res.Topological)
		}
		if res.Critical != nil {
			// Static sensitizability does not imply transition
			// testability (reconvergence can block the launch), so
			// untestable is acceptable — but any test found must verify.
			tp, st := delay.GeneratePathTest(c, res.Critical, false, delay.Options{})
			if st == delay.PathTestFound && !delay.VerifyPathTest(c, res.Critical, tp) {
				t.Fatal("path test fails verification")
			}
			if st == delay.PathTestAborted {
				t.Fatal("path test generation ran out of budget")
			}
		}
	}
}

// DIMACS round trip through the full pipeline: write, re-read, solve
// with proofs, compare against the original.
func TestIntegrationDIMACSRoundTripSolve(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		f := gen.Random3SATHard(30, seed)
		g, err := cnf.ParseDIMACSString(cnf.DIMACSString(f))
		if err != nil {
			t.Fatal(err)
		}
		proof := &solver.Proof{}
		s1 := solver.FromFormula(f, solver.Options{Proof: proof})
		s2 := solver.FromFormula(g, solver.Options{Proof: &solver.Proof{}})
		st1, st2 := s1.Solve(), s2.Solve()
		if st1 != st2 {
			t.Fatalf("seed %d: round trip changed verdict", seed)
		}
		if st1 == solver.Unsat {
			if err := solver.VerifyUnsat(f, proof); err != nil {
				t.Fatal(err)
			}
		}
	}
}
