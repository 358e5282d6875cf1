// Benchmark harness regenerating every experiment in DESIGN.md's index
// (E1–E23), one benchmark per paper table/figure/claim. Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark reports the quantities the paper argues about via
// b.ReportMetric (conflicts, decisions, ratios…), so the "shape" of each
// claim — who wins and by roughly what factor — is visible directly in
// the benchmark output. EXPERIMENTS.md records paper-claim vs measured.
package sateda

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/atpg"
	"repro/internal/bmc"
	"repro/internal/cec"
	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/cover"
	"repro/internal/delay"
	"repro/internal/dpll"
	"repro/internal/euf"
	"repro/internal/funcvec"
	"repro/internal/gen"
	"repro/internal/hwsat"
	"repro/internal/localsearch"
	"repro/internal/portfolio"
	"repro/internal/preprocess"
	"repro/internal/reclearn"
	"repro/internal/redund"
	"repro/internal/route"
	"repro/internal/session"
	"repro/internal/solver"
	"repro/internal/xtalk"
)

// E1 (Table 1): CNF encoding throughput over a large circuit.
func BenchmarkE01_EncodeCircuit(b *testing.B) {
	c := circuit.ArrayMultiplier(8)
	b.ResetTimer()
	var clauses int
	for i := 0; i < b.N; i++ {
		e := circuit.Encode(c)
		clauses = e.F.NumClauses()
	}
	b.ReportMetric(float64(clauses), "clauses")
}

// E2 (Figure 1): property objective solving on the example circuit.
func BenchmarkE02_Figure1Property(b *testing.B) {
	c := circuit.Figure1()
	for i := 0; i < b.N; i++ {
		f, _ := circuit.EncodeProperty(c, c.Outputs[0], true)
		s := solver.FromFormula(f, solver.Options{})
		if s.Solve() != solver.Sat {
			b.Fatal("Figure 1 objective must be SAT")
		}
	}
}

// E3 (Figure 2): the generic template instantiated as DPLL vs GRASP.
func BenchmarkE03_SearchConfigs(b *testing.B) {
	php := gen.Pigeonhole(6)
	rnd := gen.Random3SATHard(60, 11)
	run := func(name string, f *cnf.Formula, solve func(*cnf.Formula) int64) {
		b.Run(name, func(b *testing.B) {
			var effort int64
			for i := 0; i < b.N; i++ {
				effort = solve(f)
			}
			b.ReportMetric(float64(effort), "decisions")
		})
	}
	cdcl := func(f *cnf.Formula) int64 {
		s := solver.FromFormula(f, solver.Options{})
		s.Solve()
		return s.Stats.Decisions
	}
	classic := func(f *cnf.Formula) int64 {
		res := dpll.Solve(f, dpll.Options{})
		return res.Stats.Decisions
	}
	run("php6/dpll", php, classic)
	run("php6/grasp", php, cdcl)
	run("rand60/dpll", rnd, classic)
	run("rand60/grasp", rnd, cdcl)
}

// E4 (§4.1 items 1-2): non-chronological backtracking + clause recording
// vs chronological search on structured UNSAT instances.
func BenchmarkE04_Backjumping(b *testing.B) {
	php := gen.Pigeonhole(7)
	cases := map[string]solver.Options{
		"chronological":    {Chronological: true},
		"nonchronological": {},
		"chrono+nolearn":   {Chronological: true, NoLearning: true},
	}
	for name, opt := range cases {
		b.Run(name, func(b *testing.B) {
			var st solver.Stats
			for i := 0; i < b.N; i++ {
				s := solver.FromFormula(php, opt)
				if s.Solve() != solver.Unsat {
					b.Fatal("PHP(7) must be UNSAT")
				}
				st = s.Stats
			}
			b.ReportMetric(float64(st.Conflicts), "conflicts")
			b.ReportMetric(float64(st.MaxJump), "maxjump")
		})
	}
}

// E5 (§4.1 item 3): relevance-based learning vs activity deletion vs
// keeping everything.
func BenchmarkE05_Relevance(b *testing.B) {
	f := gen.Random3SATHard(100, 3)
	cases := map[string]solver.Options{
		"activity":   {MaxLearnts: 200},
		"relevance3": {Deletion: solver.DeleteByRelevance, RelevanceBound: 3, MaxLearnts: 200},
		"keepall":    {Deletion: solver.DeleteNever},
		"nolearning": {NoLearning: true, MaxConflicts: 200000},
	}
	for name, opt := range cases {
		b.Run(name, func(b *testing.B) {
			var st solver.Stats
			for i := 0; i < b.N; i++ {
				s := solver.FromFormula(f, opt)
				s.Solve()
				st = s.Stats
			}
			b.ReportMetric(float64(st.Conflicts), "conflicts")
			b.ReportMetric(float64(st.MaxLearnts), "peakDB")
		})
	}
}

// E6 (Figure 3): conflict analysis learns (¬x1 ∨ ¬w ∨ y3).
func BenchmarkE06_Figure3Conflict(b *testing.B) {
	c := circuit.Figure3()
	for i := 0; i < b.N; i++ {
		f := circuit.Encode(c)
		s := solver.FromFormula(f.F, solver.Options{})
		// Objective w=1 ∧ y3=0 (the figure's setting); x1 then cannot
		// be 1: the solver must prove the conflict.
		w := f.Lit(c.NodeByName("w"), true)
		y3 := f.Lit(c.NodeByName("y3"), false)
		x1 := f.Lit(c.NodeByName("x1"), true)
		if s.Solve(w, y3, x1) != solver.Unsat {
			b.Fatal("x1=1,w=1,y3=0 must conflict")
		}
	}
}

// E7 (Figure 4 / §4.2): recursive learning on the CNF of untestable
// (redundant) fault ATPG instances — the UNSAT class it targets. The
// paper's claim: recorded implicates decide such instances with little
// or no search. Workload: every redundant fault of a circuit family
// with injected redundancies.
func BenchmarkE07_RecLearnRedundant(b *testing.B) {
	// A circuit with several redundant cones: ORs fed by AND(a, NOT a).
	build := func() *circuit.Circuit {
		c := circuit.New()
		var feeds []circuit.NodeID
		for k := 0; k < 3; k++ {
			a := c.AddInput(fmt.Sprintf("a%d", k))
			na := c.AddGate(circuit.Not, fmt.Sprintf("na%d", k), a)
			feeds = append(feeds, c.AddGate(circuit.And, fmt.Sprintf("dead%d", k), a, na))
		}
		x := c.AddInput("x")
		z := c.AddGate(circuit.Or, "z", append(feeds, x)...)
		c.MarkOutput(z)
		return c
	}
	c := build()
	var miters []*cnf.Formula
	for _, flt := range atpg.FaultUniverse(c) {
		m := atpg.BuildMiter(c, flt)
		if !m.Detectable {
			continue
		}
		f, _ := circuit.EncodeProperty(m.C, m.Diff, true)
		s := solver.FromFormula(f.Clone(), solver.Options{})
		if s.Solve() == solver.Unsat {
			miters = append(miters, f)
		}
	}
	b.Run("cdcl-only", func(b *testing.B) {
		var conflicts int64
		for i := 0; i < b.N; i++ {
			conflicts = 0
			for _, f := range miters {
				s := solver.FromFormula(f, solver.Options{})
				if s.Solve() != solver.Unsat {
					b.Fatal("redundant miter must be UNSAT")
				}
				conflicts += s.Stats.Conflicts
			}
		}
		b.ReportMetric(float64(conflicts), "conflicts")
		b.ReportMetric(0, "provedByLearning")
	})
	b.Run("reclearn-depth1", func(b *testing.B) {
		var conflicts int64
		var proved int
		for i := 0; i < b.N; i++ {
			conflicts, proved = 0, 0
			for _, f := range miters {
				res := reclearn.Learn(f, nil, reclearn.Options{MaxDepth: 1, MaxWidth: 4})
				if res.Unsat {
					proved++ // decided without any search
					continue
				}
				strengthened, _ := reclearn.Strengthen(f, reclearn.Options{MaxDepth: 1, MaxWidth: 4})
				s := solver.FromFormula(strengthened, solver.Options{})
				if s.Solve() != solver.Unsat {
					b.Fatal("redundant miter must be UNSAT")
				}
				conflicts += s.Stats.Conflicts
			}
		}
		b.ReportMetric(float64(conflicts), "conflicts")
		b.ReportMetric(float64(proved), "provedByLearning")
	})
}

// E10 (§6): equivalency reasoning on equivalence-rich formulas — a hard
// random 3-SAT instance whose variables were duplicated and tied with
// equivalence clauses. Substitution collapses the doubled variable
// space back to the original.
func BenchmarkE10_EquivReasoning(b *testing.B) {
	f := gen.DuplicateWithEquivalences(gen.Random3SATHard(70, 5), 5)
	for _, on := range []bool{false, true} {
		name := "off"
		if on {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			var conflicts int64
			var substituted int
			for i := 0; i < b.N; i++ {
				work := f
				if on {
					res := preprocess.Simplify(f, preprocess.Options{Equivalences: true})
					substituted = res.Stats.VarsSubstituted
					if res.Decided != cnf.Undef {
						conflicts = 0
						continue
					}
					work = res.Formula
				}
				s := solver.FromFormula(work, solver.Options{})
				if s.Solve() == solver.Unknown {
					b.Fatal("must decide")
				}
				conflicts = s.Stats.Conflicts
			}
			b.ReportMetric(float64(conflicts), "conflicts")
			b.ReportMetric(float64(substituted), "varsRemoved")
		})
	}
}

// E11 (§6): randomization + restarts on satisfiable instances.
func BenchmarkE11_Restarts(b *testing.B) {
	f := gen.Queens(20)
	cases := map[string]solver.Options{
		"none":        {Restart: solver.RestartNone, Decide: solver.DecideOrdered},
		"luby+random": {Restart: solver.RestartLuby, RestartBase: 50, RandomFreq: 0.05, Seed: 3, Decide: solver.DecideOrdered},
	}
	for name, opt := range cases {
		b.Run(name, func(b *testing.B) {
			var st solver.Stats
			for i := 0; i < b.N; i++ {
				s := solver.FromFormula(f, opt)
				if s.Solve() != solver.Sat {
					b.Fatal("queens(20) is SAT")
				}
				st = s.Stats
			}
			b.ReportMetric(float64(st.Decisions), "decisions")
			b.ReportMetric(float64(st.Restarts), "restarts")
		})
	}
}

// E12 (§6): incremental vs from-scratch SAT across an ATPG fault list.
// The incremental arm is the resident-session driver on a private
// Manager.
func BenchmarkE12_Incremental(b *testing.B) {
	c := circuit.RippleCarryAdder(6)
	for _, incr := range []bool{false, true} {
		name := "scratch"
		if incr {
			name = "incremental"
		}
		b.Run(name, func(b *testing.B) {
			m := session.NewManager(session.Config{})
			defer m.Close()
			var conflicts int64
			for i := 0; i < b.N; i++ {
				var rep *atpg.Report
				if incr {
					var err error
					if rep, err = atpg.GenerateTestsSession(context.Background(), m, c, atpg.Options{Seed: 1}); err != nil {
						b.Fatal(err)
					}
				} else {
					rep = atpg.GenerateTests(c, atpg.Options{Seed: 1})
				}
				conflicts = rep.Conflicts
			}
			b.ReportMetric(float64(conflicts), "conflicts")
		})
	}
}

// E13 (§6): the reconfigurable-hardware deduction model — cycles vs
// sequential BCP steps. Circuit CNF is the deduction-heavy class the
// hardware papers target: each wave implies a whole logic level.
func BenchmarkE13_HardwareSAT(b *testing.B) {
	workloads := map[string]*cnf.Formula{}
	mult := circuit.ArrayMultiplier(4)
	enc := circuit.Encode(mult)
	mf := enc.F.Clone()
	// Objective on the product's top bit forces wide deduction.
	mf.Add(cnf.PosLit(enc.VarOf[mult.Outputs[len(mult.Outputs)-2]]))
	workloads["multiplier"] = mf
	// Implication tree: a unit root implying a complete binary tree of
	// depth 10 — each wave latches an entire level in parallel (the
	// "specific class of instances" the hardware papers accelerate).
	tree := cnf.New(1 << 11)
	tree.AddDIMACS(1)
	for p := 1; p < 1<<10; p++ {
		tree.AddDIMACS(-p, 2*p)
		tree.AddDIMACS(-p, 2*p+1)
	}
	workloads["impltree"] = tree
	for name, f := range workloads {
		b.Run(name, func(b *testing.B) {
			var st hwsat.Stats
			for i := 0; i < b.N; i++ {
				res := hwsat.Solve(f, 0)
				if res.Unknown {
					b.Fatal("must decide")
				}
				st = res.Stats
			}
			b.ReportMetric(float64(st.Cycles), "hwCycles")
			b.ReportMetric(float64(hwsat.SoftwareBCPSteps(st)), "swSteps")
			b.ReportMetric(st.Parallelism(), "parallelism")
		})
	}
}

// E14 (§4): local search vs backtrack search; only the latter proves
// UNSAT.
func BenchmarkE14_LocalVsBacktrack(b *testing.B) {
	sat := gen.RandomKSAT(100, 380, 3, 4) // below threshold: satisfiable
	unsat := gen.Pigeonhole(6)
	b.Run("walksat/sat", func(b *testing.B) {
		found := 0
		for i := 0; i < b.N; i++ {
			res := localsearch.Solve(sat, localsearch.Options{Algorithm: localsearch.WalkSAT, Seed: int64(i), MaxFlips: 100000})
			if res.Sat {
				found++
			}
		}
		b.ReportMetric(float64(found)/float64(b.N), "solveRate")
	})
	b.Run("cdcl/sat", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := solver.FromFormula(sat, solver.Options{})
			if s.Solve() != solver.Sat {
				b.Fatal("expected SAT")
			}
		}
		b.ReportMetric(1, "solveRate")
	})
	b.Run("walksat/unsat", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res := localsearch.Solve(unsat, localsearch.Options{Algorithm: localsearch.WalkSAT, Seed: int64(i), MaxFlips: 2000, MaxTries: 2})
			if res.Sat {
				b.Fatal("impossible: PHP(6) is UNSAT")
			}
		}
		b.ReportMetric(0, "proofRate") // local search can never prove it
	})
	b.Run("cdcl/unsat", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := solver.FromFormula(unsat, solver.Options{})
			if s.Solve() != solver.Unsat {
				b.Fatal("expected UNSAT")
			}
		}
		b.ReportMetric(1, "proofRate")
	})
}

// E15 (§3 ATPG): the full test-generation flow per circuit family.
func BenchmarkE15_ATPG(b *testing.B) {
	families := []struct {
		name string
		c    *circuit.Circuit
	}{
		{"c17", circuit.C17()},
		{"adder8", circuit.RippleCarryAdder(8)},
		{"mult4", circuit.ArrayMultiplier(4)},
		{"dag", circuit.RandomDAG(10, 60, 3, 8)},
		{"alu6", circuit.ALU(6)},
	}
	for _, fam := range families {
		b.Run(fam.name, func(b *testing.B) {
			var rep *atpg.Report
			for i := 0; i < b.N; i++ {
				rep = atpg.GenerateTests(fam.c, atpg.Options{FaultSim: true, Compact: true, Seed: 7})
			}
			b.ReportMetric(100*rep.Coverage(), "%coverage")
			b.ReportMetric(float64(len(rep.Tests)), "tests")
			b.ReportMetric(float64(rep.UncompactedTests), "testsPreCompact")
			b.ReportMetric(float64(rep.SATCalls), "satCalls")
			b.ReportMetric(float64(rep.Redundant), "redundant")
		})
	}
}

// E16 (§3 CEC): strashed monolithic miter vs internal-equivalence
// engine on structurally similar pairs.
func BenchmarkE16_CEC(b *testing.B) {
	a := circuit.RippleCarryAdder(8)
	// A structurally different but functionally identical adder (carry
	// logic in NAND-NAND form).
	alt := circuit.RippleCarryAdderNAND(8)
	modes := map[string]cec.Options{
		"plain":    {},
		"internal": {Internal: true, Seed: 3},
	}
	for name, mode := range modes {
		b.Run(name, func(b *testing.B) {
			var res *cec.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = cec.Check(a, alt, mode)
				if err != nil || !res.Equivalent {
					b.Fatal("adders must be equivalent")
				}
			}
			b.ReportMetric(float64(res.Conflicts), "conflicts")
			b.ReportMetric(float64(res.SATCalls), "satCalls")
		})
	}
}

// E17 (§3 BMC): counterexample search depth scaling and induction.
func BenchmarkE17_BMC(b *testing.B) {
	b.Run("counter-depth24", func(b *testing.B) {
		q := bmc.NewCounter(5, 24)
		var res *bmc.Result
		for i := 0; i < b.N; i++ {
			res = bmc.Check(q, 30, bmc.Options{})
		}
		if !res.Violated || res.Depth != 24 {
			b.Fatal("depth must be 24")
		}
		b.ReportMetric(float64(res.SATCalls), "satCalls")
		b.ReportMetric(float64(res.Conflicts), "conflicts")
	})
	b.Run("ring-induction", func(b *testing.B) {
		q := bmc.NewRingOneHot(8)
		for i := 0; i < b.N; i++ {
			proved, decided := bmc.Induction(q, 1, bmc.Options{})
			if !proved || !decided {
				b.Fatal("induction must prove the ring invariant")
			}
		}
	})
}

// E18 (§3 delay): sensitizable vs topological delay; false paths in
// carry-skip adders.
func BenchmarkE18_Delay(b *testing.B) {
	cases := []struct {
		name string
		c    *circuit.Circuit
	}{
		{"ripple8", circuit.RippleCarryAdder(8)},
		{"carryskip8", circuit.CarrySkipAdder(8, 4)},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			var res *delay.Result
			for i := 0; i < b.N; i++ {
				res = delay.ComputeDelay(tc.c, delay.Options{MaxPaths: 5000})
			}
			b.ReportMetric(float64(res.Topological), "topoDelay")
			b.ReportMetric(float64(res.Sensitizable), "sensDelay")
			b.ReportMetric(float64(res.FalsePaths), "falsePaths")
		})
	}
}

// E19 (§3 covering): SAT optimizer vs branch and bound.
func BenchmarkE19_Covering(b *testing.B) {
	p := cover.RandomUnate(25, 18, 3, 6)
	b.Run("sat", func(b *testing.B) {
		var res *cover.Result
		for i := 0; i < b.N; i++ {
			res = cover.SolveSAT(p, cover.Options{})
		}
		b.ReportMetric(float64(res.Cost), "optimum")
		b.ReportMetric(float64(res.SATCalls), "satCalls")
	})
	b.Run("bb", func(b *testing.B) {
		var res *cover.Result
		for i := 0; i < b.N; i++ {
			res = cover.SolveBB(p, cover.Options{})
		}
		b.ReportMetric(float64(res.Cost), "optimum")
		b.ReportMetric(float64(res.Nodes), "nodes")
	})
	b.Run("sat+reduce", func(b *testing.B) {
		var res *cover.Result
		for i := 0; i < b.N; i++ {
			res = cover.SolveSAT(p, cover.Options{Reduce: true})
		}
		b.ReportMetric(float64(res.Cost), "optimum")
		b.ReportMetric(float64(res.SATCalls), "satCalls")
	})
}

// E20 (§3 primes): minimum-size prime implicant computation.
func BenchmarkE20_PrimeImplicants(b *testing.B) {
	f := gen.RandomKSAT(12, 24, 3, 13)
	var res *cover.PrimeResult
	for i := 0; i < b.N; i++ {
		res = cover.MinPrimeImplicant(f, cover.Options{})
	}
	if res.Found {
		b.ReportMetric(float64(len(res.Implicant)), "size")
		b.ReportMetric(float64(res.SATCalls), "satCalls")
	}
}

// E21 (§3 routing): channel min-track search and grid routability.
func BenchmarkE21_Routing(b *testing.B) {
	b.Run("channel", func(b *testing.B) {
		ch := route.RandomChannel(12, 16, 4, 2)
		var tracks int
		for i := 0; i < b.N; i++ {
			tracks, _, _ = route.MinTracks(ch, 14, route.Options{})
		}
		b.ReportMetric(float64(tracks), "minTracks")
		b.ReportMetric(float64(ch.Density()), "density")
	})
	b.Run("grid", func(b *testing.B) {
		routable := 0
		total := 0
		for i := 0; i < b.N; i++ {
			for seed := int64(0); seed < 8; seed++ {
				g := route.RandomGrid(7, 7, 4, seed)
				res := route.RouteGrid(g, route.Options{MaxRoutesPerNet: 16})
				total++
				if res.Routable {
					routable++
				}
			}
		}
		b.ReportMetric(float64(routable)/float64(total), "routeRate")
	})
}

// E22 (§3 redundancy): identification and removal with CEC validation.
func BenchmarkE22_Redundancy(b *testing.B) {
	build := func() *circuit.Circuit {
		c := circuit.New()
		a := c.AddInput("a")
		x := c.AddInput("b")
		na := c.AddGate(circuit.Not, "na", a)
		dead := c.AddGate(circuit.And, "dead", a, na)
		or1 := c.AddGate(circuit.Or, "or1", x, dead)
		or2 := c.AddGate(circuit.Or, "or2", or1, dead)
		c.MarkOutput(or2)
		return c
	}
	var removed int
	var after int
	for i := 0; i < b.N; i++ {
		c := build()
		opt, rep := redund.Remove(c, redund.Options{})
		removed = len(rep.RemovedFaults)
		after = opt.NumGates()
	}
	b.ReportMetric(float64(removed), "removedFaults")
	b.ReportMetric(float64(after), "gatesAfter")
}

// E23 (§3 functional vectors): constrained distinct-vector generation.
func BenchmarkE23_FuncVec(b *testing.B) {
	var n int
	for i := 0; i < b.N; i++ {
		m := funcvec.NewModel()
		a := m.Word("a", 8)
		c := m.Word("b", 8)
		m.RequireLessEq(m.Add(a, c), m.Const(200, 9))
		m.RequireLess(m.Const(50, 8), a)
		vecs := m.Generate(32, funcvec.Options{Seed: int64(i)})
		n = len(vecs)
	}
	b.ReportMetric(float64(n), "vectors")
}

// ---- Ablation benches for design choices beyond the paper's headline
// ---- claims (DESIGN.md §5).

// E24: learned-clause minimization ablation.
func BenchmarkE24_ClauseMinimization(b *testing.B) {
	f := gen.Pigeonhole(7)
	for _, off := range []bool{false, true} {
		name := "minimize"
		if off {
			name = "nominimize"
		}
		b.Run(name, func(b *testing.B) {
			var st solver.Stats
			for i := 0; i < b.N; i++ {
				s := solver.FromFormula(f, solver.Options{NoMinimize: off})
				if s.Solve() != solver.Unsat {
					b.Fatal("PHP(7) must be UNSAT")
				}
				st = s.Stats
			}
			b.ReportMetric(float64(st.Conflicts), "conflicts")
			b.ReportMetric(float64(st.MinimizedLit), "litsRemoved")
		})
	}
}

// E25: phase-saving ablation on satisfiable structured instances.
func BenchmarkE25_PhaseSaving(b *testing.B) {
	f := gen.Queens(16)
	for _, off := range []bool{false, true} {
		name := "phasesaving"
		if off {
			name = "nophase"
		}
		b.Run(name, func(b *testing.B) {
			var st solver.Stats
			for i := 0; i < b.N; i++ {
				s := solver.FromFormula(f, solver.Options{NoPhaseSaving: off, Restart: solver.RestartLuby, RestartBase: 50})
				if s.Solve() != solver.Sat {
					b.Fatal("queens(16) is SAT")
				}
				st = s.Stats
			}
			b.ReportMetric(float64(st.Decisions), "decisions")
		})
	}
}

// E26 (§3 crosstalk): pessimistic vs true aligned noise on a one-hot
// decoded aggressor bus — the claim of "true" crosstalk analysis.
func BenchmarkE26_Crosstalk(b *testing.B) {
	c := circuit.New()
	vin := c.AddInput("vin")
	s0 := c.AddInput("s0")
	s1 := c.AddInput("s1")
	s2 := c.AddInput("s2")
	sel := []circuit.NodeID{s0, s1, s2}
	var aggr []circuit.NodeID
	for i := 0; i < 8; i++ {
		ins := make([]circuit.NodeID, 3)
		for bit := 0; bit < 3; bit++ {
			if i&(1<<bit) != 0 {
				ins[bit] = sel[bit]
			} else {
				name := fmt.Sprintf("n%d_%d", i, bit)
				if id := c.NodeByName(name); id != circuit.NoNode {
					ins[bit] = id
				} else {
					ins[bit] = c.AddGate(circuit.Not, name, sel[bit])
				}
			}
		}
		aggr = append(aggr, c.AddGate(circuit.And, fmt.Sprintf("y%d", i), ins...))
	}
	victim := c.AddGate(circuit.Buf, "victim", vin)
	for _, g := range aggr {
		c.MarkOutput(g)
	}
	c.MarkOutput(victim)
	cp := xtalk.Coupling{Victim: victim, Aggressors: aggr}
	var res *xtalk.Result
	for i := 0; i < b.N; i++ {
		res = xtalk.MaxAlignedNoise(c, cp, xtalk.Options{})
	}
	b.ReportMetric(float64(res.Pessimistic), "pessimistic")
	b.ReportMetric(float64(res.MaxNoise), "trueNoise")
	b.ReportMetric(float64(res.SATCalls), "satCalls")
}

// E27 (§3 processor verification): EUF pipeline-equivalence query size
// and time as the forwarding network deepens.
func BenchmarkE27_EUFPipeline(b *testing.B) {
	for _, stages := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("stages%d", stages), func(b *testing.B) {
			var vars, clauses int
			for i := 0; i < b.N; i++ {
				bd := euf.NewBuilder()
				op := bd.Var("op")
				src2 := bd.Var("src2")
				regVal := bd.Var("regVal")
				operand := regVal
				var sides []euf.Prop
				for st := 0; st < stages; st++ {
					hazard := euf.Eq(bd.Var(fmt.Sprintf("rs%d", st)), bd.Var(fmt.Sprintf("rd%d", st)))
					fwd := bd.Var(fmt.Sprintf("fwd%d", st))
					operand = bd.Ite(hazard, fwd, operand)
					sides = append(sides, euf.Implies(hazard, euf.Eq(fwd, regVal)))
				}
				impl := bd.Apply("alu", op, operand, src2)
				spec := bd.Apply("alu", op, regVal, src2)
				ok, res := bd.Valid(euf.Implies(euf.And(sides...), euf.Eq(impl, spec)), euf.Options{})
				if !ok {
					b.Fatal("pipeline must verify")
				}
				vars, clauses = res.Vars, res.Clauses
			}
			b.ReportMetric(float64(vars), "satVars")
			b.ReportMetric(float64(clauses), "satClauses")
		})
	}
}

// E28: proof-logging overhead and independent verification cost.
func BenchmarkE28_ProofLogging(b *testing.B) {
	f := gen.Pigeonhole(6)
	b.Run("solve", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := solver.FromFormula(f, solver.Options{})
			if s.Solve() != solver.Unsat {
				b.Fatal("UNSAT expected")
			}
		}
	})
	b.Run("solve+log", func(b *testing.B) {
		var lemmas int
		for i := 0; i < b.N; i++ {
			proof := &solver.Proof{}
			s := solver.FromFormula(f, solver.Options{Proof: proof})
			if s.Solve() != solver.Unsat {
				b.Fatal("UNSAT expected")
			}
			lemmas = proof.NumLemmas()
		}
		b.ReportMetric(float64(lemmas), "lemmas")
	})
	b.Run("solve+log+verify", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			proof := &solver.Proof{}
			s := solver.FromFormula(f, solver.Options{Proof: proof})
			if s.Solve() != solver.Unsat {
				b.Fatal("UNSAT expected")
			}
			if err := solver.VerifyUnsat(f, proof); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// E29 (§3 sequential testing): test-sequence generation by time-frame
// expansion — detection depth and SAT effort per fault class.
func BenchmarkE29_SequentialATPG(b *testing.B) {
	cases := []struct {
		name  string
		q     *bmc.Sequential
		fault func(*bmc.Sequential) atpg.Fault
	}{
		{"counter-nextstate", bmc.NewCounter(4, 5), func(q *bmc.Sequential) atpg.Fault {
			return atpg.Fault{Node: q.Comb.NodeByName("d1"), Pin: -1, StuckAt: false}
		}},
		{"ring-token", bmc.NewRingOneHot(5), func(q *bmc.Sequential) atpg.Fault {
			return atpg.Fault{Node: q.Comb.NodeByName("d0"), Pin: -1, StuckAt: false}
		}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			var res atpg.SeqResult
			for i := 0; i < b.N; i++ {
				res = atpg.TestSequentialFault(tc.q, tc.fault(tc.q), atpg.SeqOptions{MaxDepth: 16})
			}
			if res.Status != atpg.Detected {
				b.Fatalf("fault must be sequence-detectable: %+v", res)
			}
			b.ReportMetric(float64(res.Depth), "depth")
			b.ReportMetric(float64(res.SATCalls), "satCalls")
		})
	}
}

// E30 (Preprocess() of Figure 2): full preprocessing pipeline ablation —
// clause/variable reductions and end-to-end solve effect.
func BenchmarkE30_Preprocessing(b *testing.B) {
	f := gen.DuplicateWithEquivalences(gen.Random3SATHard(60, 21), 21)
	b.Run("solve-only", func(b *testing.B) {
		var st solver.Stats
		for i := 0; i < b.N; i++ {
			s := solver.FromFormula(f, solver.Options{})
			if s.Solve() == solver.Unknown {
				b.Fatal("must decide")
			}
			st = s.Stats
		}
		b.ReportMetric(float64(st.Conflicts), "conflicts")
		b.ReportMetric(float64(f.NumClauses()), "clauses")
	})
	b.Run("preprocess+solve", func(b *testing.B) {
		var st solver.Stats
		var clauses, elim, subst int
		for i := 0; i < b.N; i++ {
			res := preprocess.Simplify(f, preprocess.All())
			clauses = res.Formula.NumClauses()
			elim = res.Stats.VarsEliminated
			subst = res.Stats.VarsSubstituted
			if res.Decided != cnf.Undef {
				continue
			}
			s := solver.FromFormula(res.Formula, solver.Options{})
			if s.Solve() == solver.Unknown {
				b.Fatal("must decide")
			}
			st = s.Stats
		}
		b.ReportMetric(float64(st.Conflicts), "conflicts")
		b.ReportMetric(float64(clauses), "clauses")
		b.ReportMetric(float64(elim+subst), "varsRemoved")
	})
}

// E31, E33 and E36 below cover this repo's own subsystems beyond the
// paper's claims: the parallel portfolio, its adaptive supervisor and
// in-search inprocessing. The clause arena, the serving layer and
// sessions are measured by BenchmarkSolverTier and satbench (bench/).
//
// E31 (portfolio, this repo's parallel subsystem): wall-clock of 1, 2
// and 4 diversified workers racing with clause sharing. Two instance
// classes: a hard satisfiable random 3-SAT instance where the base
// configuration is unlucky and recipe diversity pays even when workers
// time-slice a single core (the §6 variance argument), and a pigeonhole
// proof where sharing feeds every worker the same lemmas (UNSAT
// cooperation; on a single-CPU host the extra workers cost more than
// they save here — the metric to watch across BENCH captures as cores
// grow).
func BenchmarkE31_Portfolio(b *testing.B) {
	instances := []struct {
		name string
		f    *cnf.Formula
	}{
		{"rand220sat", gen.Random3SATHard(220, 5)},
		{"php8", gen.Pigeonhole(8)},
	}
	for _, inst := range instances {
		for _, workers := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/workers%d", inst.name, workers), func(b *testing.B) {
				var res *portfolio.Result
				for i := 0; i < b.N; i++ {
					res = portfolio.Solve(context.Background(), inst.f,
						portfolio.Options{Workers: workers})
					if res.Status == solver.Unknown {
						b.Fatal("portfolio must decide")
					}
				}
				var conflicts int64
				for _, w := range res.Workers {
					conflicts += w.Stats.Conflicts
				}
				b.ReportMetric(float64(conflicts), "conflicts")
				b.ReportMetric(float64(res.SharedExported), "sharedClauses")
				b.ReportMetric(float64(res.Winner), "winnerID")
			})
		}
	}
}

// E33 (adaptive portfolio scheduling): wall-clock of the static recipe
// table vs the adaptive supervisor on a 4-worker portfolio over the
// instance mix the paper's EDA framing implies is heterogeneous: hard
// random 3-SAT in both phases, a structured UNSAT proof (pigeonhole)
// and a CEC miter (ripple-carry vs carry-skip adder). Adaptive
// scheduling kills recipes whose progress score (conflicts/s ×
// learnt-LBD quality) falls clearly behind the leader once a grace
// period passes. Two adaptive variants: sched=adaptive respawns killed
// slots from the explore/exploit schedule (fresh lottery tickets, the
// multi-core configuration); sched=adaptive-retire (MaxRespawns < 0)
// only retires them, shrinking the portfolio toward the leaders — on a
// CPU-starved host the win comes from the cycles the losers stop
// burning. Instances faster than the grace period run bit-identically
// to static. Compare per instance across BENCH captures: adaptive must
// be wall-clock no worse everywhere and strictly better where the
// static table has a systematic loser.
func BenchmarkE33_Adaptive(b *testing.B) {
	adderMiter := func(bits int) *cnf.Formula {
		m, out, err := cec.BuildMiter(circuit.RippleCarryAdder(bits), circuit.CarrySkipAdder(bits, 4))
		if err != nil {
			b.Fatal(err)
		}
		f, _ := circuit.EncodeProperty(m, out, true)
		return f
	}
	instances := []struct {
		name string
		f    *cnf.Formula
	}{
		{"rand220sat", gen.Random3SATHard(220, 5)},
		{"rand150unsat", gen.Random3SATHard(150, 9)},
		{"php8", gen.Pigeonhole(8)},
		{"miter-adder12", adderMiter(12)},
	}
	for _, inst := range instances {
		for _, sched := range []struct {
			name        string
			adaptive    bool
			maxRespawns int
		}{
			{"static", false, 0},
			{"adaptive", true, 0},
			{"adaptive-retire", true, -1},
		} {
			b.Run(fmt.Sprintf("%s/sched=%s", inst.name, sched.name), func(b *testing.B) {
				var res *portfolio.Result
				for i := 0; i < b.N; i++ {
					res = portfolio.Solve(context.Background(), inst.f, portfolio.Options{
						Workers:     4,
						Adaptive:    sched.adaptive,
						Grace:       100 * time.Millisecond,
						MaxRespawns: sched.maxRespawns,
					})
					if res.Status == solver.Unknown {
						b.Fatal("portfolio must decide")
					}
				}
				b.ReportMetric(float64(res.Kills), "kills")
				b.ReportMetric(float64(res.Respawns), "respawns")
				b.ReportMetric(float64(res.Pool.Admitted), "poolAdmitted")
				b.ReportMetric(float64(res.Pool.Evicted), "poolEvicted")
				b.ReportMetric(float64(res.Winner), "winnerID")
			})
		}
	}
}

// E36 (in-search inprocessing + learned warm start): conflicts to
// solution, propagation throughput and allocation behavior with the
// restart-boundary inprocessing engine and the recipe-memory warm start
// off/on, crossed.
//
// The inprocess=on cells run clause vivification and on-the-fly
// subsumption at every restart boundary (InprocessEvery: 1) — the
// configuration that pays on this suite's proof-shaped instances;
// bounded variable elimination is covered by the soak and fuzz
// harnesses but stays off here because resolvent blow-up lengthens
// pigeonhole proofs. The warm=on cells replay a WarmProfile(16)
// harvested from a completed prior solve of the same instance — exactly
// what the serve layer's recipe memory records on a win and reinjects
// into the next same-class job.
//
// Instance families are chosen so conflicts-to-solution is a robust
// measure: an unsatisfiable random 3-SAT family (5 seeds, summed —
// refutation cost cannot get lucky the way satisfiable near-threshold
// search can), the php8 pigeonhole proof, and the E33 CEC adder miter
// at 16 bits. Conflict counts are deterministic per cell, so they diff
// cleanly across revisions.
func BenchmarkE36_Inprocess(b *testing.B) {
	adderMiter := func(bits int) *cnf.Formula {
		m, out, err := cec.BuildMiter(circuit.RippleCarryAdder(bits), circuit.CarrySkipAdder(bits, 4))
		if err != nil {
			b.Fatal(err)
		}
		f, _ := circuit.EncodeProperty(m, out, true)
		return f
	}
	var rand220 []*cnf.Formula
	for seed := int64(1); seed <= 5; seed++ {
		rand220 = append(rand220, gen.RandomKSAT(220, 1320, 3, seed))
	}
	families := []struct {
		name string
		fs   []*cnf.Formula
	}{
		{"rand220uns", rand220},
		{"php8", []*cnf.Formula{gen.Pigeonhole(8)}},
		{"miter-adder16", []*cnf.Formula{adderMiter(16)}},
	}
	inprocOpts := solver.Options{Inprocess: true, InprocessEvery: 1}
	for _, fam := range families {
		// The warm profile the serve recipe memory would hold for this
		// class: the top-activity variables and saved phases of a
		// completed prior solve.
		warms := make([][]solver.WarmVar, len(fam.fs))
		for i, f := range fam.fs {
			prior := solver.FromFormula(f, solver.Options{})
			prior.Solve()
			warms[i] = prior.WarmProfile(16)
		}
		for _, v := range []struct {
			inproc, warm bool
		}{{false, false}, {true, false}, {false, true}, {true, true}} {
			name := fmt.Sprintf("%s/inprocess=%v/warm=%v", fam.name, v.inproc, v.warm)
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				var props, conflicts, vivified, subsumed int64
				for i := 0; i < b.N; i++ {
					conflicts, vivified, subsumed = 0, 0, 0
					for j, f := range fam.fs {
						opts := solver.Options{}
						if v.inproc {
							opts = inprocOpts
						}
						if v.warm {
							opts.WarmStart = warms[j]
						}
						s := solver.FromFormula(f, opts)
						if s.Solve() == solver.Unknown {
							b.Fatal("must decide")
						}
						props += s.Stats.Propagations
						conflicts += s.Stats.Conflicts
						vivified += s.Stats.Vivified
						subsumed += s.Stats.Subsumed
					}
				}
				b.ReportMetric(float64(conflicts), "conflicts")
				b.ReportMetric(float64(props)/b.Elapsed().Seconds(), "props/s")
				b.ReportMetric(float64(vivified), "vivified")
				b.ReportMetric(float64(subsumed), "subsumed")
			})
		}
	}
}
