package csat

import (
	"testing"

	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/solver"
)

// TestTable2Thresholds reproduces the paper's Table 2 exactly.
func TestTable2Thresholds(t *testing.T) {
	cases := []struct {
		typ    circuit.GateType
		fanin  int
		u0, u1 int
	}{
		{circuit.And, 3, 1, 3},
		{circuit.Nand, 3, 3, 1},
		{circuit.Or, 3, 3, 1},
		{circuit.Nor, 3, 1, 3},
		{circuit.Xor, 2, 2, 2},
		{circuit.Xnor, 2, 2, 2},
		{circuit.Not, 1, 1, 1},
		{circuit.Buf, 1, 1, 1},
		{circuit.Input, 0, 0, 0},
	}
	for _, tc := range cases {
		u0, u1 := Thresholds(tc.typ, tc.fanin)
		if u0 != tc.u0 || u1 != tc.u1 {
			t.Errorf("%v/%d: u0=%d u1=%d, want %d %d", tc.typ, tc.fanin, u0, u1, tc.u0, tc.u1)
		}
		// The paper notes u0,u1 ∈ {1, |FI|} for simple gates.
		if tc.typ != circuit.Input && tc.fanin > 0 {
			if !(u0 == 1 || u0 == tc.fanin) || !(u1 == 1 || u1 == tc.fanin) {
				t.Errorf("%v: thresholds outside {1,|FI|}", tc.typ)
			}
		}
	}
}

// TestTable3Counters reproduces the paper's Table 3 exactly.
func TestTable3Counters(t *testing.T) {
	cases := []struct {
		typ    circuit.GateType
		w      bool
		d0, d1 int
	}{
		{circuit.And, false, 1, 0},
		{circuit.And, true, 0, 1},
		{circuit.Nand, false, 0, 1},
		{circuit.Nand, true, 1, 0},
		{circuit.Or, false, 1, 0},
		{circuit.Or, true, 0, 1},
		{circuit.Nor, false, 0, 1},
		{circuit.Nor, true, 1, 0},
		{circuit.Xor, false, 1, 1},
		{circuit.Xor, true, 1, 1},
		{circuit.Xnor, false, 1, 1},
		{circuit.Xnor, true, 1, 1},
		{circuit.Not, false, 0, 1},
		{circuit.Not, true, 1, 0},
		{circuit.Buf, false, 1, 0},
		{circuit.Buf, true, 0, 1},
	}
	for _, tc := range cases {
		d0, d1 := CounterDeltas(tc.typ, tc.w)
		if d0 != tc.d0 || d1 != tc.d1 {
			t.Errorf("%v w=%v: got (%d,%d), want (%d,%d)", tc.typ, tc.w, d0, d1, tc.d0, tc.d1)
		}
	}
}

func solveWithLayer(t *testing.T, c *circuit.Circuit, objective circuit.NodeID, value bool, opts Options) (*solver.Solver, *Layer, solver.Status) {
	t.Helper()
	f, enc := circuit.EncodeProperty(c, objective, value)
	s := solver.FromFormula(f, solver.Options{})
	l := Attach(c, enc, s, opts)
	return s, l, s.Solve()
}

func TestEarlyStopGivesPartialPattern(t *testing.T) {
	// A wide OR: justifying output=1 needs only one input; the classic
	// overspecification case for plain CNF SAT.
	c := circuit.New()
	ins := make([]circuit.NodeID, 8)
	for i := range ins {
		ins[i] = c.AddInput("")
	}
	g := c.AddGate(circuit.Or, "g", ins...)
	c.MarkOutput(g)

	s, l, st := solveWithLayer(t, c, g, true, Options{Backtrace: true})
	if st != solver.Sat {
		t.Fatalf("expected SAT, got %v", st)
	}
	if !s.PartialModel() {
		t.Fatal("expected a partial model via empty-frontier stop")
	}
	pat := l.InputPattern(s.Model())
	spec := CountSpecified(pat)
	if spec >= 8 {
		t.Fatalf("pattern fully specified (%d/8): overspecification not removed", spec)
	}
	// The partial pattern must still establish the objective under
	// three-valued simulation.
	vals := c.SimulateLBool(pat)
	if vals[g] != cnf.True {
		t.Fatalf("partial pattern does not establish objective: %v", pat)
	}
}

func TestLayerOnObjectiveZero(t *testing.T) {
	// AND of 6: output 0 justified by a single 0 input.
	c := circuit.New()
	ins := make([]circuit.NodeID, 6)
	for i := range ins {
		ins[i] = c.AddInput("")
	}
	g := c.AddGate(circuit.And, "g", ins...)
	c.MarkOutput(g)
	s, l, st := solveWithLayer(t, c, g, false, Options{Backtrace: true})
	if st != solver.Sat {
		t.Fatal("expected SAT")
	}
	pat := l.InputPattern(s.Model())
	if CountSpecified(pat) > 2 {
		t.Fatalf("AND=0 should need ~1 specified input, got %d: %v", CountSpecified(pat), pat)
	}
	if c.SimulateLBool(pat)[g] != cnf.False {
		t.Fatal("pattern does not establish objective")
	}
}

func TestUnsatObjectiveStillUnsat(t *testing.T) {
	// x AND NOT(x) = 1 is unsatisfiable; the layer must not break
	// completeness.
	c := circuit.New()
	a := c.AddInput("a")
	n := c.AddGate(circuit.Not, "n", a)
	g := c.AddGate(circuit.And, "g", a, n)
	c.MarkOutput(g)
	_, _, st := solveWithLayer(t, c, g, true, Options{Backtrace: true})
	if st != solver.Unsat {
		t.Fatalf("expected UNSAT, got %v", st)
	}
}

func TestXorRequiresAllInputs(t *testing.T) {
	c := circuit.New()
	a := c.AddInput("a")
	b := c.AddInput("b")
	g := c.AddGate(circuit.Xor, "g", a, b)
	c.MarkOutput(g)
	s, l, st := solveWithLayer(t, c, g, true, Options{Backtrace: true})
	if st != solver.Sat {
		t.Fatal("expected SAT")
	}
	pat := l.InputPattern(s.Model())
	if CountSpecified(pat) != 2 {
		t.Fatalf("XOR objective requires both inputs specified, got %v", pat)
	}
	if c.SimulateLBool(pat)[g] != cnf.True {
		t.Fatal("XOR pattern wrong")
	}
}

func TestFrontierLifecycle(t *testing.T) {
	c := circuit.New()
	a := c.AddInput("a")
	b := c.AddInput("b")
	g := c.AddGate(circuit.And, "g", a, b)
	c.MarkOutput(g)
	enc := circuit.Encode(c)
	s := solver.FromFormula(enc.F, solver.Options{})
	l := Attach(c, enc, s, Options{})
	// Nothing assigned: frontier empty.
	if len(l.Frontier()) != 0 {
		t.Fatalf("frontier should start empty: %v", l.Frontier())
	}
	// Simulate assignment of g=0 via Assign.
	l.Assign([]cnf.Lit{cnf.NegLit(enc.VarOf[g])})
	if len(l.Frontier()) != 1 || l.Frontier()[0] != g {
		t.Fatalf("g should be unjustified: %v", l.Frontier())
	}
	// Assign a=0: justifies g=0.
	l.Assign([]cnf.Lit{cnf.NegLit(enc.VarOf[a])})
	if len(l.Frontier()) != 0 {
		t.Fatalf("g should be justified: %v", l.Frontier())
	}
	// Retract a: unjustified again.
	l.Unassign([]cnf.Lit{cnf.NegLit(enc.VarOf[a])})
	if len(l.Frontier()) != 1 {
		t.Fatal("retraction should re-open the frontier")
	}
	// Retract g.
	l.Unassign([]cnf.Lit{cnf.NegLit(enc.VarOf[g])})
	if len(l.Frontier()) != 0 {
		t.Fatal("frontier should be empty after retracting g")
	}
}

func TestSideClausesBlockEarlyStop(t *testing.T) {
	// OR of 4 with objective 1; a side clause forces input 3 to be true.
	// Without side-clause awareness the layer could stop before
	// satisfying it.
	c := circuit.New()
	ins := make([]circuit.NodeID, 4)
	for i := range ins {
		ins[i] = c.AddInput("")
	}
	g := c.AddGate(circuit.Or, "g", ins...)
	c.MarkOutput(g)
	f, enc := circuit.EncodeProperty(c, g, true)
	side := cnf.Clause{cnf.PosLit(enc.VarOf[ins[3]])}
	f.AddClause(side.Clone())
	s := solver.FromFormula(f, solver.Options{})
	l := Attach(c, enc, s, Options{Backtrace: true})
	l.AddSideClause(side)
	if s.Solve() != solver.Sat {
		t.Fatal("expected SAT")
	}
	m := s.Model()
	if m.LitValue(side[0]) != cnf.True {
		t.Fatal("side clause violated by early stop")
	}
}

// checkCounters recomputes the Table 3 counters and the justification
// frontier from the layer's node values and compares them with the
// running ones the solver's hand-overs maintained.
func checkCounters(t *testing.T, name string, l *Layer) {
	t.Helper()
	frontier := 0
	for id, n := range l.c.Nodes {
		var want [2]int32
		for _, f := range n.Fanin {
			if v := l.value[f]; v != cnf.Undef {
				d0, d1 := CounterDeltas(n.Type, v == cnf.True)
				want[0] += int32(d0)
				want[1] += int32(d1)
			}
		}
		if got := [2]int32{l.t[0][id], l.t[1][id]}; got != want {
			t.Fatalf("%s node %d: counters %v, recomputed %v", name, id, got, want)
		}
		if l.needsJustification(circuit.NodeID(id)) {
			frontier++
		}
	}
	if l.nFrontier != frontier {
		t.Fatalf("%s: nFrontier %d, recomputed %d", name, l.nFrontier, frontier)
	}
}

func TestPartialPatternsOnGeneratedCircuits(t *testing.T) {
	// Across circuit families: every SAT answer's partial pattern must
	// establish the objective under three-valued simulation (soundness
	// of the empty-frontier termination).
	families := map[string]*circuit.Circuit{
		"c17":   circuit.C17(),
		"adder": circuit.RippleCarryAdder(4),
		"mux":   circuit.MuxTree(3),
		"rand1": circuit.RandomDAG(6, 25, 3, 1),
		"rand2": circuit.RandomDAG(8, 40, 3, 2),
	}
	for name, c := range families {
		for _, out := range c.Outputs {
			for _, objective := range []bool{false, true} {
				f, enc := circuit.EncodeProperty(c, out, objective)
				s := solver.FromFormula(f, solver.Options{})
				l := Attach(c, enc, s, Options{Backtrace: true})
				st := s.Solve()
				checkCounters(t, name, l)
				// Cross-check with a plain solver.
				plain := solver.FromFormula(f, solver.Options{})
				if pst := plain.Solve(); pst != st {
					t.Fatalf("%s out=%v obj=%v: layer %v plain %v", name, out, objective, st, pst)
				}
				if st != solver.Sat {
					continue
				}
				pat := l.InputPattern(s.Model())
				vals := c.SimulateLBool(pat)
				want := cnf.FromBool(objective)
				if vals[out] != want {
					t.Fatalf("%s out=%v obj=%v: partial pattern fails (got %v)", name, out, objective, vals[out])
				}
			}
		}
	}
}

func TestBacktraceSuggestsInputs(t *testing.T) {
	c := circuit.New()
	a := c.AddInput("a")
	b := c.AddInput("b")
	d := c.AddInput("d")
	g1 := c.AddGate(circuit.And, "g1", a, b)
	g2 := c.AddGate(circuit.Or, "g2", g1, d)
	c.MarkOutput(g2)
	enc := circuit.Encode(c)
	s := solver.FromFormula(enc.F, solver.Options{})
	l := Attach(c, enc, s, Options{Backtrace: true})
	// Assign g2=1 manually: frontier = {g2}; backtrace should suggest
	// the first unassigned fanin path: g1 → a with value true.
	l.Assign([]cnf.Lit{cnf.PosLit(enc.VarOf[g2])})
	sug := l.Suggest()
	if sug == cnf.LitUndef {
		t.Fatal("expected a suggestion")
	}
	if sug.Var() != enc.VarOf[a] || sug.IsNeg() {
		t.Fatalf("expected suggestion a=1, got %v", sug)
	}
}

func TestSuggestDisabledWithoutOption(t *testing.T) {
	c := circuit.C17()
	enc := circuit.Encode(c)
	s := solver.FromFormula(enc.F, solver.Options{})
	l := Attach(c, enc, s, Options{})
	l.Assign([]cnf.Lit{cnf.PosLit(enc.VarOf[c.Outputs[0]])})
	if l.Suggest() != cnf.LitUndef {
		t.Fatal("Suggest should be silent without Backtrace option")
	}
}

func TestMultipleBacktracing(t *testing.T) {
	// Two frontier nodes both needing input "a": multiple backtracing
	// should aggregate the votes and still yield sound results.
	c := circuit.New()
	a := c.AddInput("a")
	b := c.AddInput("b")
	d := c.AddInput("d")
	g1 := c.AddGate(circuit.And, "g1", a, b)
	g2 := c.AddGate(circuit.And, "g2", a, d)
	top := c.AddGate(circuit.And, "top", g1, g2)
	c.MarkOutput(top)
	s, l, st := solveWithLayer(t, c, top, true, Options{Multiple: true})
	if st != solver.Sat {
		t.Fatal("expected SAT")
	}
	pat := l.InputPattern(s.Model())
	if c.SimulateLBool(pat)[top] != cnf.True {
		t.Fatal("pattern fails objective")
	}
}

func TestMultipleBacktracingAgreesWithSimple(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		c := circuit.RandomDAG(6, 25, 3, seed)
		for _, out := range c.Outputs {
			for _, objective := range []bool{false, true} {
				f1, e1 := circuit.EncodeProperty(c, out, objective)
				s1 := solver.FromFormula(f1, solver.Options{})
				Attach(c, e1, s1, Options{Backtrace: true})
				f2, e2 := circuit.EncodeProperty(c, out, objective)
				s2 := solver.FromFormula(f2, solver.Options{})
				l2 := Attach(c, e2, s2, Options{Multiple: true})
				st1, st2 := s1.Solve(), s2.Solve()
				if st1 != st2 {
					t.Fatalf("seed %d: simple %v vs multiple %v", seed, st1, st2)
				}
				if st2 == solver.Sat {
					pat := l2.InputPattern(s2.Model())
					want := cnf.FromBool(objective)
					if c.SimulateLBool(pat)[out] != want {
						t.Fatalf("seed %d: multiple-backtrace pattern fails", seed)
					}
				}
			}
		}
	}
}
