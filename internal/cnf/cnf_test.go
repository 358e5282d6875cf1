package cnf

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestLitEncoding(t *testing.T) {
	cases := []struct {
		v   Var
		neg bool
	}{{1, false}, {1, true}, {7, false}, {7, true}, {1000, true}}
	for _, c := range cases {
		l := NewLit(c.v, c.neg)
		if l.Var() != c.v {
			t.Errorf("NewLit(%d,%v).Var() = %d", c.v, c.neg, l.Var())
		}
		if l.IsNeg() != c.neg {
			t.Errorf("NewLit(%d,%v).IsNeg() = %v", c.v, c.neg, l.IsNeg())
		}
		if l.Not().Not() != l {
			t.Errorf("double negation of %v changed literal", l)
		}
		if l.Not().Var() != c.v {
			t.Errorf("negation changed variable")
		}
		if l.Not().IsNeg() == c.neg {
			t.Errorf("negation did not flip sign")
		}
	}
}

func TestLitDIMACSRoundTrip(t *testing.T) {
	f := func(n int16) bool {
		if n == 0 {
			return FromDIMACS(0) == LitUndef
		}
		return FromDIMACS(int(n)).DIMACS() == int(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPosNegLit(t *testing.T) {
	if PosLit(3).DIMACS() != 3 || NegLit(3).DIMACS() != -3 {
		t.Fatalf("PosLit/NegLit broken: %v %v", PosLit(3), NegLit(3))
	}
	if PosLit(3).Not() != NegLit(3) {
		t.Fatal("Not(PosLit) != NegLit")
	}
}

func TestClauseNormalize(t *testing.T) {
	c := NewClause(3, -1, 3, 2)
	n, taut := c.Normalize()
	if taut {
		t.Fatal("unexpected tautology")
	}
	if len(n) != 3 {
		t.Fatalf("dedup failed: %v", n)
	}
	c2 := NewClause(1, -1, 2)
	if _, taut := c2.Normalize(); !taut {
		t.Fatal("tautology not detected")
	}
	if !c2.IsTautology() {
		t.Fatal("IsTautology false for (1 -1 2)")
	}
	one := NewClause(5)
	if n, taut := one.Normalize(); taut || len(n) != 1 {
		t.Fatal("singleton normalize broken")
	}
	// Normalize leaves its receiver alone; NormalizeInPlace gives the
	// same answer inside the receiver's own array, the empty clause
	// included.
	if c[0] != PosLit(3) || c[1] != NegLit(1) {
		t.Fatalf("Normalize reordered its receiver: %v", c)
	}
	in, taut := c.NormalizeInPlace()
	if taut || len(in) != len(n) || &in[0] != &c[0] {
		t.Fatalf("NormalizeInPlace: %v (tautology %v), want %v in place", in, taut, n)
	}
	for i := range n {
		if in[i] != n[i] {
			t.Fatalf("NormalizeInPlace: %v, Normalize: %v", in, n)
		}
	}
	if e, taut := (Clause{}).NormalizeInPlace(); taut || len(e) != 0 {
		t.Fatal("empty clause normalize broken")
	}
}

func TestClauseSubsumes(t *testing.T) {
	a := NewClause(1, -2)
	b := NewClause(1, -2, 3)
	if !a.Subsumes(b) {
		t.Fatal("(1 -2) should subsume (1 -2 3)")
	}
	if b.Subsumes(a) {
		t.Fatal("(1 -2 3) should not subsume (1 -2)")
	}
	if !a.Subsumes(a) {
		t.Fatal("clause should subsume itself")
	}
	// Signature filter must never rule out a true subsumption.
	if a.Signature()&^b.Signature() != 0 {
		t.Fatal("signature filter contradicts subsumption")
	}
	c := NewClause(1, 2)
	if c.Subsumes(NewClause(-1, 2, 3)) {
		t.Fatal("polarity must matter for subsumption")
	}
}

func TestFormulaBasics(t *testing.T) {
	f := New(2)
	f.AddDIMACS(1, -2)
	f.AddDIMACS(2, 3) // grows variable count
	if f.NumVars() != 3 {
		t.Fatalf("NumVars = %d, want 3", f.NumVars())
	}
	if f.NumClauses() != 2 {
		t.Fatalf("NumClauses = %d", f.NumClauses())
	}
	v := f.NewVar()
	if v != 4 {
		t.Fatalf("NewVar = %d, want 4", v)
	}
	vs := f.NewVars(3)
	if len(vs) != 3 || vs[2] != 7 {
		t.Fatalf("NewVars = %v", vs)
	}
	if f.NumLiterals() != 4 {
		t.Fatalf("NumLiterals = %d", f.NumLiterals())
	}
	g := f.Clone()
	g.Clauses[0][0] = NegLit(9)
	if f.Clauses[0][0] == NegLit(9) {
		t.Fatal("Clone did not deep-copy clauses")
	}
}

func TestAssignmentEval(t *testing.T) {
	f := New(3)
	f.AddDIMACS(1, 2)
	f.AddDIMACS(-1, 3)
	a := NewAssignment(3)
	if a.Eval(f) != Undef {
		t.Fatal("empty assignment should be Undef")
	}
	a.Assign(PosLit(1))
	if a.EvalClause(f.Clauses[0]) != True {
		t.Fatal("clause 0 should be satisfied")
	}
	if a.Eval(f) != Undef {
		t.Fatal("formula should still be Undef")
	}
	a.Assign(NegLit(3))
	if a.Eval(f) != False {
		t.Fatal("formula should be falsified")
	}
	a.Assign(PosLit(3))
	if !a.Satisfies(f) {
		t.Fatal("formula should be satisfied")
	}
	if a.NumAssigned() != 2 {
		t.Fatalf("NumAssigned = %d", a.NumAssigned())
	}
	a.Unassign(PosLit(1))
	if a.Value(1) != Undef {
		t.Fatal("Unassign failed")
	}
}

func TestLBool(t *testing.T) {
	if True.Not() != False || False.Not() != True || Undef.Not() != Undef {
		t.Fatal("LBool.Not broken")
	}
	if True.String() != "1" || False.String() != "0" || Undef.String() != "X" {
		t.Fatal("LBool.String broken")
	}
	if FromBool(true) != True || FromBool(false) != False {
		t.Fatal("FromBool broken")
	}
}

func TestDIMACSRoundTrip(t *testing.T) {
	f := New(4)
	f.AddDIMACS(1, -2, 3)
	f.AddDIMACS(-4)
	f.AddDIMACS(2, 4)
	s := DIMACSString(f)
	g, err := ParseDIMACSString(s)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVars() != 4 || g.NumClauses() != 3 {
		t.Fatalf("round trip lost structure: %d vars %d clauses", g.NumVars(), g.NumClauses())
	}
	for i := range f.Clauses {
		if f.Clauses[i].String() != g.Clauses[i].String() {
			t.Fatalf("clause %d mismatch: %v vs %v", i, f.Clauses[i], g.Clauses[i])
		}
	}
}

func TestParseDIMACSForms(t *testing.T) {
	// Header, comments, clause split across lines, trailing % (SATLIB).
	src := `c example
p cnf 3 2
1 -2
0
2 3 0
%
`
	f, err := ParseDIMACSString(src)
	if err != nil {
		t.Fatal(err)
	}
	if f.NumClauses() != 2 || f.NumVars() != 3 {
		t.Fatalf("parse: %d clauses %d vars", f.NumClauses(), f.NumVars())
	}
	// Missing header is tolerated.
	f2, err := ParseDIMACSString("1 2 0\n-1 0\n")
	if err != nil {
		t.Fatal(err)
	}
	if f2.NumVars() != 2 || f2.NumClauses() != 2 {
		t.Fatalf("headerless parse: %d vars %d clauses", f2.NumVars(), f2.NumClauses())
	}
}

func TestParseDIMACSErrors(t *testing.T) {
	cases := []string{
		"p cnf x 2\n1 0\n",
		"p cnf 2\n1 0\n",
		"1 2 foo 0\n",
		"1 2 3\n", // unterminated clause
	}
	for _, src := range cases {
		if _, err := ParseDIMACSString(src); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
}

func TestWriteDIMACSComments(t *testing.T) {
	f := New(1)
	f.Comments = append(f.Comments, "hello world")
	f.AddDIMACS(1)
	s := DIMACSString(f)
	if !strings.Contains(s, "c hello world\n") {
		t.Fatalf("comment missing from output:\n%s", s)
	}
}

func TestClauseString(t *testing.T) {
	c := NewClause(1, -2)
	if c.String() != "(1 -2)" {
		t.Fatalf("Clause.String = %q", c.String())
	}
	if LitUndef.String() != "?" {
		t.Fatal("LitUndef.String")
	}
}

// Property: Normalize preserves the clause's truth value under any
// assignment (tautologies are always true).
func TestNormalizePreservesSemantics(t *testing.T) {
	f := func(raw []int8, bits uint8) bool {
		var c Clause
		for _, r := range raw {
			v := Var(int(r)%4 + 1)
			if v <= 0 {
				v = -v + 1
			}
			c = append(c, NewLit(v, r < 0))
		}
		if len(c) == 0 {
			return true
		}
		a := NewAssignment(8)
		for v := Var(1); v <= 8; v++ {
			a[v] = FromBool(bits&(1<<uint(v-1)) != 0)
		}
		n, taut := c.Normalize()
		if taut {
			// Tautologies must evaluate true under total assignments.
			return a.EvalClause(c) == True
		}
		return a.EvalClause(c) == a.EvalClause(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Parser robustness: arbitrary byte soup must never panic, only return
// errors or valid formulas.
func TestParseDIMACSFuzzish(t *testing.T) {
	inputs := []string{
		"", "\x00\x01\x02", "p cnf", "p cnf -1 -1\n", "1 2 3 0 0 0",
		"p cnf 999999999999999999999 1\n1 0\n", "c only comments\nc more\n",
		"p cnf 2 1\n1 -2 0\np cnf 3 1\n3 0\n", "-0 0\n", "1 2 0 trailing",
		"%\n0\n", "p cnf 1 1\n\n\n1 0", "1\n2\n0\n-1 0",
	}
	for _, in := range inputs {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("panic on %q: %v", in, r)
				}
			}()
			f, err := ParseDIMACSString(in)
			if err == nil && f != nil {
				// Returned formulas must be internally consistent.
				if int(f.MaxVar()) > f.NumVars() {
					t.Errorf("inconsistent formula from %q", in)
				}
			}
		}()
	}
}

// Bench parser robustness under the same regime.
func TestClauseHasAndClone(t *testing.T) {
	c := NewClause(1, -2, 3)
	if !c.Has(PosLit(1)) || c.Has(PosLit(2)) || !c.Has(NegLit(2)) {
		t.Fatal("Has broken")
	}
	d := c.Clone()
	d[0] = NegLit(9)
	if c[0] == NegLit(9) {
		t.Fatal("Clone aliases")
	}
}
