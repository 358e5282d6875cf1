package cec

import (
	"fmt"
	"testing"

	"repro/internal/circuit"
)

// optimizedAdder returns a functionally identical but structurally
// different ripple-carry adder (carry logic via NAND-NAND instead of
// AND-OR), sharing input names with circuit.RippleCarryAdder.
func optimizedAdder(n int) *circuit.Circuit {
	c := circuit.New()
	as := make([]circuit.NodeID, n)
	bs := make([]circuit.NodeID, n)
	for i := 0; i < n; i++ {
		as[i] = c.AddInput(fmt.Sprintf("a%d", i))
	}
	for i := 0; i < n; i++ {
		bs[i] = c.AddInput(fmt.Sprintf("b%d", i))
	}
	carry := c.AddInput("cin")
	for i := 0; i < n; i++ {
		axb := c.AddGate(circuit.Xor, fmt.Sprintf("x%d", i), as[i], bs[i])
		s := c.AddGate(circuit.Xor, fmt.Sprintf("s%d", i), axb, carry)
		c.MarkOutput(s)
		n1 := c.AddGate(circuit.Nand, fmt.Sprintf("n1_%d", i), as[i], bs[i])
		n2 := c.AddGate(circuit.Nand, fmt.Sprintf("n2_%d", i), axb, carry)
		carry = c.AddGate(circuit.Nand, fmt.Sprintf("c%d", i), n1, n2)
	}
	c.MarkOutput(carry)
	return c
}

// mutate flips one gate type to create an inequivalent copy.
func mutate(c *circuit.Circuit) *circuit.Circuit {
	d := c.Clone()
	for i := range d.Nodes {
		switch d.Nodes[i].Type {
		case circuit.And:
			d.Nodes[i].Type = circuit.Nand
			return d
		case circuit.Or:
			d.Nodes[i].Type = circuit.Nor
			return d
		case circuit.Xor:
			d.Nodes[i].Type = circuit.Xnor
			return d
		}
	}
	panic("no mutable gate")
}

func TestEquivalentAdders(t *testing.T) {
	a := circuit.RippleCarryAdder(4)
	b := optimizedAdder(4)
	for _, internal := range []bool{false, true} {
		res, err := Check(a, b, Options{Internal: internal, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Decided || !res.Equivalent {
			t.Fatalf("internal=%v: adders should be equivalent: %+v", internal, res)
		}
	}
}

func TestInequivalentDetected(t *testing.T) {
	a := circuit.RippleCarryAdder(3)
	b := mutate(a)
	for _, internal := range []bool{false, true} {
		res, err := Check(a, b, Options{Internal: internal, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Decided || res.Equivalent {
			t.Fatalf("internal=%v: mutant should differ", internal)
		}
		if res.Counterexample == nil {
			t.Fatalf("internal=%v: no counterexample", internal)
		}
		if !VerifyCounterexample(a, b, res.Counterexample) {
			t.Fatalf("internal=%v: counterexample does not distinguish", internal)
		}
	}
}

func TestSelfEquivalence(t *testing.T) {
	for _, c := range []*circuit.Circuit{
		circuit.C17(),
		circuit.ParityTree(6),
		circuit.MuxTree(3),
		circuit.RandomDAG(6, 25, 3, 4),
	} {
		res, err := Check(c, c.Clone(), Options{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Equivalent {
			t.Fatal("circuit must equal its clone")
		}
	}
}

func TestInternalModeProvesCandidates(t *testing.T) {
	a := circuit.RippleCarryAdder(5)
	b := optimizedAdder(5)
	res, err := Check(a, b, Options{Internal: true, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equivalent {
		t.Fatal("adders equivalent")
	}
	if res.Candidates == 0 || res.Proven == 0 {
		t.Fatalf("internal engine found no candidates/proofs: %+v", res)
	}
}

func TestShapeMismatchErrors(t *testing.T) {
	a := circuit.RippleCarryAdder(2)
	b := circuit.RippleCarryAdder(3)
	if _, err := Check(a, b, Options{}); err == nil {
		t.Fatal("expected input-count error")
	}
	// Same inputs, different output counts.
	c1 := circuit.New()
	x := c1.AddInput("x")
	g := c1.AddGate(circuit.Not, "g", x)
	c1.MarkOutput(g)
	c2 := circuit.New()
	y := c2.AddInput("x")
	h := c2.AddGate(circuit.Not, "h", y)
	c2.MarkOutput(h)
	c2.MarkOutput(h)
	if _, err := Check(c1, c2, Options{}); err == nil {
		t.Fatal("expected output-count error")
	}
}

func TestPositionalInputMatching(t *testing.T) {
	// Different input names force positional matching.
	a := circuit.New()
	x := a.AddInput("x")
	y := a.AddInput("y")
	g := a.AddGate(circuit.And, "g", x, y)
	a.MarkOutput(g)
	b := circuit.New()
	p := b.AddInput("p")
	q := b.AddInput("q")
	h := b.AddGate(circuit.And, "h", p, q)
	b.MarkOutput(h)
	res, err := Check(a, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equivalent {
		t.Fatal("positionally matched ANDs are equivalent")
	}
}

func TestConstantCircuits(t *testing.T) {
	// x AND NOT x == const 0.
	a := circuit.New()
	x := a.AddInput("x")
	nx := a.AddGate(circuit.Not, "nx", x)
	g := a.AddGate(circuit.And, "g", x, nx)
	a.MarkOutput(g)
	b := circuit.New()
	y := b.AddInput("x")
	k := b.AddConst(false, "zero")
	h := b.AddGate(circuit.And, "h", k, y)
	b.MarkOutput(h)
	res, err := Check(a, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equivalent {
		t.Fatal("both circuits are constant 0")
	}
}

// TestStrashModeCEC: the monolithic check strashes the miter, so a
// circuit against its clone merges output for output and is decided
// with no SAT call at all, while a mutant still reaches SAT and yields
// a counterexample that distinguishes the submitted circuits.
func TestStrashModeCEC(t *testing.T) {
	a := circuit.RippleCarryAdder(5)
	res, err := Check(a, a.Clone(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Decided || !res.Equivalent || res.SATCalls != 0 || res.Conflicts != 0 {
		t.Fatalf("clone must be proved by strash alone: %+v", res)
	}
	b := mutate(a)
	res, err = Check(a, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Decided || res.Equivalent || res.SATCalls != 1 {
		t.Fatalf("mutant must be refuted by one SAT call: %+v", res)
	}
	if !VerifyCounterexample(a, b, res.Counterexample) {
		t.Fatal("counterexample does not distinguish the circuits")
	}
}

// TestPortfolioModeCEC: a portfolio of diversified workers on the miter
// agrees with the sequential engine in both directions, and portfolio
// counterexamples still distinguish the circuits.
func TestPortfolioModeCEC(t *testing.T) {
	a := circuit.RippleCarryAdder(6)
	b := optimizedAdder(6)
	res, err := Check(a, b, Options{PortfolioWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Decided || !res.Equivalent {
		t.Fatalf("portfolio must prove the adders equivalent: %+v", res)
	}
	m := mutate(a)
	res, err = Check(a, m, Options{PortfolioWorkers: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Decided || res.Equivalent {
		t.Fatal("portfolio must detect the mutant")
	}
	if !VerifyCounterexample(a, m, res.Counterexample) {
		t.Fatal("portfolio counterexample does not distinguish")
	}
}
