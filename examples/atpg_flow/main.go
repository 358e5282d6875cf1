// ATPG flow: generate stuck-at tests for a 4-bit ripple-carry adder
// three ways — plain SAT per fault, the §5 structural layer (partial,
// non-overspecified patterns), and plain SAT with fault dropping by
// simulation — then compare effort and pattern specification, and
// finish with redundancy identification on a deliberately redundant
// circuit.
package main

import (
	"fmt"

	sateda "repro"
)

func run(name string, c *sateda.Circuit, opts sateda.ATPGOptions) *sateda.ATPGReport {
	rep := sateda.GenerateTests(c, opts)
	spec := 100.0
	if rep.PatternBits > 0 {
		spec = 100 * float64(rep.SpecifiedBits) / float64(rep.PatternBits)
	}
	fmt.Printf("%-12s detected %3d  redundant %d  satcalls %3d  tests %2d  conflicts %5d  specified %5.1f%%\n",
		name, rep.Detected, rep.Redundant, rep.SATCalls, len(rep.Tests), rep.Conflicts, spec)
	return rep
}

func main() {
	c := sateda.RippleAdder(4)
	fmt.Printf("circuit: 4-bit ripple-carry adder (%d gates, %d inputs)\n",
		c.NumGates(), len(c.Inputs))

	run("plain", c, sateda.ATPGOptions{Seed: 1})
	run("structural", c, sateda.ATPGOptions{Structural: true, Seed: 1})
	run("faultsim", c, sateda.ATPGOptions{FaultSim: true, Seed: 1})

	// Redundancy identification (§3): an untestable fault is an UNSAT
	// ATPG instance, and the logic it guards can be removed.
	r := sateda.NewCircuit()
	a := r.AddInput("a")
	b := r.AddInput("b")
	na := r.AddGate(sateda.Not, "na", a)
	dead := r.AddGate(sateda.And, "dead", a, na) // constant 0
	z := r.AddGate(sateda.Or, "z", b, dead)
	r.MarkOutput(z)

	redundant, _ := sateda.IdentifyRedundant(r, sateda.RedundOptions{})
	fmt.Printf("\nredundant faults in z = OR(b, AND(a, NOT a)): %v\n", redundant)
	opt, rep := sateda.RemoveRedundancy(r, sateda.RedundOptions{})
	fmt.Printf("redundancy removal: %d gates -> %d gates (%d faults removed)\n",
		rep.GatesBefore, rep.GatesAfter, len(rep.RemovedFaults))
	eq, err := sateda.CheckEquivalence(r, opt, sateda.CECOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Println("optimized circuit equivalent to original:", eq.Equivalent)
}
