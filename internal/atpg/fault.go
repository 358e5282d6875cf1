// Package atpg implements SAT-based automatic test pattern generation
// for single stuck-at faults (paper §3; [Larrabee], [Stephan et al.],
// [Marques-Silva & Sakallah 97]). A fault is detected by an input
// pattern on which the good and faulty circuits produce different
// outputs; the search for such a pattern is formulated as a SAT instance
// over a miter of the good circuit and the faulty cone. An UNSAT answer
// proves the fault untestable (redundant), feeding the redundancy
// removal flow of the redund package.
//
// Three modes are provided: one-shot SAT per fault, the structural-layer
// mode of §5 producing partially-specified patterns, and the
// iterative/incremental mode of §6 ([Kim et al.]) running the fault list
// as activation-literal queries against resident solve sessions
// (GenerateTestsSession). The session mode deals the list across its
// sessions by fault site: each session ships a site's faulty cone once,
// guarded by one activation literal, and answers each of the site's
// faults with a small head guarded by a second.
package atpg

import (
	"fmt"

	"repro/internal/circuit"
)

// Fault is a single stuck-at fault. Pin == -1 places the fault on the
// node's output (stem); Pin >= 0 places it on the connection feeding
// that fanin position (branch fault).
type Fault struct {
	Node    circuit.NodeID
	Pin     int
	StuckAt bool // stuck value
}

// String renders the fault, e.g. "g3 s-a-1" or "g3.in2 s-a-0".
func (f Fault) String() string {
	v := 0
	if f.StuckAt {
		v = 1
	}
	if f.Pin < 0 {
		return fmt.Sprintf("n%d s-a-%d", f.Node, v)
	}
	return fmt.Sprintf("n%d.in%d s-a-%d", f.Node, f.Pin, v)
}

// FaultUniverse enumerates the standard single stuck-at fault list:
// both polarities on every node output (stem faults), plus branch faults
// on gate inputs whose driving node has fanout greater than one (where
// the branch can differ from the stem).
func FaultUniverse(c *circuit.Circuit) []Fault {
	fo := c.Fanouts()
	var out []Fault
	for i := range c.Nodes {
		id := circuit.NodeID(i)
		if c.Nodes[i].Type == circuit.Const0 || c.Nodes[i].Type == circuit.Const1 {
			continue
		}
		out = append(out, Fault{Node: id, Pin: -1, StuckAt: false})
		out = append(out, Fault{Node: id, Pin: -1, StuckAt: true})
	}
	for i := range c.Nodes {
		id := circuit.NodeID(i)
		for pin, f := range c.Nodes[i].Fanin {
			if len(fo[f]) > 1 {
				out = append(out, Fault{Node: id, Pin: pin, StuckAt: false})
				out = append(out, Fault{Node: id, Pin: pin, StuckAt: true})
			}
		}
	}
	return out
}

// Collapse removes faults equivalent to others under the classic local
// equivalence rules, returning the reduced list:
//
//   - s-a-0 on any AND input ≡ s-a-0 on its output (dually OR/s-a-1),
//   - s-a-0 on a NAND input ≡ s-a-1 on its output (dually NOR),
//   - BUF input faults ≡ output faults; NOT input s-a-v ≡ output s-a-¬v.
//
// Branch faults are only collapsed when the rule applies regardless of
// the stem's other fanouts (gate-local equivalence), which holds for the
// rules above since they relate a gate's input connection to the gate's
// own output.
func Collapse(c *circuit.Circuit, faults []Fault) []Fault {
	var out []Fault
	for _, f := range faults {
		if f.Pin >= 0 && collapsible(c.Nodes[f.Node].Type, f.StuckAt) {
			continue
		}
		// Single-fanin gate stems: BUF/NOT input-side faults were already
		// excluded from the universe unless fanout > 1; the output fault
		// represents the class.
		out = append(out, f)
	}
	return out
}

func collapsible(t circuit.GateType, stuckAt bool) bool {
	switch t {
	case circuit.And, circuit.Nand:
		return !stuckAt // input s-a-0 equivalent to an output fault
	case circuit.Or, circuit.Nor:
		return stuckAt // input s-a-1 equivalent to an output fault
	case circuit.Buf, circuit.Not:
		return true // both polarities map to output faults
	}
	return false
}

// Inject converts the fault to simulation injections with the stuck
// value replicated across all 64 pattern lanes.
func (f Fault) Inject() []circuit.Injection {
	var v uint64
	if f.StuckAt {
		v = ^uint64(0)
	}
	return []circuit.Injection{{Node: f.Node, Pin: f.Pin, Value: v}}
}

// Detects reports which of the 64 packed patterns detect the fault: a
// bit is set where any primary output differs between good and faulty
// simulation.
func Detects(c *circuit.Circuit, f Fault, inputs []uint64) uint64 {
	good := c.Simulate(inputs)
	bad := c.SimulateInject(inputs, f.Inject())
	var diff uint64
	for _, o := range c.Outputs {
		diff |= good[o] ^ bad[o]
	}
	return diff
}
