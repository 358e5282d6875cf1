// Package csat implements the structural layer for solving SAT on
// combinational circuits described in paper §5 (after [Silva, Silveira &
// Marques-Silva]). A generic SAT solver is augmented — not modified —
// with a layer that maintains circuit information:
//
//   - FI(x)/FO(x): fanin and fanout relations,
//   - u_v(x): the threshold number of suitably-assigned inputs needed to
//     justify value v on node x (Table 2),
//   - t_v(x): the running counter of assigned inputs involved in
//     justifying value v on x (Table 3),
//   - the justification frontier: the set of assigned, unjustified nodes.
//
// Value consistency is handled entirely by the SAT engine over the CNF
// encoding; justification is handled by this layer. The Decide() test for
// satisfiability becomes "is the justification frontier empty" instead of
// "are all clauses satisfied", which terminates the search early and
// yields partially-specified input patterns — eliminating the
// overspecification drawback of plain CNF SAT (§5). Decisions may also be
// steered by simple backtracing from frontier nodes to primary inputs.
package csat

import (
	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/solver"
)

// Options configures the layer.
type Options struct {
	// Backtrace enables decision steering: Suggest() backtraces from an
	// unjustified node to an unassigned primary input.
	Backtrace bool
	// Multiple enables multiple backtracing [Abramovici et al.]: instead
	// of following a single frontier node, every frontier node
	// backtraces and the primary input requested most often (with its
	// majority polarity) is decided. Implies Backtrace.
	Multiple bool
}

// Layer is the circuit-structure theory attached to a solver. Create it
// with Attach; the solver then hands it the trail (solver.Theory) right
// before each Done and Suggest call.
type Layer struct {
	c    *circuit.Circuit
	enc  *circuit.Encoding
	s    *solver.Solver
	opts Options

	nodeOf  []circuit.NodeID   // CNF var -> node (NoNode for auxiliaries)
	value   []cnf.LBool        // current value per node
	u       [2][]int32         // Table 2 thresholds, indexed [v][node]
	t       [2][]int32         // Table 3 counters,  indexed [v][node]
	fanouts [][]circuit.NodeID // FO(x), built lazily

	inFrontier []bool
	nFrontier  int

	side []cnf.Clause // extra non-circuit clauses Done() must respect

	// Stats
	EarlyStops int
}

// Attach builds the layer for circuit c encoded as enc and installs it on
// the solver. Assignments already on the solver's trail (top-level units)
// reach the counters with the solver's first hand-over.
func Attach(c *circuit.Circuit, enc *circuit.Encoding, s *solver.Solver, opts Options) *Layer {
	l := &Layer{
		c:      c,
		enc:    enc,
		s:      s,
		opts:   opts,
		nodeOf: make([]circuit.NodeID, enc.F.NumVars()+1),
		value:  make([]cnf.LBool, len(c.Nodes)),
	}
	for i := range l.nodeOf {
		l.nodeOf[i] = circuit.NoNode
	}
	for id, v := range enc.VarOf {
		l.nodeOf[v] = circuit.NodeID(id)
	}
	for v := 0; v < 2; v++ {
		l.u[v] = make([]int32, len(c.Nodes))
		l.t[v] = make([]int32, len(c.Nodes))
	}
	l.inFrontier = make([]bool, len(c.Nodes))
	for i := range c.Nodes {
		u0, u1 := Thresholds(c.Nodes[i].Type, len(c.Nodes[i].Fanin))
		l.u[0][i] = int32(u0)
		l.u[1][i] = int32(u1)
	}
	s.SetTheory(l)
	return l
}

// Thresholds returns (u0, u1) for a gate of the given type and fanin
// count, per the paper's Table 2: for an AND gate one input assigned 0
// justifies x=0 while all inputs must be 1 to justify x=1, and dually for
// the other simple gates; XOR/XNOR require all inputs assigned for either
// value. Inputs and constants need no justification (threshold 0).
func Thresholds(t circuit.GateType, fanin int) (u0, u1 int) {
	n := fanin
	switch t {
	case circuit.Input, circuit.Const0, circuit.Const1:
		return 0, 0
	case circuit.Buf, circuit.Not:
		return 1, 1
	case circuit.And:
		return 1, n
	case circuit.Nand:
		return n, 1
	case circuit.Or:
		return n, 1
	case circuit.Nor:
		return 1, n
	case circuit.Xor, circuit.Xnor:
		return n, n
	}
	panic("csat: unknown gate type")
}

// CounterDeltas returns the (Δt0, Δt1) applied to gate x's counters when
// one of its inputs is assigned value w, per the paper's Table 3. For an
// AND gate an input assigned 0 increments t0 and an input assigned 1
// increments t1; NAND/NOR invert the roles; XOR/XNOR increment both
// counters on any input assignment.
func CounterDeltas(t circuit.GateType, w bool) (d0, d1 int) {
	switch t {
	case circuit.And:
		if w {
			return 0, 1
		}
		return 1, 0
	case circuit.Nand:
		if w {
			return 1, 0
		}
		return 0, 1
	case circuit.Or:
		if w {
			return 0, 1
		}
		return 1, 0
	case circuit.Nor:
		if w {
			return 1, 0
		}
		return 0, 1
	case circuit.Buf:
		if w {
			return 0, 1
		}
		return 1, 0
	case circuit.Not:
		if w {
			return 1, 0
		}
		return 0, 1
	case circuit.Xor, circuit.Xnor:
		return 1, 1
	}
	return 0, 0
}

// AddSideClause registers a non-circuit clause (e.g. an ATPG blocking
// clause) that the early-termination test must also check, keeping the
// empty-frontier stop sound in the presence of extra constraints.
func (l *Layer) AddSideClause(c cnf.Clause) {
	l.side = append(l.side, c.Clone())
}

// needsJustification reports the frontier condition of §5:
// (v(x) = v) ∧ (t_v(x) < u_v(x)).
func (l *Layer) needsJustification(id circuit.NodeID) bool {
	v := l.value[id]
	if v == cnf.Undef {
		return false
	}
	vi := 0
	if v == cnf.True {
		vi = 1
	}
	return l.t[vi][id] < l.u[vi][id]
}

func (l *Layer) refreshFrontier(id circuit.NodeID) {
	now := l.needsJustification(id)
	if now == l.inFrontier[id] {
		return
	}
	l.inFrontier[id] = now
	if now {
		l.nFrontier++
	} else {
		l.nFrontier--
	}
}

// Assign implements solver.Theory.
func (l *Layer) Assign(lits []cnf.Lit) {
	for _, lit := range lits {
		l.update(lit, 1)
	}
}

// Unassign implements solver.Theory.
func (l *Layer) Unassign(lits []cnf.Lit) {
	for i := len(lits) - 1; i >= 0; i-- {
		l.update(lits[i], -1)
	}
}

// update applies lit becoming true (dir 1) or being erased (dir -1) to
// its node's value and to the justification counters of every fanout
// gate (Table 3). The counters are sums and the frontier follows the
// final values, so the layer's state depends only on which literals are
// assigned, not on the order they arrived in.
func (l *Layer) update(lit cnf.Lit, dir int32) {
	v := lit.Var()
	if int(v) >= len(l.nodeOf) {
		return
	}
	id := l.nodeOf[v]
	if id == circuit.NoNode {
		return
	}
	val := !lit.IsNeg()
	l.value[id] = cnf.Undef
	if dir > 0 {
		l.value[id] = cnf.FromBool(val)
	}
	l.refreshFrontier(id)
	for _, g := range l.fanoutsOf(id) {
		d0, d1 := CounterDeltas(l.c.Nodes[g].Type, val)
		l.t[0][g] += dir * int32(d0)
		l.t[1][g] += dir * int32(d1)
		l.refreshFrontier(g)
	}
}

// fanoutsOf returns FO(id), computing the fanout lists on first use (the
// circuit is immutable once attached).
func (l *Layer) fanoutsOf(id circuit.NodeID) []circuit.NodeID {
	if l.fanouts == nil {
		l.fanouts = l.c.Fanouts()
	}
	return l.fanouts[id]
}

// Done implements solver.Theory: the search can stop as soon as the
// justification frontier is empty (and any registered side clauses are
// satisfied), replacing the "all clauses satisfied" test.
func (l *Layer) Done() bool {
	if l.nFrontier != 0 {
		return false
	}
	for _, c := range l.side {
		sat := false
		for _, lit := range c {
			if l.s.LitValue(lit) == cnf.True {
				sat = true
				break
			}
		}
		if !sat {
			return false
		}
	}
	l.EarlyStops++
	return true
}

// Suggest implements solver.Theory: backtracing [Abramovici et al.]
// from unjustified nodes to unassigned primary inputs, choosing
// controlling values along the way. Simple mode follows one frontier
// node; multiple mode lets every frontier node vote on a PI.
func (l *Layer) Suggest() cnf.Lit {
	if (!l.opts.Backtrace && !l.opts.Multiple) || l.nFrontier == 0 {
		return cnf.LitUndef
	}
	if l.opts.Multiple {
		return l.suggestMultiple()
	}
	// Simple backtracing from the lowest-id frontier node.
	for id := range l.c.Nodes {
		if l.inFrontier[id] {
			if lit := l.backtraceFrom(circuit.NodeID(id)); lit != cnf.LitUndef {
				return lit
			}
			return cnf.LitUndef
		}
	}
	return cnf.LitUndef
}

// backtraceFrom walks from one unjustified node down to a primary input.
func (l *Layer) backtraceFrom(target circuit.NodeID) cnf.Lit {
	want := l.value[target] == cnf.True
	for steps := 0; steps <= len(l.c.Nodes); steps++ {
		n := &l.c.Nodes[target]
		next, nextVal, ok := l.backtraceStep(target, n, want)
		if !ok {
			return cnf.LitUndef
		}
		if l.c.Nodes[next].Type == circuit.Input {
			return cnf.NewLit(l.enc.VarOf[next], !nextVal)
		}
		target, want = next, nextVal
	}
	return cnf.LitUndef
}

// suggestMultiple performs multiple backtracing: every frontier node
// traces to a PI request; the input with the most requests wins, with
// the polarity of the majority of its requests.
func (l *Layer) suggestMultiple() cnf.Lit {
	votes := make(map[circuit.NodeID][2]int) // PI -> {false votes, true votes}
	for id := range l.c.Nodes {
		if !l.inFrontier[id] {
			continue
		}
		lit := l.backtraceFrom(circuit.NodeID(id))
		if lit == cnf.LitUndef {
			continue
		}
		pi := l.nodeOf[lit.Var()]
		v := votes[pi]
		if lit.IsNeg() {
			v[0]++
		} else {
			v[1]++
		}
		votes[pi] = v
	}
	best := circuit.NoNode
	bestCount := -1
	bestVal := false
	// Deterministic iteration: scan nodes in id order.
	for id := range l.c.Nodes {
		v, ok := votes[circuit.NodeID(id)]
		if !ok {
			continue
		}
		total := v[0] + v[1]
		if total > bestCount {
			bestCount = total
			best = circuit.NodeID(id)
			bestVal = v[1] >= v[0]
		}
	}
	if best == circuit.NoNode {
		return cnf.LitUndef
	}
	return cnf.NewLit(l.enc.VarOf[best], !bestVal)
}

// backtraceStep picks an unassigned fanin of x and the value it should
// take to help justify value want on x.
func (l *Layer) backtraceStep(x circuit.NodeID, n *circuit.Node, want bool) (circuit.NodeID, bool, bool) {
	pick := circuit.NoNode
	for _, f := range n.Fanin {
		if l.value[f] == cnf.Undef {
			pick = f
			break
		}
	}
	if pick == circuit.NoNode {
		return circuit.NoNode, false, false
	}
	switch n.Type {
	case circuit.And:
		return pick, want, true
	case circuit.Or:
		return pick, want, true
	case circuit.Nand:
		return pick, !want, true
	case circuit.Nor:
		return pick, !want, true
	case circuit.Buf:
		return pick, want, true
	case circuit.Not:
		return pick, !want, true
	case circuit.Xor, circuit.Xnor:
		// If pick is the last unassigned input, choose the value that
		// makes the parity consistent; otherwise any value works.
		parity := false
		unassigned := 0
		for _, f := range n.Fanin {
			switch l.value[f] {
			case cnf.True:
				parity = !parity
			case cnf.Undef:
				unassigned++
			}
		}
		target := want
		if n.Type == circuit.Xnor {
			target = !target
		}
		if unassigned == 1 {
			return pick, parity != target, true
		}
		return pick, false, true
	}
	return circuit.NoNode, false, false
}

// Frontier returns the current unjustified nodes (for tests/inspection).
func (l *Layer) Frontier() []circuit.NodeID {
	var out []circuit.NodeID
	for id := range l.c.Nodes {
		if l.inFrontier[id] {
			out = append(out, circuit.NodeID(id))
		}
	}
	return out
}

// Value returns the layer's view of a node's current value.
func (l *Layer) Value(id circuit.NodeID) cnf.LBool { return l.value[id] }

// InputPattern extracts the (possibly partial) primary-input pattern from
// a solver model, ordered like c.Inputs.
func (l *Layer) InputPattern(m cnf.Assignment) []cnf.LBool {
	out := make([]cnf.LBool, len(l.c.Inputs))
	for i, id := range l.c.Inputs {
		out[i] = m.Value(l.enc.VarOf[id])
	}
	return out
}

// CountSpecified returns the number of non-X entries in a pattern.
func CountSpecified(p []cnf.LBool) int {
	n := 0
	for _, v := range p {
		if v != cnf.Undef {
			n++
		}
	}
	return n
}
