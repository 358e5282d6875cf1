package atpg

import (
	"context"

	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/solver"
)

// coneQuery is one fault's incremental SAT query: the faulty cone
// re-encoded over fresh variables, every clause guarded by the negated
// activation literal, plus the XOR objective over affected outputs.
// The same query shape feeds both the in-process incremental engine
// and the session-backed one.
type coneQuery struct {
	// act is the activation variable: solve under PosLit(act), retire
	// the cone afterwards with the top-level unit ¬act.
	act cnf.Var
	// clauses carry the guard ¬act already appended. They alias the
	// encoder's buffers and are valid until its next build.
	clauses []cnf.Clause
	// numVars is the variable space after this query; the target solver
	// must be grown to it before the clauses are added.
	numVars int
}

// coneEncoder builds the cone queries of one circuit's fault list. The
// per-fault working set — cone membership, the faulty copies' variables,
// the gate clauses and their guarded form — lives in buffers indexed by
// NodeID or reused flat, owned here and recycled from fault to fault.
type coneEncoder struct {
	c   *circuit.Circuit
	enc *circuit.Encoding

	inCone  []bool           // by NodeID, valid from the fault site up
	faulty  []cnf.Var        // by NodeID: the faulty copy's variable (cone nodes only)
	ins     []cnf.Var        // one gate's fanin variables
	scratch cnf.Formula      // the cone's unguarded clauses, as AppendGateCNF emits them
	lits    []cnf.Lit        // every guarded clause, back to back
	query   coneQuery        // the returned query (clauses slice reused)
	outs    []circuit.NodeID // outputs inside the cone
}

func newConeEncoder(c *circuit.Circuit, enc *circuit.Encoding) *coneEncoder {
	return &coneEncoder{
		c: c, enc: enc,
		inCone: make([]bool, len(c.Nodes)),
		faulty: make([]cnf.Var, len(c.Nodes)),
	}
}

// build encodes flt's faulty cone, allocating fresh variables starting
// after numVars (the target solver's current variable count). It
// returns nil when no output is reachable from the fault site — the
// fault is trivially redundant and needs no SAT call.
func (ce *coneEncoder) build(flt Fault, numVars int) *coneQuery {
	c, enc := ce.c, ce.enc
	// Nodes are stored in topological order, so one forward pass from
	// the fault site marks its transitive fanout.
	site := int(flt.Node)
	ce.inCone[site] = true
	for id := site + 1; id < len(c.Nodes); id++ {
		in := false
		for _, fn := range c.Nodes[id].Fanin {
			if int(fn) >= site && ce.inCone[fn] {
				in = true
				break
			}
		}
		ce.inCone[id] = in
	}
	ce.outs = ce.outs[:0]
	for _, o := range c.Outputs {
		if int(o) >= site && ce.inCone[o] {
			ce.outs = append(ce.outs, o)
		}
	}
	if len(ce.outs) == 0 {
		return nil
	}

	// Scratch formula aligned with the target solver's variable space:
	// fresh variables allocated here are mirrored into the solver (or
	// implicitly grown by the session) afterwards.
	scratch := &ce.scratch
	scratch.Clauses = scratch.Clauses[:0]
	scratch.EnsureVars(numVars) // variable counts only ever grow along a fault list
	act := scratch.NewVar()

	valueLit := func(v cnf.Var, val bool) cnf.Lit { return cnf.NewLit(v, !val) }

	for id := site; id < len(c.Nodes); id++ {
		if !ce.inCone[id] {
			continue
		}
		n := &c.Nodes[id]
		if id == site && flt.Pin < 0 {
			v := scratch.NewVar()
			ce.faulty[id] = v
			scratch.Add(valueLit(v, flt.StuckAt))              // stem stuck value
			scratch.Add(valueLit(enc.VarOf[id], !flt.StuckAt)) // activation: good site opposes
			continue
		}
		var pinVar cnf.Var
		if id == site && flt.Pin >= 0 {
			pinVar = scratch.NewVar()
			scratch.Add(valueLit(pinVar, flt.StuckAt))
			w := n.Fanin[flt.Pin]
			scratch.Add(valueLit(enc.VarOf[w], !flt.StuckAt)) // branch activation
		}
		ce.ins = ce.ins[:0]
		for pin, fn := range n.Fanin {
			switch {
			case id == site && pin == flt.Pin:
				ce.ins = append(ce.ins, pinVar)
			case int(fn) >= site && ce.inCone[fn]:
				ce.ins = append(ce.ins, ce.faulty[fn])
			default:
				ce.ins = append(ce.ins, enc.VarOf[fn])
			}
		}
		out := scratch.NewVar()
		ce.faulty[id] = out
		circuit.AppendGateCNF(scratch, n.Type, out, ce.ins)
	}
	objective := make(cnf.Clause, 0, len(ce.outs)+1)
	for _, o := range ce.outs {
		d := scratch.NewVar()
		ce.ins = append(ce.ins[:0], enc.VarOf[o], ce.faulty[o])
		circuit.AppendGateCNF(scratch, circuit.Xor, d, ce.ins)
		objective = append(objective, cnf.PosLit(d))
	}
	scratch.AddClause(objective)

	// Guard every clause with ¬act, packed into one literal buffer.
	ce.lits = ce.lits[:0]
	for _, cl := range scratch.Clauses {
		ce.lits = append(append(ce.lits, cl...), cnf.NegLit(act))
	}
	q := &ce.query
	q.act, q.numVars, q.clauses = act, scratch.NumVars(), q.clauses[:0]
	at := 0
	for _, cl := range scratch.Clauses {
		end := at + len(cl) + 1
		q.clauses = append(q.clauses, ce.lits[at:end:end])
		at = end
	}
	return q
}

// extractPattern reads the primary-input assignment out of a model.
func extractPattern(c *circuit.Circuit, enc *circuit.Encoding, model cnf.Assignment) []cnf.LBool {
	pat := make([]cnf.LBool, len(c.Inputs))
	for i, id := range c.Inputs {
		pat[i] = model.Value(enc.VarOf[id])
	}
	return pat
}

// incrementalATPG shares one solver instance across the whole fault list
// (§6: "in many applications SAT solvers tend to be used iteratively
// and/or incrementally" [Kim et al.]). The good circuit's CNF is loaded
// once; each fault's cone is added with a fresh activation literal a_i
// appended (as ¬a_i) to every cone clause, and the query is solved under
// the assumption a_i. Learned clauses over the good circuit survive
// between faults; retired cones are switched off permanently with a
// top-level unit ¬a_i.
type incrementalATPG struct {
	c     *circuit.Circuit
	enc   *circuit.Encoding
	cones *coneEncoder
	s     *solver.Solver
	opts  Options
	prev  solver.Stats // snapshot for per-fault deltas
}

func newIncremental(c *circuit.Circuit, opts Options) *incrementalATPG {
	enc := circuit.Encode(c)
	sopts := opts.Solver
	sopts.MaxConflicts = opts.MaxConflicts
	s := solver.FromFormula(enc.F, sopts)
	return &incrementalATPG{c: c, enc: enc, cones: newConeEncoder(c, enc), s: s, opts: opts}
}

func (ia *incrementalATPG) testFault(ctx context.Context, flt Fault) FaultResult {
	fr := FaultResult{Fault: flt}
	q := ia.cones.build(flt, ia.s.NumVars())
	if q == nil {
		fr.Status = Redundant
		return fr
	}
	for ia.s.NumVars() < q.numVars {
		ia.s.NewVar()
	}
	for _, cl := range q.clauses {
		ia.s.AddClause(cl)
	}

	stopWatch := context.AfterFunc(ctx, ia.s.Interrupt)
	switch ia.s.Solve(cnf.PosLit(q.act)) {
	case solver.Sat:
		fr.Status = Detected
		fr.Pattern = extractPattern(ia.c, ia.enc, ia.s.TakeModel())
	case solver.Unsat:
		fr.Status = Redundant
	default:
		fr.Status = Aborted
	}
	stopWatch()
	st := ia.s.Stats
	delta := solver.Stats{
		Conflicts: st.Conflicts - ia.prev.Conflicts,
		Decisions: st.Decisions - ia.prev.Decisions,
	}
	ia.prev = st
	fr.satStats = &delta
	// Retire this fault's cone permanently.
	ia.s.AddClause(cnf.Clause{cnf.NegLit(q.act)})
	if fr.Status == Detected && fr.Pattern == nil {
		fr.Status = Aborted
	}
	return fr
}
