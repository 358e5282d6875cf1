package atpg

import (
	"context"
	"errors"
	"fmt"
	"runtime"

	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/session"
	"repro/internal/solver"
)

// sessionATPG is the incremental fault loop (§6: "in many applications
// SAT solvers tend to be used iteratively and/or incrementally" [Kim et
// al.]) running against a resident solve session: the good circuit's
// CNF lives in the session, each fault ships its guarded cone clauses
// as the query's Add set and solves under the activation assumption.
// Learned clauses over the good circuit survive between faults. The
// previous fault's retirement unit ¬a_{i-1} is folded into the next
// query's Add set, so the whole loop is one query per fault.
type sessionATPG struct {
	c     *circuit.Circuit
	enc   *circuit.Encoding
	cones *coneEncoder
	m     *session.Manager
	ss    *session.Session
	opts  Options
	// numVars tracks the session solver's variable space. Every cone
	// query allocates fresh variables above it and mentions all of them,
	// so the resident solver's growth stays in lockstep.
	numVars int
	// retire is the ¬act unit of the previous fault, empty before the
	// first. It leads the next query's Add set, which add holds; Submit
	// copies both, so the engine reuses them from fault to fault.
	retire cnf.Clause
	add    []cnf.Clause
}

// newSessionATPG opens a session on m holding enc, c's good-circuit
// CNF. The caller owns the returned engine's session via Close.
func newSessionATPG(m *session.Manager, c *circuit.Circuit, enc *circuit.Encoding, opts Options) (*sessionATPG, error) {
	ss, err := m.Open(enc.F)
	if err != nil {
		return nil, fmt.Errorf("atpg: open session: %w", err)
	}
	return &sessionATPG{c: c, enc: enc, cones: newConeEncoder(c, enc), m: m, ss: ss, opts: opts, numVars: enc.F.NumVars()}, nil
}

// Close evicts the engine's session from its manager.
func (sa *sessionATPG) Close() { sa.m.Delete(sa.ss.ID) }

func (sa *sessionATPG) testFault(ctx context.Context, flt Fault) FaultResult {
	fr := FaultResult{Fault: flt}
	q := sa.cones.build(flt, sa.numVars)
	if q == nil {
		fr.Status = Redundant
		return fr
	}
	sa.add = sa.add[:0]
	if len(sa.retire) > 0 {
		sa.add = append(sa.add, sa.retire)
	}
	sa.add = append(sa.add, q.clauses...)
	req := session.Request{
		Assume:       []cnf.Lit{cnf.PosLit(q.act)},
		Add:          sa.add,
		MaxConflicts: sa.opts.MaxConflicts,
	}
	query, err := sa.ss.Submit(ctx, req)
	if err != nil {
		fr.Status = Aborted
		return fr
	}
	res, err := query.Wait(ctx)
	if err != nil {
		fr.Status = Aborted
		return fr
	}
	sa.numVars = q.numVars
	sa.retire = append(sa.retire[:0], cnf.NegLit(q.act))
	switch res.Status {
	case solver.Sat:
		fr.Status = Detected
		fr.Pattern = extractPattern(sa.c, sa.enc, res.Model)
	case solver.Unsat:
		fr.Status = Redundant
	default:
		fr.Status = Aborted
	}
	fr.satStats = &solver.Stats{Conflicts: res.Conflicts, Decisions: res.Decisions}
	if fr.Status == Detected && fr.Pattern == nil {
		fr.Status = Aborted
	}
	return fr
}

// GenerateTestsSession runs ATPG over the full (collapsed) fault
// universe through resident sessions on m — the resident-solver flavor
// of GenerateTests.
func GenerateTestsSession(ctx context.Context, m *session.Manager, c *circuit.Circuit, opts Options) (*Report, error) {
	faults := FaultUniverse(c)
	if !opts.NoCollapse {
		faults = Collapse(c, faults)
	}
	return GenerateTestsSessionFor(ctx, m, c, faults, opts)
}

// minShardFaults is the fewest faults a shard is dealt: a shorter list
// stays in fewer sessions, because opening and warming another resident
// solver would cost more than the queries it takes over.
const minShardFaults = 64

// sessionShards is the number of sessions a list of n faults is dealt
// across: one per CPU the runtime may use, at least minShardFaults
// faults each, and never fewer than one.
func sessionShards(n int) int {
	return min(runtime.GOMAXPROCS(0), max(1, n/minShardFaults))
}

// GenerateTestsSessionFor runs the fault list through sessionShards
// sessions on m, queried in parallel. The sessions are opened for the
// run and evicted before returning. Per-fault verdicts are the one-shot
// engine's; the report is deterministic for a given shard count
// (Report.Shards). Options.Structural is refused: the §5 layer attaches
// to an in-process solver, which only the one-shot engine has.
func GenerateTestsSessionFor(ctx context.Context, m *session.Manager, c *circuit.Circuit, faults []Fault, opts Options) (*Report, error) {
	if opts.Structural {
		return nil, errors.New("atpg: the structural layer runs only on the one-shot engine, not on sessions")
	}
	return generateTestsSessionShards(ctx, m, c, faults, opts, sessionShards(len(faults)))
}

// generateTestsSessionShards deals the fault list across k fresh
// sessions on m. Every query goes through m, so m's Gate meters all of
// them. Each session is evicted on every path out: success, cancel, or
// an Open failing partway through.
func generateTestsSessionShards(ctx context.Context, m *session.Manager, c *circuit.Circuit, faults []Fault, opts Options, k int) (*Report, error) {
	if opts.MaxConflicts == 0 {
		opts.MaxConflicts = defaultMaxConflicts
	}
	enc := circuit.Encode(c)
	shards := make([]*sessionATPG, 0, k)
	defer func() {
		for _, sa := range shards {
			sa.Close()
		}
	}()
	for range k {
		sa, err := newSessionATPG(m, c, enc, opts)
		if err != nil {
			return nil, err
		}
		shards = append(shards, sa)
	}
	return runFaults(ctx, c, faults, opts, shards), nil
}

// coneQuery is one fault's incremental SAT query: the faulty cone
// re-encoded over fresh variables, every clause guarded by the negated
// activation literal, plus the XOR objective over affected outputs.
type coneQuery struct {
	// act is the activation variable: solve under PosLit(act), retire
	// the cone afterwards with the top-level unit ¬act.
	act cnf.Var
	// clauses carry the guard ¬act already appended. They alias the
	// encoder's buffers and are valid until its next build.
	clauses []cnf.Clause
	// numVars is the variable space after this query: the next build
	// allocates above it.
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
	// the session grows to the fresh variables allocated here when the
	// guarded clauses, which mention every one of them, arrive.
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
