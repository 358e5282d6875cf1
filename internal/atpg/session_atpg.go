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
// CNF lives in the session, and every fault is one query under two
// activation literals. The faulty cone above a fault site is shipped
// once, guarded by ¬actSite, with the site's faulty value F left free;
// each fault then ships only its head, guarded by ¬actFault, which ties
// F to the stuck value and adds the activation condition. The query
// assumes [actSite, actFault]. The next query's Add set leads with the
// retirement unit ¬actFault (and ¬actSite when the site changes), so
// exactly one head defines F at a time and the whole loop stays one
// query per fault. Learned clauses over the good circuit and the live
// cone survive between faults.
type sessionATPG struct {
	c     *circuit.Circuit
	enc   *circuit.Encoding
	cones *coneEncoder
	m     *session.Manager
	ss    *session.Session
	opts  Options
	// site is the cone the session holds live (site.act == 0: none), and
	// head the activation variable of the last head shipped (0: none).
	site siteCone
	head cnf.Var
}

// newSessionATPG opens a session on m holding enc, c's good-circuit
// CNF. The caller owns the returned engine's session via Close.
func newSessionATPG(m *session.Manager, c *circuit.Circuit, enc *circuit.Encoding, opts Options) (*sessionATPG, error) {
	ss, err := m.Open(enc.F)
	if err != nil {
		return nil, fmt.Errorf("atpg: open session: %w", err)
	}
	cones := newConeEncoder(c, enc)
	cones.vars.EnsureVars(enc.F.NumVars())
	return &sessionATPG{c: c, enc: enc, cones: cones, m: m, ss: ss, opts: opts}, nil
}

// Close evicts the engine's session from its manager.
func (sa *sessionATPG) Close() { sa.m.Delete(sa.ss.ID) }

func (sa *sessionATPG) testFault(ctx context.Context, flt Fault) FaultResult {
	fr := FaultResult{Fault: flt}
	ce := sa.cones
	ce.begin(ce.vars.NumVars())
	if sa.head != 0 {
		ce.retire(sa.head)
	}
	site := sa.site
	if site.act == 0 || site.node != flt.Node {
		if site.act != 0 {
			ce.retire(site.act)
		}
		var ok bool
		if site, ok = ce.buildSite(flt.Node); !ok {
			fr.Status = Redundant // no output observes the site: nothing is shipped
			return fr
		}
	}
	sa.site, sa.head = site, ce.buildHead(flt, site.f)
	req := session.Request{
		Assume:       []cnf.Lit{cnf.PosLit(site.act), cnf.PosLit(sa.head)},
		Add:          ce.add, // Submit copies it, so the encoder reuses its buffers
		MaxConflicts: sa.opts.MaxConflicts,
	}
	query, err := sa.ss.Submit(ctx, req)
	var res session.Result
	if err == nil {
		res, err = query.Wait(ctx)
	}
	if err != nil || res.Cancelled {
		// The Add set may or may not have reached the solver: build the
		// next fault's cone afresh, above every variable shipped here.
		sa.site, sa.head = siteCone{}, 0
		fr.Status = Aborted
		return fr
	}
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
// sessions on m, whole sites at a time (dealBySite). Every query goes
// through m, so m's Gate meters all of them. Each session is evicted on
// every path out: success, cancel, or an Open failing partway through.
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
	return runFaults(ctx, c, faults, opts, shards, dealBySite(faults, k)...), nil
}

// dealBySite deals the fault list's sites round-robin across k engines
// in order of first appearance: engine j gets the faults of sites j,
// j+k, …, each site's faults back to back in list order, so an engine
// ships each of its cones once.
func dealBySite(faults []Fault, k int) [][]int {
	ordinal := make(map[circuit.NodeID]int) // site → rank of first appearance
	var sites [][]int
	for i, f := range faults {
		s, ok := ordinal[f.Node]
		if !ok {
			s = len(sites)
			ordinal[f.Node] = s
			sites = append(sites, nil)
		}
		sites[s] = append(sites[s], i)
	}
	deals := make([][]int, k)
	for s, idx := range sites {
		deals[s%k] = append(deals[s%k], idx...)
	}
	return deals
}

// siteCone is a fault site's faulty cone as shipped to a session.
type siteCone struct {
	node circuit.NodeID
	// act guards the cone: every clause carries ¬act.
	act cnf.Var
	// f is the site's faulty value. The cone reads it but leaves it
	// free; a fault's head defines it.
	f cnf.Var
}

// coneEncoder builds the Add sets of one circuit's fault queries: a
// site's faulty cone (buildSite) and a fault's head (buildHead), each
// over fresh variables and guarded by its own activation literal. The
// working set — cone membership, the faulty copies' variables, the gate
// clauses and their guarded form — lives in buffers indexed by NodeID or
// reused flat, owned here and recycled from query to query.
type coneEncoder struct {
	c   *circuit.Circuit
	enc *circuit.Encoding

	inCone []bool           // by NodeID, valid from the site up
	faulty []cnf.Var        // by NodeID: the faulty copy's variable (cone nodes only)
	ins    []cnf.Var        // one gate's fanin variables
	outs   []circuit.NodeID // outputs inside the cone
	// vars is aligned with the target solver's variable space and
	// allocates the fresh variables; its clauses are the unguarded
	// clauses of the part being built, as AppendGateCNF emits them.
	vars cnf.Formula
	// add is the query's Add set so far, packed in lits: retirement
	// units, then guarded parts. It aliases the encoder's buffers and
	// is valid until the next begin.
	lits []cnf.Lit
	add  []cnf.Clause
}

func newConeEncoder(c *circuit.Circuit, enc *circuit.Encoding) *coneEncoder {
	return &coneEncoder{
		c: c, enc: enc,
		inCone: make([]bool, len(c.Nodes)),
		faulty: make([]cnf.Var, len(c.Nodes)),
	}
}

// begin starts a query over a target solver holding numVars variables:
// fresh variables are allocated above it.
func (ce *coneEncoder) begin(numVars int) {
	ce.vars.Clauses = ce.vars.Clauses[:0]
	ce.vars.EnsureVars(numVars) // variable counts only ever grow along a fault list
	ce.lits, ce.add = ce.lits[:0], ce.add[:0]
}

// retire adds the unit ¬act, switching act's group off for good.
func (ce *coneEncoder) retire(act cnf.Var) {
	ce.lits = append(ce.lits, cnf.NegLit(act))
	n := len(ce.lits)
	ce.add = append(ce.add, ce.lits[n-1:n:n])
}

// buildSite encodes the faulty cone above site: the faulty copy of
// every node in site's transitive fanout, reading the free variable f
// for the site itself, and the XOR objective over the outputs the cone
// reaches. It reports false, allocating nothing, when no output is
// reachable from the site — its faults are trivially redundant and need
// no SAT call.
func (ce *coneEncoder) buildSite(site circuit.NodeID) (siteCone, bool) {
	c, enc := ce.c, ce.enc
	// Nodes are stored in topological order, so one forward pass from
	// the site marks its transitive fanout.
	from := int(site)
	ce.inCone[from] = true
	for id := from + 1; id < len(c.Nodes); id++ {
		in := false
		for _, fn := range c.Nodes[id].Fanin {
			if int(fn) >= from && ce.inCone[fn] {
				in = true
				break
			}
		}
		ce.inCone[id] = in
	}
	ce.outs = ce.outs[:0]
	for _, o := range c.Outputs {
		if int(o) >= from && ce.inCone[o] {
			ce.outs = append(ce.outs, o)
		}
	}
	if len(ce.outs) == 0 {
		return siteCone{}, false
	}

	sc := siteCone{node: site, act: ce.vars.NewVar(), f: ce.vars.NewVar()}
	ce.faulty[from] = sc.f
	for id := from + 1; id < len(c.Nodes); id++ {
		if !ce.inCone[id] {
			continue
		}
		n := &c.Nodes[id]
		ce.ins = ce.ins[:0]
		for _, fn := range n.Fanin {
			if int(fn) >= from && ce.inCone[fn] {
				ce.ins = append(ce.ins, ce.faulty[fn])
			} else {
				ce.ins = append(ce.ins, enc.VarOf[fn])
			}
		}
		out := ce.vars.NewVar()
		ce.faulty[id] = out
		circuit.AppendGateCNF(&ce.vars, n.Type, out, ce.ins)
	}
	objective := make(cnf.Clause, 0, len(ce.outs))
	for _, o := range ce.outs {
		d := ce.vars.NewVar()
		ce.ins = append(ce.ins[:0], enc.VarOf[o], ce.faulty[o])
		circuit.AppendGateCNF(&ce.vars, circuit.Xor, d, ce.ins)
		objective = append(objective, cnf.PosLit(d))
	}
	ce.vars.AddClause(objective)
	ce.guard(sc.act)
	return sc, true
}

// buildHead encodes flt's own clauses over its site's faulty value f
// and returns their activation variable. A stem fault s-a-v sets f = v
// and activates with good(site) = ¬v; a branch fault on pin k sets a
// fresh pin variable p = v, activates with good(fanin k) = ¬v, and
// defines f by the site's gate with pin k reading p.
func (ce *coneEncoder) buildHead(flt Fault, f cnf.Var) cnf.Var {
	valueLit := func(v cnf.Var, val bool) cnf.Lit { return cnf.NewLit(v, !val) }
	act := ce.vars.NewVar()
	n := &ce.c.Nodes[flt.Node]
	if flt.Pin < 0 {
		ce.vars.Add(valueLit(f, flt.StuckAt))
		ce.vars.Add(valueLit(ce.enc.VarOf[flt.Node], !flt.StuckAt))
	} else {
		p := ce.vars.NewVar()
		ce.vars.Add(valueLit(p, flt.StuckAt))
		ce.vars.Add(valueLit(ce.enc.VarOf[n.Fanin[flt.Pin]], !flt.StuckAt))
		ce.ins = ce.ins[:0]
		for pin, fn := range n.Fanin {
			if pin == flt.Pin {
				ce.ins = append(ce.ins, p)
			} else {
				ce.ins = append(ce.ins, ce.enc.VarOf[fn])
			}
		}
		circuit.AppendGateCNF(&ce.vars, n.Type, f, ce.ins)
	}
	ce.guard(act)
	return act
}

// guard moves the part's unguarded clauses into the Add set, each with
// ¬act appended.
func (ce *coneEncoder) guard(act cnf.Var) {
	for _, cl := range ce.vars.Clauses {
		at := len(ce.lits)
		ce.lits = append(append(ce.lits, cl...), cnf.NegLit(act))
		n := len(ce.lits)
		ce.add = append(ce.add, ce.lits[at:n:n])
	}
	ce.vars.Clauses = ce.vars.Clauses[:0]
}

// extractPattern reads the primary-input assignment out of a model.
func extractPattern(c *circuit.Circuit, enc *circuit.Encoding, model cnf.Assignment) []cnf.LBool {
	pat := make([]cnf.LBool, len(c.Inputs))
	for i, id := range c.Inputs {
		pat[i] = model.Value(enc.VarOf[id])
	}
	return pat
}
