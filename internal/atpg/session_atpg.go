package atpg

import (
	"context"
	"fmt"

	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/session"
	"repro/internal/solver"
)

// sessionATPG is the incremental fault loop running against a resident
// solve session instead of an in-process solver: the good circuit's
// CNF lives in the session, each fault ships its guarded cone clauses
// as the query's Add set and solves under the activation assumption.
// The previous fault's retirement unit ¬a_{i-1} is folded into the next
// query's Add set, so the whole loop is one query per fault.
//
// Verdicts are identical to incrementalATPG by construction: the same
// coneQuery encoding feeds both engines.
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
	// retire is the pending ¬act unit from the previous fault.
	retire []cnf.Clause
}

// newSessionATPG opens a session on m holding c's good-circuit CNF.
// The caller owns the returned engine's session via Close.
func newSessionATPG(m *session.Manager, c *circuit.Circuit, opts Options) (*sessionATPG, error) {
	enc := circuit.Encode(c)
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
	req := session.Request{
		Assume:       []cnf.Lit{cnf.PosLit(q.act)},
		Add:          append(sa.retire, q.clauses...),
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
	sa.retire = []cnf.Clause{{cnf.NegLit(q.act)}}
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
// universe through one resident session on m — the session-service
// flavor of GenerateTests with Options.Incremental.
func GenerateTestsSession(ctx context.Context, m *session.Manager, c *circuit.Circuit, opts Options) (*Report, error) {
	faults := FaultUniverse(c)
	if !opts.NoCollapse {
		faults = Collapse(c, faults)
	}
	return GenerateTestsSessionFor(ctx, m, c, faults, opts)
}

// GenerateTestsSessionFor runs the fault list through one session on m.
// The session is opened for the run and evicted before returning.
func GenerateTestsSessionFor(ctx context.Context, m *session.Manager, c *circuit.Circuit, faults []Fault, opts Options) (*Report, error) {
	if opts.MaxConflicts == 0 {
		opts.MaxConflicts = 20000
	}
	eng, err := newSessionATPG(m, c, opts)
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	return runFaults(ctx, c, faults, opts, eng), nil
}
