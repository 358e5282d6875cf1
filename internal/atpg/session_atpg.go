package atpg

import (
	"context"
	"fmt"
	"runtime"

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
// universe through resident sessions on m — the session-service flavor
// of GenerateTests with Options.Incremental.
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
// (Report.Shards).
func GenerateTestsSessionFor(ctx context.Context, m *session.Manager, c *circuit.Circuit, faults []Fault, opts Options) (*Report, error) {
	return generateTestsSessionShards(ctx, m, c, faults, opts, sessionShards(len(faults)))
}

// generateTestsSessionShards deals the fault list across k fresh
// sessions on m. Every query goes through m, so m's Gate meters all of
// them. Each session is evicted on every path out: success, cancel, or
// an Open failing partway through.
func generateTestsSessionShards(ctx context.Context, m *session.Manager, c *circuit.Circuit, faults []Fault, opts Options, k int) (*Report, error) {
	if opts.MaxConflicts == 0 {
		opts.MaxConflicts = 20000
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
