package solver

import (
	"errors"

	"repro/internal/cnf"
)

// This file implements the solver checkpoint/clone primitive the session
// layer is built on: a Checkpoint freezes a solver's level-0 image (the
// clause arena with its learnt tiers, the top-level trail, saved phases
// and VSIDS activities), and Restore rebuilds a live solver from that
// image without re-propagating from zero. Clone is checkpoint-plus-
// restore in one step: a fork of a resident solver that shares no mutable
// state with the original, so concurrent queries and speculative branches
// do not serialize on one solver.
//
// Why a rebuild is sound (the aliasing invariants the arena demands):
//
//   - Watch sets are reconstructible from the arena alone. propagate's
//     watched-literal swaps keep every clause's two watched literals at
//     positions 0 and 1, so re-attaching each live clause reproduces
//     exactly the watcher pages the original solver had — minus watchers
//     for tombstoned clauses, which lazy deletion would have dropped
//     anyway.
//   - Level-0 antecedents need not survive. Restore leaves reason =
//     CRefUndef for every trail fact: analyze, litRedundant, and
//     analyzeFinal all skip level-0 variables before touching reasons,
//     reduceDB's locked() merely reports such a clause unlocked, and the
//     arena GC's reason patch skips CRefUndef.
//   - No re-propagation is needed. A checkpoint is taken at decision
//     level 0 with the propagation queue drained, so the copied trail is
//     the complete level-0 closure; Restore sets qhead to the trail's
//     end.
//
// The image is taken after an arena compaction, so a checkpoint holds no
// tombstones and its Bytes() reflect live state only.

// ErrCheckpointProof is returned by Checkpoint for a solver with a proof
// sink: a proof is a derivation history, not solver state; a fork would
// hold lemmas it did not derive.
var ErrCheckpointProof = errors.New("solver: cannot checkpoint a solver with proof logging enabled")

// Checkpoint is a frozen level-0 image of a solver. It shares no mutable
// state with the solver it was taken from or with any solver restored
// from it; it is safe to hold across arbitrary further use of the
// original and to Restore from concurrently.
type Checkpoint struct {
	opts    Options // hooks stripped; defaults already applied
	numVars int

	arena   []cnf.Lit
	roster  [numTiers][]CRef
	clauses []CRef

	trail    []cnf.Lit   // the level-0 closure at checkpoint time
	vals     []cnf.LBool // by literal, as in the solver
	phase    []bool
	activity []float64
	varInc   float64
	claInc   float64

	// The decision flags (eliminated / retired variables), the in-search
	// variable-elimination records and the level-0 sweep's trigger state:
	// logical solver state (the restored fork must reconstruct models,
	// honor restore-on-contact, leave retired variables alone and sweep
	// on the same Solve call, exactly like the original). The transient
	// inprocessing state (the occurrence index, the vivification cursor)
	// is deliberately NOT part of the image — see Checkpoint.
	varFlags []uint8
	elimRecs []elimRecord
	sweepSt  sweepState // scratch buffers stripped

	stats Stats
	ok    bool
	warm  bool // Options.WarmStart already applied (activities carry it)
}

// Checkpoint captures the solver's level-0 image. Any in-progress
// assignment above level 0 is erased (as AddClause would), the arena is
// compacted, and every slice is deep-copied. The cooperation hooks
// (ExportClause/ImportClauses) are stripped from the image: a restored
// fork must not feed a clause pool it was never registered with.
//
// A theory is not part of the image: its state follows from the trail,
// so one installed on a restored solver with SetTheory catches up at
// its first hand-over. A solver with a proof sink cannot be
// checkpointed (ErrCheckpointProof).
func (s *Solver) Checkpoint() (*Checkpoint, error) {
	if s.proof != nil {
		return nil, ErrCheckpointProof
	}
	s.cancelUntil(0)
	// Flush the transient inprocessing state before imaging: the
	// occurrence index aliases CRefs the compaction below is about to
	// move, and the vivification cursor is mid-round scheduling state a
	// fork must not inherit — a clone taken mid-inprocessing must search
	// bit-identically to one taken after the round's state was flushed.
	// (Both are rebuilt lazily: the index at the next subsumption round,
	// the cursor from zero.)
	s.inproc.dropOccIndex()
	s.inproc.vivCur = 0
	if s.db.wasted > 0 {
		s.garbageCollect()
	}
	ck := &Checkpoint{
		opts:    s.opts,
		numVars: s.NumVars(),
		arena:   append([]cnf.Lit(nil), s.db.arena...),
		clauses: append([]CRef(nil), s.clauses...),
		trail:   append([]cnf.Lit(nil), s.trail...),
		vals:    append([]cnf.LBool(nil), s.vals...),
		phase:   append([]bool(nil), s.phase...),
		activity: append([]float64(nil),
			s.activity...),
		varFlags: append([]uint8(nil), s.varFlags...),
		varInc:   s.varInc,
		claInc:   s.claInc,
		stats:    s.Stats,
		ok:       s.ok,
		warm:     s.warmDone,
	}
	ck.sweepSt = s.sweepSt
	ck.sweepSt.stamp, ck.sweepSt.epoch, ck.sweepSt.dropped = nil, 0, nil
	ck.opts.ExportClause = nil
	ck.opts.ImportClauses = nil
	for t := range s.db.roster {
		ck.roster[t] = append([]CRef(nil), s.db.roster[t]...)
	}
	if len(s.inproc.elimRecs) > 0 {
		ck.elimRecs = make([]elimRecord, len(s.inproc.elimRecs))
		for i, rec := range s.inproc.elimRecs {
			cp := elimRecord{v: rec.v, clauses: make([]cnf.Clause, len(rec.clauses))}
			for j, cl := range rec.clauses {
				cp.clauses[j] = append(cnf.Clause(nil), cl...)
			}
			ck.elimRecs[i] = cp
		}
	}
	return ck, nil
}

// Restore builds a live solver from the image. The checkpoint is not
// consumed: it may be restored from any number of times, concurrently.
// The restored solver starts with a fresh PRNG (reseeded from
// Options.Seed), the warm heuristic state (activities, saved phases,
// learnt tiers) of the image, and the level-0 trail already propagated.
func (ck *Checkpoint) Restore() *Solver {
	s := &Solver{
		opts:     ck.opts,
		varInc:   ck.varInc,
		claInc:   ck.claInc,
		ok:       ck.ok,
		warmDone: ck.warm,
	}
	s.order = newVarHeap(&s.activity)
	s.growTo(ck.numVars)

	copy(s.vals, ck.vals)
	copy(s.phase, ck.phase)
	copy(s.activity, ck.activity)
	copy(s.varFlags, ck.varFlags)
	s.sweepSt = ck.sweepSt
	// growTo pushed every variable at activity 0; rebuild the heap so the
	// restored activities order it. Retired variables stay out of it.
	s.order.clear()
	for v := cnf.Var(1); int(v) <= ck.numVars; v++ {
		if s.varFlags[v]&varRetired == 0 {
			s.order.push(v)
		}
	}

	s.db.arena = append([]cnf.Lit(nil), ck.arena...)
	s.clauses = append([]CRef(nil), ck.clauses...)
	for t := range ck.roster {
		s.db.roster[t] = append([]CRef(nil), ck.roster[t]...)
	}

	// Level-0 facts: trail copied verbatim, levels already 0 and reasons
	// already CRefUndef from growTo. The closure is complete, so nothing
	// is re-propagated.
	s.trail = append(s.trail, ck.trail...)
	s.qhead = len(s.trail)

	// In-search variable-elimination records (deep-copied: the restored
	// fork may restoreEliminated or reconstruct models independently).
	// The transient inprocessing state (occurrence index, vivification
	// cursor) starts empty and is rebuilt lazily.
	if len(ck.elimRecs) > 0 {
		s.inproc.elimRecs = make([]elimRecord, len(ck.elimRecs))
		for i, rec := range ck.elimRecs {
			cp := elimRecord{v: rec.v, clauses: make([]cnf.Clause, len(rec.clauses))}
			for j, cl := range rec.clauses {
				cp.clauses[j] = append(cnf.Clause(nil), cl...)
			}
			s.inproc.elimRecs[i] = cp
		}
	}

	// Rebuild the watcher pages from the arena: watched literals sit at
	// clause positions 0 and 1 by propagate's invariant.
	for _, c := range s.clauses {
		s.attach(c)
	}
	for t := range s.db.roster {
		for _, c := range s.db.roster[t] {
			s.attach(c)
		}
	}

	s.Stats = ck.stats
	s.prog.conflicts.Store(ck.stats.Conflicts)
	s.prog.restarts.Store(ck.stats.Restarts)
	s.prog.learned.Store(ck.stats.Learned)
	s.publishSweepStats()
	for i := range ck.stats.LBDHist {
		s.prog.lbdHist[i].Store(ck.stats.LBDHist[i])
	}
	return s
}

// Bytes returns the approximate resident size of the image in bytes —
// the quantity a session cache accounts for when it evicts a resident
// solver down to its checkpoint.
func (ck *Checkpoint) Bytes() int {
	b := len(ck.arena)*4 + len(ck.trail)*4 + len(ck.clauses)*4
	for t := range ck.roster {
		b += len(ck.roster[t]) * 4
	}
	b += len(ck.vals) + len(ck.phase) + len(ck.activity)*8 + len(ck.varFlags)
	for _, rec := range ck.elimRecs {
		for _, cl := range rec.clauses {
			b += len(cl) * 4
		}
	}
	return b
}

// NumVars returns the variable count of the image.
func (ck *Checkpoint) NumVars() int { return ck.numVars }

// Clone forks the solver: checkpoint plus restore in one step. The clone
// shares no mutable state with the original — both may solve, grow, and
// be cloned again concurrently. The original's in-progress assignment
// above level 0 (if any) is erased, exactly as AddClause would.
func (s *Solver) Clone() (*Solver, error) {
	ck, err := s.Checkpoint()
	if err != nil {
		return nil, err
	}
	return ck.Restore(), nil
}

// SetBudget replaces the solver's per-Solve effort bounds (zero means
// unlimited). It allows a resident solver to run each incoming query
// under that query's own conflict/decision budget. It must not be called
// while Solve runs.
func (s *Solver) SetBudget(maxConflicts, maxDecisions int64) {
	s.opts.MaxConflicts = maxConflicts
	s.opts.MaxDecisions = maxDecisions
}
