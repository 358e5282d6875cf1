package solver

import (
	"sync/atomic"

	"repro/internal/cnf"
)

// This file holds the cooperation hooks a parallel portfolio needs from
// the sequential engine: an asynchronous interrupt, an export path for
// freshly recorded conflict clauses, an import path that injects
// clauses learned elsewhere at decision level 0, and the Snapshot
// progress probe an adaptive scheduler samples while Solve runs.

// Phase labels the coarse time-attribution buckets a running search
// accumulates nanoseconds into (Progress.PhaseNS). Propagation is
// sampled (one timed call in propagateSamplePeriod, scaled back up);
// the other phases are cheap enough to time exactly — they run per
// conflict or per maintenance event, never per propagation.
type Phase int

// Search phases, in PhaseNS order.
const (
	// PhasePropagate is Boolean constraint propagation (sampled).
	PhasePropagate Phase = iota
	// PhaseAnalyze covers conflict diagnosis: analyze, backtracking and
	// recording the learnt clause.
	PhaseAnalyze
	// PhaseReduce is learnt-database reduction (reduceDB).
	PhaseReduce
	// PhaseInprocess is the restart-boundary inprocessing round
	// (vivification, subsumption, variable elimination) and the
	// between-Solve level-0 sweep.
	PhaseInprocess
	// PhaseGC is the relocating arena compaction.
	PhaseGC
	// PhaseCount sizes PhaseNS arrays.
	PhaseCount
)

// PhaseNames are the stable exposition labels, indexed by Phase.
var PhaseNames = [PhaseCount]string{
	"propagate", "analyze", "reduce_db", "inprocess", "arena_gc",
}

// String returns the phase's exposition label.
func (p Phase) String() string {
	if p < 0 || p >= PhaseCount {
		return "unknown"
	}
	return PhaseNames[p]
}

// propagateSamplePeriod is the propagation-timing sample rate: one in
// this many propagate calls is timed and its duration scaled by the
// period. A power of two keeps the gate a mask; at any realistic
// propagation rate the clock cost disappears (< 1/64 of calls pay two
// time.Now reads) while the estimate converges within milliseconds.
const propagateSamplePeriod = 64

// progressCounters is the atomic mirror of the scheduling-relevant
// Stats, written by the solving goroutine and read by Snapshot.
type progressCounters struct {
	conflicts atomic.Int64
	restarts  atomic.Int64
	learned   atomic.Int64
	lbdHist   [LBDHistBuckets]atomic.Int64
	// Level-0 sweep totals (sweep.go), published after each sweep.
	sweeps, sweptClauses, retiredVars atomic.Int64
	// phaseNS accumulates attributed search nanoseconds per Phase.
	// Written only by the solving goroutine (plain adds would race with
	// Snapshot readers, hence atomics); propagation entries are sampled
	// estimates, the rest exact.
	phaseNS [PhaseCount]atomic.Int64
	// propTick gates the propagation sampling; owned by the solving
	// goroutine, so it needs no atomicity.
	propTick uint32
}

// noteConflict buckets the learn-time LBD of a just-derived conflict
// clause into both the plain Stats histogram and the atomic progress
// mirror. (The conflict count itself is bumped at the conflict site,
// which also covers level-0 conflicts that never reach analyze.)
func (s *Solver) noteConflict(lbd int) {
	b := lbd - 1
	if b < 0 {
		b = 0
	}
	if b >= LBDHistBuckets {
		b = LBDHistBuckets - 1
	}
	s.Stats.LBDHist[b]++
	s.prog.lbdHist[b].Add(1)
}

// Progress is a point-in-time view of a running search. Unlike Stats —
// which may only be read after Solve returns — a Progress snapshot is
// race-free while Solve runs: Snapshot reads atomics the solving
// goroutine maintains alongside the plain counters. It carries exactly
// what an adaptive portfolio supervisor needs to rank workers:
// throughput (Conflicts, Restarts) and learnt-clause quality (the
// learn-time LBD histogram).
type Progress struct {
	// Conflicts and Restarts count since the solver was created (NOT
	// since the current Solve call): a scheduler rates a fresh worker
	// against its spawn time, so per-solver-lifetime totals are the
	// natural unit.
	Conflicts int64
	Restarts  int64
	// Learned counts recorded (non-unit, learning-enabled) clauses.
	Learned int64
	// LBDHist buckets every conflict clause by learn-time LBD: bucket i
	// holds LBD i+1, the last bucket LBD ≥ LBDHistBuckets.
	LBDHist [LBDHistBuckets]int64
	// Sweeps, SweptClauses and RetiredVars mirror the level-0 sweep
	// counters of Stats: sweeps run between Solve calls, clauses they
	// dropped as satisfied, variables they retired.
	Sweeps, SweptClauses, RetiredVars int64
	// PhaseNS attributes accumulated search time to coarse phases,
	// indexed by Phase (labels in PhaseNames): propagation (sampled
	// estimate), conflict analysis, reduceDB, inprocessing, arena GC.
	// The remainder against wall-clock is decision/bookkeeping time.
	PhaseNS [PhaseCount]int64
}

// GlueShare returns the fraction of conflict clauses with learn-time
// LBD ≤ 3 — the "glue" mass of the histogram, in [0, 1]. It reports 0
// when no conflicts have happened yet.
func (p *Progress) GlueShare() float64 {
	var total, glue int64
	for i, n := range p.LBDHist {
		total += n
		if i < 3 {
			glue += n
		}
	}
	if total == 0 {
		return 0
	}
	return float64(glue) / float64(total)
}

// Snapshot samples the running search. Like Interrupt it is safe to
// call from another goroutine at any time; the fields are individually
// atomic (the snapshot is not a single consistent cut, which a
// scheduler sampling rates does not need).
func (s *Solver) Snapshot() Progress {
	p := Progress{
		Conflicts: s.prog.conflicts.Load(),
		Restarts:  s.prog.restarts.Load(),
		Learned:   s.prog.learned.Load(),

		Sweeps:       s.prog.sweeps.Load(),
		SweptClauses: s.prog.sweptClauses.Load(),
		RetiredVars:  s.prog.retiredVars.Load(),
	}
	for i := range p.LBDHist {
		p.LBDHist[i] = s.prog.lbdHist[i].Load()
	}
	for i := range p.PhaseNS {
		p.PhaseNS[i] = s.prog.phaseNS[i].Load()
	}
	return p
}

// Interrupt asynchronously requests that the current (or next) Solve
// call stop and return Unknown. It is the only Solver method that is
// safe to call from another goroutine while Solve runs. The request is
// sticky: it persists across Solve calls until ClearInterrupt.
func (s *Solver) Interrupt() { s.stop.Store(true) }

// Interrupted reports whether an interrupt has been requested and not
// yet cleared.
func (s *Solver) Interrupted() bool { return s.stop.Load() }

// ClearInterrupt rearms the solver after an Interrupt so it can be
// reused for further Solve calls.
func (s *Solver) ClearInterrupt() { s.stop.Store(false) }

// exportLearnt offers a just-recorded conflict clause to the ExportClause
// hook when it passes the length/LBD quality filter. Unit clauses are
// always exported (they are top-level facts every worker wants). The
// literal slice is lent to the hook for the duration of the call only —
// no copy is made here; a consumer that keeps the clause (e.g. a shared
// pool accepting it) copies on acceptance. lbd was computed at learn
// time by analyze, so no level scan happens on the export path either.
func (s *Solver) exportLearnt(learnt []cnf.Lit, lbd int) {
	if s.opts.ExportClause == nil {
		return
	}
	if len(learnt) > 1 && (len(learnt) > s.opts.ShareMaxLen || lbd > s.opts.ShareMaxLBD) {
		return
	}
	s.Stats.Exported++
	if !s.opts.ExportClause(learnt, lbd) {
		// Terminal stop from the consumer (it is being torn down and
		// will never accept again): stop paying the callback for the
		// rest of this solve.
		s.opts.ExportClause = nil
	}
}

// lbd computes the literal-block distance of a clause under the current
// assignment: the number of distinct decision levels among its literals.
// Lower is better; LBD 2 ("glue") clauses connect exactly two levels.
// Every literal must be assigned. Levels are counted through an
// epoch-stamped mark per level, so a call costs one pass and allocates
// nothing at any depth.
func (s *Solver) lbd(lits []cnf.Lit) int {
	s.lbdMark = growSlice(s.lbdMark, s.decisionLevel()+1, 0)
	if s.lbdEpoch++; s.lbdEpoch == 0 {
		clear(s.lbdMark)
		s.lbdEpoch = 1
	}
	n := 0
	for _, l := range lits {
		if lvl := s.level[l.Var()]; s.lbdMark[lvl] != s.lbdEpoch {
			s.lbdMark[lvl] = s.lbdEpoch
			n++
		}
	}
	return n
}

// importShared drains the ImportClauses hook, injecting every foreign
// clause at decision level 0. It must be called with an empty trail
// queue at level 0. It returns false if an imported clause (all of which
// are consequences of the problem clauses) closes the formula — i.e. the
// database became unsatisfiable. Import is suppressed while a proof is
// being streamed (Options.Proof): foreign clauses are not
// RUP steps of this solver's lemma sequence, so they would poison an
// otherwise verifiable refutation.
func (s *Solver) importShared() bool {
	if s.opts.ImportClauses == nil || s.proof != nil {
		return true
	}
	for _, c := range s.opts.ImportClauses() {
		if !s.injectLearnt(c) {
			return false
		}
	}
	return true
}

// injectLearnt installs one foreign clause at decision level 0. The
// clause must be implied by the problem clauses; lits is copied, never
// mutated (it may be shared with concurrent readers). Returns false on a
// top-level contradiction.
func (s *Solver) injectLearnt(lits cnf.Clause) bool {
	if s.decisionLevel() != 0 {
		s.cancelUntil(0)
	}
	out := make([]cnf.Lit, 0, len(lits))
	for _, l := range lits {
		if int(l.Var()) > s.NumVars() {
			// A worker with a private extension variable leaked a clause
			// mentioning it; growing is sound but such clauses should not
			// normally reach us. Accept and grow.
			s.growTo(int(l.Var()))
		}
	}
	s.wake(lits)
	for _, l := range lits {
		switch s.LitValue(l) {
		case cnf.True:
			return true // satisfied at level 0 forever
		case cnf.False:
			continue // permanently false literal
		default:
			out = append(out, l)
		}
	}
	switch len(out) {
	case 0:
		s.ok = false
		return false
	case 1:
		s.uncheckedEnqueue(out[0], CRefUndef)
		if s.propagate() != CRefUndef {
			s.ok = false
			return false
		}
	default:
		if s.opts.NoLearning {
			// A no-learning configuration must not acquire pruning
			// clauses through the back door; only unit facts (which
			// even NoLearning asserts at top level) are adopted.
			return true
		}
		// Foreign clauses carry no learn-time LBD; rate them by their
		// level-0 length so tiered deletion treats short imports kindly.
		c := s.db.alloc(out, true, false, len(out))
		s.db.addLearnt(c)
		s.attach(c)
		s.bumpClause(c)
	}
	s.Stats.Imported++
	return true
}
