package solver

import (
	"time"

	"repro/internal/cnf"
)

// This file implements the level-0 sweep: the top-level simplification
// that keeps a solver used incrementally (§6) paying for the formula
// that is live, not for everything it was ever given. The incremental
// idiom — add a clause group guarded by an activation literal, solve
// under it, switch the group off for good with a unit — leaves every
// retired group's clauses attached (all satisfied at level 0) and every
// variable that occurred only in them still branchable, so each Sat
// answer decides, propagates and unwinds the whole history.
//
// On entry to the second and every later Solve call, after level-0
// propagation, once enough has been added since the last sweep:
//
//  1. every original and learnt clause satisfied at level 0 is
//     tombstoned (a "d" line goes to the proof sink; the arena GC
//     reclaims the words; a level-0 antecedent among them is cleared —
//     nothing ever reads one);
//  2. every unassigned variable that occurred in a dropped clause and
//     occurs in no kept one is retired: it leaves the VSIDS heap and is
//     parked at False — assigned, but not on the trail, so no backtrack
//     ever frees it for a decision and every Sat model carries a value
//     for it at no cost. Nothing reads the value: the variable is in no
//     live clause. The moment a clause or an assumption mentions it
//     again it is woken, unassigned and back in the heap (Solver.wake);
//  3. the watcher pages of literals that can never be watched again —
//     both polarities of every retired variable and of every variable
//     assigned at level 0 — go back to the stores' free chains, which
//     also takes them out of the arena GC's patch pass.
//
// The first Solve on a solver never sweeps, so a one-shot solve runs
// exactly the search it ran without this file. The sweep is skipped
// where inprocessing is structurally gated as well (a theory, which sees
// only the trail; NoLearning's temp clauses).
//
// Cost: one pass over the live clauses plus one over the dropped ones —
// never over every variable allocated. The trigger (additions reach a
// quarter of what the last sweep left) amortizes the first pass against
// the clauses added since.
//
// Why step 3 is sound. With level-0 propagation at fixpoint, a watcher
// can sit in the list of a literal of a level-0 variable only if its
// clause is satisfied at level 0: walking the now-true literal's list
// either moved the watch away, or kept it because the blocker or the
// other watch was true, or found the clause unit and made its last
// literal true; the now-false literal's list holds clauses containing
// the true one. New watchers never arrive: addClauseCore, injectLearnt,
// conflict analysis and the inprocessing rewrites all strip level-0
// literals, and propagate only moves a watch to a non-false literal of
// an unsatisfied clause. Step 1 dropped every satisfied clause, so what
// is left in those lists is dead. A retired variable occurs in no live
// clause at all.

// sweepFraction sets the trigger: a repeat Solve sweeps when the problem
// clauses attached since the last sweep amount to 1/sweepFraction of the
// clauses that sweep left live.
const sweepFraction = 4

// sweepState is the sweep's bookkeeping. Everything but the scratch
// buffers is logical solver state: a checkpoint carries it so a fork
// sweeps on the same Solve call its original would.
type sweepState struct {
	solved  bool // a Solve call has passed the sweep point
	added   int  // problem clauses attached since the last sweep
	live    int  // problem + learnt clauses live after the last sweep
	trail   int  // level-0 trail prefix whose watcher pages are released
	retired int  // variables currently carrying varRetired

	// Scratch: stamp[v] == epoch marks v as occurring in a clause the
	// running sweep keeps.
	stamp   []uint32
	epoch   uint32
	dropped []CRef
}

// maybeSweep runs the level-0 sweep when this Solve call is a repeat
// and the trigger holds. Called at decision level 0 with the
// propagation queue drained and s.assumptions set.
func (s *Solver) maybeSweep() {
	sw := &s.sweepSt
	if !sw.solved {
		sw.solved = true
		sw.added = 0
		sw.live = len(s.clauses) + s.db.learntCount()
		return
	}
	// Not under a theory: a retired variable is parked off the trail, so
	// the theory would never see its value.
	if s.opts.NoLearning || s.theory != nil {
		return
	}
	if sw.added == 0 || sw.added*sweepFraction < sw.live {
		return
	}
	start := time.Now()
	s.sweep()
	s.prog.phaseNS[PhaseInprocess].Add(int64(time.Since(start)))
}

func (s *Solver) sweep() {
	sw := &s.sweepSt
	if sw.epoch++; sw.epoch == 0 {
		clear(sw.stamp)
		sw.epoch = 1
	}
	sw.stamp = growSlice(sw.stamp, s.NumVars()+1, 0)
	// The query about to run may assume variables no kept clause holds.
	for _, a := range s.assumptions {
		sw.stamp[a.Var()] = sw.epoch
	}

	// Pass 1: split the rosters into kept (variables stamped) and
	// dropped clauses.
	sw.dropped = sw.dropped[:0]
	s.clauses = s.sweepRoster(s.clauses)
	for t := range s.db.roster {
		s.db.roster[t] = s.sweepRoster(s.db.roster[t])
	}

	// Pass 2: tombstone the dropped clauses, retiring the variables
	// only they held.
	for _, c := range sw.dropped {
		s.proofDelete(c)
		for _, l := range s.db.lits(c) {
			v := l.Var()
			if s.reason[v] == c {
				s.reason[v] = CRefUndef
			}
			if s.Value(v) == cnf.Undef && sw.stamp[v] != sw.epoch && s.varFlags[v] == 0 {
				s.retire(v)
			}
		}
		s.db.markDeleted(c)
	}
	for _, p := range s.trail[sw.trail:] {
		s.releaseWatches(p.Var())
	}
	sw.trail = len(s.trail)

	sw.added = 0
	sw.live = len(s.clauses) + s.db.learntCount()
	s.Stats.Sweeps++
	s.Stats.SweptClauses += int64(len(sw.dropped))
	s.publishSweepStats()
}

// publishSweepStats copies the sweep counters into the atomic mirror
// Snapshot reads.
func (s *Solver) publishSweepStats() {
	s.prog.sweeps.Store(s.Stats.Sweeps)
	s.prog.sweptClauses.Store(s.Stats.SweptClauses)
	s.prog.retiredVars.Store(s.Stats.RetiredVars)
}

// sweepRoster filters one clause roster in place: clauses satisfied at
// level 0 move to the dropped list, the variables of the rest are
// stamped as still occurring.
func (s *Solver) sweepRoster(refs []CRef) []CRef {
	sw := &s.sweepSt
	w := 0
	for _, c := range refs {
		if s.levelZeroSatisfied(c) {
			sw.dropped = append(sw.dropped, c)
			continue
		}
		for _, l := range s.db.lits(c) {
			sw.stamp[l.Var()] = sw.epoch
		}
		refs[w] = c
		w++
	}
	return refs[:w]
}

// retire takes an unassigned variable that occurs in no live clause out
// of the decision heuristics and parks it at False.
func (s *Solver) retire(v cnf.Var) {
	s.varFlags[v] |= varRetired
	s.setVar(v, cnf.False)
	s.level[v] = 0
	s.sweepSt.retired++
	s.Stats.RetiredVars++
	s.order.remove(v)
	s.releaseWatches(v)
}

// releaseWatches gives back the watcher pages of both literals of v.
// Only for variables whose every watcher is dead (see the file comment).
func (s *Solver) releaseWatches(v cnf.Var) {
	for _, li := range [2]int{cnf.PosLit(v).Index(), cnf.NegLit(v).Index()} {
		s.watches.release(li)
		s.binWatches.release(li)
	}
}

// NumClauses returns the number of live problem clauses of length two
// or more (units live on the trail; learnt clauses are not counted).
func (s *Solver) NumClauses() int { return len(s.clauses) }

// NumLiveVars returns the number of variables still open in the live
// formula: all variables minus those fixed at level 0 and those the
// level-0 sweep has retired.
func (s *Solver) NumLiveVars() int {
	fixed := len(s.trail)
	if s.decisionLevel() > 0 {
		fixed = s.trailLim[0]
	}
	return s.NumVars() - fixed - s.sweepSt.retired
}
