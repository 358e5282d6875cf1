package solver

import (
	"time"

	"repro/internal/cnf"
)

// Glue tier bounds for the LBD-tiered reduction (reduceDB). Clauses with
// LBD ≤ coreLBDMax are "core" and live forever; LBD ≤ midLBDMax is the
// "mid" tier, kept unless nearly inactive; everything above is "local"
// and competes on activity every reduction.
const (
	coreLBDMax = 2
	midLBDMax  = 6
)

// Solve decides satisfiability of the loaded clauses under the given
// assumption literals. It may be called repeatedly; clauses and variables
// can be added between calls (incremental SAT, §6). On Unsat under
// assumptions, Core() returns an inconsistent subset of the assumptions.
func (s *Solver) Solve(assumptions ...cnf.Lit) Status {
	s.conflictSet = nil
	s.partial = false
	s.model = s.model[:0] // no model until the next Sat answer; the storage stays
	if !s.ok {
		return Unsat
	}
	s.cancelUntil(0)
	s.applyWarmStart()
	s.startConflicts = s.Stats.Conflicts
	s.startDecisions = s.Stats.Decisions
	for _, a := range assumptions {
		if int(a.Var()) > s.NumVars() {
			s.growTo(int(a.Var()))
		}
	}
	// An assumption over an in-search-eliminated variable re-constrains
	// it; undo the eliminations (they are no longer model-preserving
	// under this query) before searching. One over a retired variable
	// just makes it branchable again.
	for _, a := range assumptions {
		if s.isEliminated(a.Var()) {
			if !s.restoreEliminated() {
				return Unsat
			}
			break
		}
	}
	s.wake(assumptions)
	s.assumptions = assumptions
	if s.opts.Decide == DecideDLIS && !s.dlisOcc {
		s.buildOccLists()
	}
	// Top-level deduction before the search proper.
	if s.propagate() != CRefUndef {
		s.ok = false
		return Unsat
	}
	// A repeat Solve first drops what the level-0 facts added since the
	// last one have settled (sweep.go); the first never does.
	s.maybeSweep()
	// Pick up clauses shared by sibling workers before searching.
	if !s.importShared() {
		return Unsat
	}
	s.maxLearn = float64(s.opts.MaxLearnts)
	if s.maxLearn == 0 {
		s.maxLearn = float64(len(s.clauses)) / 3
		if s.maxLearn < 100 {
			s.maxLearn = 100
		}
	}

	restart := 0
	for {
		limit := s.restartLimit(restart)
		st := s.search(limit)
		if st == Sat {
			s.captureModel()
			return st
		}
		if st != Unknown {
			return st
		}
		if s.stop.Load() || s.budgetExhausted() {
			return Unknown
		}
		restart++
		s.Stats.Restarts++
		s.prog.restarts.Add(1)
		s.cancelUntil(0)
		// Restart boundary: the natural moment to adopt foreign clauses
		// (the trail is empty, so level-0 injection is trivially safe)
		// and to run an inprocessing round over the clause DB.
		if !s.importShared() {
			return Unsat
		}
		inprocStart := time.Now()
		inprocOK := s.inprocess(restart)
		s.prog.phaseNS[PhaseInprocess].Add(int64(time.Since(inprocStart)))
		if !inprocOK {
			return Unsat
		}
	}
}

// captureModel copies the satisfying assignment out of the search into
// s.model, indexed by variable. A solver used incrementally has a
// variable history far longer than its live formula, so the copy must
// run at memmove speed over the history and touch one by one only what
// is live — which a strided pass over vals, or a walk of the whole
// trail with its ever-growing level-0 prefix, does not. modelBase
// therefore holds, by variable, what can never change again: the value
// of everything fixed at level 0 (folded in here, each trail entry
// once in the solver's life), and False everywhere else — the value a
// retired variable is parked at. On top of a copy of it go the live
// assignments (the trail above level 0) and the eliminated variables
// (reconstructed from the removed clauses, newest elimination first).
// Under a theory the filler is Undef: nothing is ever retired there, and
// what an early stop left unassigned is the partial model's X.
func (s *Solver) captureModel() {
	filler := cnf.False
	if s.theory != nil {
		filler = cnf.Undef
	}
	if len(s.modelBase) == 0 {
		s.modelBase = append(s.modelBase, cnf.Undef) // index 0 is no variable
	}
	s.modelBase = growSlice(s.modelBase, s.NumVars()+1, filler)
	fixed := len(s.trail)
	if s.decisionLevel() > 0 {
		fixed = s.trailLim[0]
	}
	for _, l := range s.trail[s.modelFixed:fixed] {
		s.modelBase[l.Var()] = cnf.FromBool(!l.IsNeg())
	}
	s.modelFixed = fixed
	// Into the previous model's storage, unless TakeModel gave it away.
	s.model = append(s.model[:0], s.modelBase...)
	for _, l := range s.trail[fixed:] {
		s.model[l.Var()] = cnf.FromBool(!l.IsNeg())
	}
	s.reconstructModel()
}

// SolveFormulaOnce is a convenience for one-shot solving of f.
func SolveFormulaOnce(f *cnf.Formula, opts Options) (Status, cnf.Assignment) {
	s := FromFormula(f, opts)
	st := s.Solve()
	if st == Sat {
		return st, s.Model()
	}
	return st, nil
}

func (s *Solver) restartLimit(i int) int64 {
	base := int64(s.opts.RestartBase)
	switch s.opts.Restart {
	case RestartNone:
		return -1
	case RestartLuby:
		return base * luby(i)
	case RestartGeometric:
		lim := float64(base)
		for k := 0; k < i; k++ {
			lim *= 1.5
		}
		return int64(lim)
	case RestartFixed:
		return base
	}
	return -1
}

// luby returns the i-th element (0-based) of the Luby sequence
// 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 …
func luby(i int) int64 {
	i++
	for k := uint(1); ; k++ {
		if i == (1<<k)-1 {
			return 1 << (k - 1)
		}
		if i < (1<<k)-1 {
			return luby(i - (1 << (k - 1)))
		}
	}
}

func (s *Solver) budgetExhausted() bool {
	if s.opts.MaxConflicts > 0 && s.Stats.Conflicts-s.startConflicts >= s.opts.MaxConflicts {
		return true
	}
	if s.opts.MaxDecisions > 0 && s.Stats.Decisions-s.startDecisions >= s.opts.MaxDecisions {
		return true
	}
	return false
}

// search runs the SAT(d, beta) loop of Figure 2 until a verdict, a
// restart limit (maxConfl conflicts, -1 = unlimited), or a budget bound.
func (s *Solver) search(maxConfl int64) Status {
	var conflictsHere int64
	for {
		if s.stop.Load() {
			return Unknown // asynchronous Interrupt
		}
		// Propagation time is sampled: one call in propagateSamplePeriod
		// pays two clock reads and its duration is scaled by the period,
		// so the attribution converges without taxing the hot path.
		var confl CRef
		if s.prog.propTick++; s.prog.propTick%propagateSamplePeriod == 0 {
			propStart := time.Now()
			confl = s.propagate()
			s.prog.phaseNS[PhasePropagate].Add(propagateSamplePeriod * int64(time.Since(propStart)))
		} else {
			confl = s.propagate()
		}
		if confl != CRefUndef {
			// Deduce() returned CONFLICT: run Diagnose(). The whole
			// diagnosis — analyze, backtrack, record, decay — is one
			// attribution phase, timed per conflict (clock cost is two
			// reads per conflict, orders of magnitude under the work).
			analyzeStart := time.Now()
			s.Stats.Conflicts++
			s.prog.conflicts.Add(1)
			conflictsHere++
			if s.decisionLevel() == 0 {
				s.ok = false
				return Unsat
			}
			learnt, btLevel, lbd := s.analyze(confl)
			s.noteConflict(lbd)
			s.exportLearnt(learnt, lbd) // before backtracking: levels are live
			if s.opts.Chronological {
				// Chronological search strategies backtrack to the
				// immediately preceding level regardless of diagnosis
				// (unit implicates still go to the top level in record;
				// that forced reset is not a diagnosed backjump).
				if len(learnt) > 1 {
					btLevel = s.decisionLevel() - 1
				}
			} else if jump := s.decisionLevel() - 1 - btLevel; jump > s.Stats.MaxJump {
				s.Stats.MaxJump = jump
			}
			s.cancelUntil(btLevel)
			s.record(learnt, lbd)
			s.decayVar()
			s.decayClause()
			s.prog.phaseNS[PhaseAnalyze].Add(int64(time.Since(analyzeStart)))
			continue
		}

		// No conflict. A structural theory may declare success with a
		// partial assignment (§5: empty justification frontier replaces
		// "all clauses satisfied" as the satisfiability test). It is
		// handed the trail entries it has not seen first; nothing below
		// changes the trail before its Suggest.
		if s.theory != nil {
			s.theory.Assign(s.trail[s.theorySynced:])
			s.theorySynced = len(s.trail)
			if s.decisionLevel() >= len(s.assumptions) && s.theory.Done() {
				s.partial = true
				return Sat
			}
		}
		if s.budgetExhausted() {
			return Unknown
		}
		if maxConfl >= 0 && conflictsHere >= maxConfl {
			return Unknown // restart
		}
		if !s.opts.NoLearning && float64(s.db.learntCount()) >= s.maxLearn+float64(len(s.trail)) {
			reduceStart := time.Now()
			s.reduceDB()
			s.prog.phaseNS[PhaseReduce].Add(int64(time.Since(reduceStart)))
			s.maxLearn *= 1.1
		}
		// Compact the arena once deletions (reduceDB tombstones, dead
		// NoLearning temp clauses) waste enough of it.
		s.maybeGC()

		// Decide(): assumptions first, then theory suggestion, then the
		// configured heuristic.
		next := cnf.LitUndef
		for next == cnf.LitUndef && s.decisionLevel() < len(s.assumptions) {
			p := s.assumptions[s.decisionLevel()]
			switch s.LitValue(p) {
			case cnf.True:
				s.trailLim = append(s.trailLim, len(s.trail)) // dummy level
			case cnf.False:
				s.analyzeFinal(p)
				return Unsat
			default:
				next = p
			}
		}
		if next == cnf.LitUndef && s.theory != nil {
			if sug := s.theory.Suggest(); sug != cnf.LitUndef && s.LitValue(sug) == cnf.Undef {
				next = sug
				s.Stats.Decisions++
			}
		}
		if next == cnf.LitUndef {
			next = s.pickBranchLit()
			if next == cnf.LitUndef {
				return Sat // every variable assigned, no clause falsified
			}
			s.Stats.Decisions++
		}
		s.trailLim = append(s.trailLim, len(s.trail))
		s.uncheckedEnqueue(next, CRefUndef)
	}
}

// record installs a conflict-induced clause and asserts its first literal
// (the conflict-induced necessary assignment). lbd is the clause's
// literal-block distance computed at learn time by analyze.
func (s *Solver) record(learnt []cnf.Lit, lbd int) {
	if s.proof != nil {
		s.proof.Learn(learnt)
	}
	if len(learnt) == 1 {
		// Unit implicates always go to the top level.
		s.cancelUntil(0)
		if s.LitValue(learnt[0]) == cnf.False {
			s.ok = false
			return
		}
		if s.LitValue(learnt[0]) == cnf.Undef {
			s.uncheckedEnqueue(learnt[0], CRefUndef)
		}
		return
	}
	c := s.db.alloc(learnt, true, s.opts.NoLearning, lbd)
	if !s.opts.NoLearning {
		s.db.addLearnt(c)
		s.Stats.Learned++
		s.prog.learned.Add(1)
		if n := int64(s.db.learntCount()); n > s.Stats.MaxLearnts {
			s.Stats.MaxLearnts = n
		}
		s.attach(c)
		s.bumpClause(c)
	}
	// Under NoLearning the clause exists only as the antecedent of its
	// assertion; it is never attached, so it cannot prune future search.
	s.uncheckedEnqueue(learnt[0], c)
}

// reduceDB deletes recorded clauses according to the configured policy
// (§4.1: "in most cases large recorded clauses are eventually deleted").
// It iterates the clause DB's per-tier roster segments; tombstoned
// clauses are removed from their segment here and reclaimed by the
// arena GC (stale watchers are dropped lazily by propagate).
func (s *Solver) reduceDB() {
	locked := func(c CRef) bool {
		first := s.db.lits(c)[0]
		return s.reason[first.Var()] == c && s.LitValue(first) == cnf.True
	}
	switch s.opts.Deletion {
	case DeleteNever:
		return
	case DeleteByRelevance:
		// Relevance-based learning: a clause stays while at most
		// RelevanceBound of its literals are unassigned. Tiers do not
		// matter to this policy; every segment is filtered.
		for t := range s.db.roster {
			rs := s.db.roster[t]
			w := 0
			for _, c := range rs {
				if locked(c) || s.db.size(c) <= 2 || s.unassignedCount(c) <= s.opts.RelevanceBound {
					rs[w] = c
					w++
					continue
				}
				s.proofDelete(c)
				s.db.markDeleted(c)
				s.Stats.Deleted++
			}
			s.db.roster[t] = rs[:w]
		}
	case DeleteByActivity:
		// Glue-tiered reduction over the roster segments. The core
		// segment (learn-time LBD ≤ 2) is never even scanned — those
		// clauses live forever. Mid-tier clauses survive while their
		// touched header bit shows they were used in conflict analysis
		// since the last reduction; idle ones are demoted to the local
		// tier. Local-tier clauses (including fresh demotees) compete
		// on activity against the local mean, capped at half the
		// segment per round (the classic Minisat halving). Touched
		// bits of surviving mid/local clauses are cleared so the next
		// round measures a fresh interval.
		mid := s.db.roster[tierMid]
		w := 0
		for _, c := range mid {
			if s.db.touched(c) || locked(c) || s.db.size(c) <= 2 {
				s.db.clearTouched(c)
				mid[w] = c
				w++
				continue
			}
			s.db.setTier(c, tierLocal)
			s.db.roster[tierLocal] = append(s.db.roster[tierLocal], c)
			s.Stats.Demoted++
		}
		s.db.roster[tierMid] = mid[:w]

		local := s.db.roster[tierLocal]
		if len(local) == 0 {
			return
		}
		mean := s.meanActivity(local)
		w = 0
		removed := 0
		target := len(local) / 2
		for _, c := range local {
			if removed < target && !locked(c) && s.db.size(c) > 2 && s.db.act(c) < mean {
				s.proofDelete(c)
				s.db.markDeleted(c)
				s.Stats.Deleted++
				removed++
				continue
			}
			s.db.clearTouched(c)
			local[w] = c
			w++
		}
		s.db.roster[tierLocal] = local[:w]
	}
}

func (s *Solver) unassignedCount(c CRef) int {
	n := 0
	for _, l := range s.db.lits(c) {
		if s.LitValue(l) == cnf.Undef {
			n++
		}
	}
	return n
}

// meanActivity returns the average activity over one roster segment,
// used as the local tier's deletion threshold. (Minisat sorts and takes
// the median; the mean is an adequate threshold and avoids the sort
// cost.) refs must be non-empty.
func (s *Solver) meanActivity(refs []CRef) float64 {
	sum := 0.0
	for _, c := range refs {
		sum += s.db.act(c)
	}
	return sum / float64(len(refs))
}

// pickBranchLit implements the configured Decide() heuristic.
func (s *Solver) pickBranchLit() cnf.Lit {
	if s.opts.RandomFreq > 0 && s.random().Float64() < s.opts.RandomFreq {
		if l := s.randomLit(); l != cnf.LitUndef {
			return l
		}
	}
	switch s.opts.Decide {
	case DecideDLIS:
		if l := s.dlisLit(); l != cnf.LitUndef {
			return l
		}
	case DecideOrdered:
		for v := cnf.Var(1); int(v) <= s.NumVars(); v++ {
			if s.Value(v) == cnf.Undef && s.varFlags[v] == 0 {
				return cnf.NegLit(v)
			}
		}
		return cnf.LitUndef
	case DecideRandom:
		return s.randomLit()
	}
	// VSIDS (default): most active unassigned variable, saved polarity.
	// Flagged variables never get here: retired ones are parked at a
	// value outside the heap, eliminated ones stay unassigned and have
	// their values reconstructed at Sat time.
	for !s.order.empty() {
		v := s.order.pop()
		if s.Value(v) == cnf.Undef && s.varFlags[v] == 0 {
			return cnf.NewLit(v, !s.phase[v])
		}
	}
	return cnf.LitUndef
}

func (s *Solver) randomLit() cnf.Lit {
	n := s.NumVars()
	if n == 0 {
		return cnf.LitUndef
	}
	// Try random probes, then fall back to a scan.
	for try := 0; try < 10; try++ {
		v := cnf.Var(s.random().Intn(n) + 1)
		if s.Value(v) == cnf.Undef && s.varFlags[v] == 0 {
			return cnf.NewLit(v, s.random().Intn(2) == 0)
		}
	}
	for v := cnf.Var(1); int(v) <= n; v++ {
		if s.Value(v) == cnf.Undef && s.varFlags[v] == 0 {
			return cnf.NewLit(v, s.random().Intn(2) == 0)
		}
	}
	return cnf.LitUndef
}

func (s *Solver) buildOccLists() {
	s.occList = make([][]CRef, 2*(s.NumVars()+1))
	for _, c := range s.clauses {
		for _, l := range s.db.lits(c) {
			s.occList[l.Index()] = append(s.occList[l.Index()], c)
		}
	}
	s.dlisOcc = true
}

// dlisLit implements Dynamic Largest Individual Sum: the unassigned
// literal occurring in the largest number of unresolved clauses.
func (s *Solver) dlisLit() cnf.Lit {
	best := cnf.LitUndef
	bestCount := -1
	for v := cnf.Var(1); int(v) <= s.NumVars(); v++ {
		if s.Value(v) != cnf.Undef || s.varFlags[v] != 0 {
			continue
		}
		for _, l := range []cnf.Lit{cnf.PosLit(v), cnf.NegLit(v)} {
			count := 0
			for _, c := range s.occList[l.Index()] {
				if s.db.deleted(c) {
					continue
				}
				resolved := false
				for _, m := range s.db.lits(c) {
					if s.LitValue(m) == cnf.True {
						resolved = true
						break
					}
				}
				if !resolved {
					count++
				}
			}
			if count > bestCount {
				bestCount = count
				best = l
			}
		}
	}
	return best
}
