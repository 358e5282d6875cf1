package solver

import "repro/internal/cnf"

// This file implements the in-search inprocessing engine: simplification
// of the arena-resident clause database at restart boundaries, while the
// learnt tiers and the level-0 trail are live. Three transforms run under
// one per-round budget, all natively on CRefs/packed headers:
//
//   - Vivification (distillation) of the mid/local learnt tiers: each
//     candidate clause is detached, its literals' negations re-propagated
//     one decision level at a time against the current database, and the
//     clause shrunk in place (clausedb.shrinkTo pads the freed words) or
//     dropped when the probe proves it satisfied at top level. A shrunk
//     clause whose capped LBD crosses a tier bound is promoted.
//
//   - On-the-fly subsumption and self-subsuming resolution of mid/local
//     learnt clauses against the core tier, driven by an occurrence
//     index built lazily from the arena headers. Indexed clauses carry
//     the flagOccIdx header bit so rounds index incrementally; the index
//     aliases CRefs, so any arena relocation drops it (garbageCollect
//     calls inprocState.dropOccIndex, compact clears the flag bits) and
//     the next round rebuilds it.
//
//   - Bounded variable elimination (NiVER-style, the arena-native port
//     of internal/preprocess/varelim.go) over the original clauses at
//     deep boundaries (every fourth round): a variable is eliminated
//     when its non-tautological resolvents do not outnumber the clauses
//     they replace. Elimination is satisfiability- but not
//     model-preserving, so the removed clauses are recorded off-arena
//     and Solve reconstructs the eliminated variables' values into the
//     model at Sat time (newest elimination first). A later assumption
//     or added clause over an eliminated variable re-constrains it and
//     undoes every elimination (restoreEliminated). An eliminated
//     variable carries the varElim flag in Solver.varFlags, the
//     per-variable "not a decision candidate" byte it shares with the
//     level-0 sweep's retired variables (sweep.go).
//
// Invariants the rest of the solver relies on:
//
//   - Rosters and s.clauses contain no tombstoned clauses once a round
//     returns (reduceDB and the GC patch loops assume this).
//   - Reason clauses are never modified or deleted: every transform
//     skips locked clauses (at level 0 a reason's first literal is true
//     at level 0, so such clauses are also level-0 satisfied).
//   - Binary clauses are never modified, and never tombstoned without
//     eager detach: propagate's binary loop does not look at the arena,
//     so a tombstoned binary clause would keep implying. (The level-0
//     sweep's lazily dropped binaries are the one exception — satisfied
//     forever, their watchers can only ever skip.)
//   - No arena GC runs mid-round: CRef snapshots (candidate lists, the
//     occurrence index) stay valid; resolvent allocs only append.

// inprocState is the solver's inprocessing state. The occurrence index
// and the vivification cursor are transient (flushed by the arena GC and
// at checkpoint time); elimRecs is logical solver state.
type inprocState struct {
	occ      [][]CRef // core-tier occurrence lists, by literal index
	occValid bool
	vivCur   int   // round-robin cursor over vivification candidates
	rounds   int64 // rounds run (deep-boundary cadence)

	elimRecs []elimRecord // removed original clauses, in elimination order

	// Scratch buffers reused across rounds.
	cand []CRef
	keep []cnf.Lit
	lits []cnf.Lit
	mark []byte
}

// elimRecord remembers one in-search-eliminated variable and the original
// clauses removed with it (off-arena copies: the arena relocates).
type elimRecord struct {
	v       cnf.Var
	clauses []cnf.Clause
}

// dropOccIndex flushes the occurrence index. Called by garbageCollect
// (relocation invalidates every cached CRef; compact already cleared the
// flagOccIdx bits) and by Checkpoint.
func (ip *inprocState) dropOccIndex() {
	ip.occ = nil
	ip.occValid = false
}

// Solver.varFlags bits. A variable with any bit set is not a decision
// candidate.
const (
	// varElim: eliminated in-search (varElimRound). It stays unassigned;
	// Solve reconstructs its value from the recorded clauses when it
	// captures a Sat model.
	varElim uint8 = 1 << iota
	// varRetired: occurs in no live clause (the level-0 sweep). It is
	// parked at False off the trail until wake.
	varRetired
)

// isEliminated reports whether v was eliminated in-search.
func (s *Solver) isEliminated(v cnf.Var) bool { return s.varFlags[v]&varElim != 0 }

// inprocess runs one inprocessing round if this restart is a boundary
// the cadence selects. It must be called at decision level 0 with the
// propagation queue drained. Returns false when the round proves the
// database unsatisfiable.
func (s *Solver) inprocess(restart int) bool {
	o := &s.opts
	if !o.Inprocess || o.NoLearning || s.theory != nil || s.proof != nil || !s.ok {
		return s.ok
	}
	if restart%o.InprocessEvery != 0 || s.stop.Load() {
		return true
	}
	s.Stats.InprocRounds++
	s.inproc.rounds++
	budget := o.InprocessBudget
	if !o.InprocessNoSubsume {
		if !s.subsumeRound(&budget) {
			return false
		}
	}
	if !o.InprocessNoVivify {
		if !s.vivifyRound(&budget) {
			return false
		}
	}
	// Deep boundary: bounded variable elimination over the original
	// clauses. Skipped while assumptions are active (an assumption
	// variable must stay branchable) — sessions with assumption-carrying
	// queries simply never reach it mid-query.
	if o.InprocessVarElim && s.inproc.rounds%4 == 0 && len(s.assumptions) == 0 {
		if !s.varElimRound(&budget) {
			return false
		}
	}
	s.rebuildRosters()
	return true
}

// rebuildRosters re-derives the three roster segments from the clause
// headers: tombstoned clauses leave, tier-promoted clauses move. Runs at
// the end of every round (reduceDB tolerates neither).
func (s *Solver) rebuildRosters() {
	all := s.inproc.cand[:0]
	for t := range s.db.roster {
		all = append(all, s.db.roster[t]...)
		s.db.roster[t] = s.db.roster[t][:0]
	}
	for _, c := range all {
		if s.db.deleted(c) {
			continue
		}
		t := s.db.tier(c)
		s.db.roster[t] = append(s.db.roster[t], c)
	}
	s.inproc.cand = all[:0]
}

// locked reports whether c is the antecedent of its first literal (the
// only way a clause can be referenced by reason[] — propagate keeps a
// propagated literal at position 0 for as long as it stays assigned).
func (s *Solver) lockedClause(c CRef) bool {
	first := s.db.lits(c)[0]
	return s.reason[first.Var()] == c && s.LitValue(first) == cnf.True
}

// detach eagerly removes clause c's two watchers (by current positions
// 0/1). Inprocessing needs the eager path — unlike reduceDB's lazy
// tombstoning — because a vivified clause is re-attached afterwards and
// must not end up with duplicate watchers.
func (s *Solver) detach(c CRef) {
	lits := s.db.lits(c)
	st := &s.watches
	if len(lits) == 2 {
		st = &s.binWatches
	}
	st.remove(lits[0].Not().Index(), c)
	st.remove(lits[1].Not().Index(), c)
}

// removeClause tombstones c, eagerly detaching binary clauses (the GC's
// binary patch pass assumes binary watchers never reference tombstones;
// long-clause watchers die lazily).
func (s *Solver) removeClause(c CRef) {
	if s.db.size(c) == 2 {
		s.detach(c)
	}
	s.db.markDeleted(c)
}

// replaceInPlace rewrites the detached clause c to the literal set keep.
// Empty → unsat; unit → asserted at level 0 and the clause tombstoned;
// otherwise the clause shrinks in place (freed words become arena pad)
// and is re-attached, promoted to a better tier when its capped LBD
// crosses a bound. Returns false on a top-level contradiction.
func (s *Solver) replaceInPlace(c CRef, keep []cnf.Lit) bool {
	switch len(keep) {
	case 0:
		s.db.markDeleted(c)
		s.ok = false
		return false
	case 1:
		s.db.markDeleted(c)
		switch s.LitValue(keep[0]) {
		case cnf.False:
			s.ok = false
			return false
		case cnf.Undef:
			s.uncheckedEnqueue(keep[0], CRefUndef)
			if s.propagate() != CRefUndef {
				s.ok = false
				return false
			}
		}
		return true
	}
	copy(s.db.lits(c), keep)
	s.db.shrinkTo(c, len(keep))
	if s.db.learnt(c) && !s.db.temp(c) {
		if t := tierOfLBD(s.db.lbd(c)); t < s.db.tier(c) {
			s.db.setTier(c, t) // segment move happens in rebuildRosters
		}
	}
	s.attach(c)
	return true
}

// vivifyRound vivifies mid/local learnt clauses round-robin (the cursor
// persists across rounds so successive rounds reach fresh clauses) until
// the propagation budget is spent.
func (s *Solver) vivifyRound(budget *int64) bool {
	cand := s.inproc.cand[:0]
	cand = append(cand, s.db.roster[tierMid]...)
	cand = append(cand, s.db.roster[tierLocal]...)
	s.inproc.cand = cand
	if len(cand) == 0 {
		return true
	}
	start := s.inproc.vivCur % len(cand)
	for i := 0; i < len(cand) && *budget > 0 && !s.stop.Load(); i++ {
		c := cand[(start+i)%len(cand)]
		s.inproc.vivCur++
		if s.db.deleted(c) || s.db.size(c) <= 2 || s.lockedClause(c) ||
			s.db.occIndexed(c) {
			continue
		}
		if !s.vivifyOne(c, budget) {
			return false
		}
	}
	return true
}

// vivifyOne probes one clause: assert the negation of each literal at a
// fresh decision level and propagate. A literal already false under the
// accumulated prefix is redundant (dropped); a literal propagated true,
// or a conflict, proves the prefix (plus that literal) implies the
// clause, truncating it there. The clause is detached for the whole
// probe — propagation must not use the clause to "prove" itself.
func (s *Solver) vivifyOne(c CRef, budget *int64) bool {
	lits := append(s.inproc.lits[:0], s.db.lits(c)...)
	s.inproc.lits = lits
	s.detach(c)
	keep := s.inproc.keep[:0]
	satisfied := false
	before := s.Stats.Propagations
probe:
	for _, l := range lits {
		switch s.LitValue(l) {
		case cnf.True:
			if s.level[l.Var()] == 0 {
				// Satisfied at top level forever: drop the clause.
				satisfied = true
			} else {
				// Prefix implies l: the clause truncates to prefix+l.
				keep = append(keep, l)
			}
			break probe
		case cnf.False:
			// False at level 0, or implied false by the prefix: drop l.
			continue
		default:
			s.trailLim = append(s.trailLim, len(s.trail))
			s.uncheckedEnqueue(l.Not(), CRefUndef)
			keep = append(keep, l)
			if s.propagate() != CRefUndef {
				// Prefix (including l) refuted: truncate here.
				break probe
			}
		}
	}
	*budget -= s.Stats.Propagations - before
	s.cancelUntil(0)
	s.inproc.keep = keep
	if satisfied {
		s.db.markDeleted(c) // already detached
		s.Stats.Vivified++
		return true
	}
	if len(keep) == len(lits) {
		s.attach(c) // nothing learned; restore as-is
		return true
	}
	s.Stats.Vivified++
	s.Stats.VivifiedLits += int64(len(lits) - len(keep))
	return s.replaceInPlace(c, keep)
}

// buildOccIndex (re)builds the core-tier occurrence index incrementally:
// only clauses without the flagOccIdx header bit are inserted, so a
// valid index extends in O(new core clauses).
func (s *Solver) buildOccIndex() {
	n := 2 * (s.NumVars() + 1)
	if !s.inproc.occValid || s.inproc.occ == nil {
		s.inproc.occ = make([][]CRef, n)
		s.inproc.occValid = true
	}
	for len(s.inproc.occ) < n {
		s.inproc.occ = append(s.inproc.occ, nil)
	}
	for _, c := range s.db.roster[tierCore] {
		if s.db.deleted(c) || s.db.occIndexed(c) {
			continue
		}
		for _, l := range s.db.lits(c) {
			s.inproc.occ[l.Index()] = append(s.inproc.occ[l.Index()], c)
		}
		s.db.setOccIndexed(c)
	}
}

// subsumeRound checks every mid/local learnt clause against the core
// tier through the occurrence index: a core clause whose literals all
// appear in the candidate subsumes it (candidate deleted); a core clause
// matching on all but one literal, whose negation the candidate holds,
// strengthens it (self-subsuming resolution removes that negation).
func (s *Solver) subsumeRound(budget *int64) bool {
	s.buildOccIndex()
	if len(s.db.roster[tierCore]) == 0 {
		return true
	}
	if len(s.inproc.mark) < 2*(s.NumVars()+1) {
		s.inproc.mark = make([]byte, 2*(s.NumVars()+1))
	}
	mark := s.inproc.mark
	cand := s.inproc.cand[:0]
	cand = append(cand, s.db.roster[tierMid]...)
	cand = append(cand, s.db.roster[tierLocal]...)
	s.inproc.cand = cand
	for _, c := range cand {
		if *budget <= 0 || s.stop.Load() {
			break
		}
		if s.db.deleted(c) || s.db.size(c) <= 2 || s.lockedClause(c) {
			continue
		}
		if !s.subsumeOne(c, mark, budget) {
			return false
		}
	}
	return true
}

// subsumeOne scans the occurrence lists of one candidate's literals.
// mark must be all-zero on entry and is restored on exit.
func (s *Solver) subsumeOne(c CRef, mark []byte, budget *int64) bool {
	lits := append(s.inproc.lits[:0], s.db.lits(c)...)
	s.inproc.lits = lits
	for _, l := range lits {
		mark[l.Index()] = 1
	}
	ok := true
scan:
	for _, l := range lits {
		if mark[l.Index()] == 0 {
			continue // removed by an earlier strengthening
		}
		for _, d := range s.inproc.occ[l.Index()] {
			*budget--
			if s.db.deleted(d) || d == c {
				continue
			}
			hits, neg := 0, cnf.LitUndef
			for _, m := range s.db.lits(d) {
				if mark[m.Index()] != 0 {
					hits++
				} else if mark[m.Not().Index()] != 0 {
					if neg != cnf.LitUndef {
						hits = -1 // two negated matches: useless
						break
					}
					neg = m.Not()
				} else {
					hits = -1
					break
				}
			}
			if hits == s.db.size(d) {
				// d subsumes c.
				s.removeClause(c)
				s.Stats.Subsumed++
				break scan
			}
			if neg != cnf.LitUndef && hits == s.db.size(d)-1 {
				// Self-subsuming resolution: drop neg from c.
				mark[neg.Index()] = 0
				s.Stats.StrengthenedLits++
				keep := s.inproc.keep[:0]
				for _, m := range s.db.lits(c) {
					if m != neg {
						keep = append(keep, m)
					}
				}
				s.inproc.keep = keep
				s.detach(c)
				if !s.replaceInPlace(c, keep) {
					ok = false
					break scan
				}
				if s.db.deleted(c) || s.db.size(c) <= 2 {
					break scan // asserted as unit, or now binary
				}
			}
			if *budget <= 0 {
				break scan
			}
		}
	}
	for _, l := range lits {
		mark[l.Index()] = 0
	}
	return ok
}

// varElimRound runs bounded variable elimination over the original
// clauses: per-variable occurrence lists are gathered in one sweep, each
// candidate variable's non-tautological resolvents are counted, and an
// elimination is accepted only when the resolvents do not outnumber the
// clauses they replace (NiVER's "never grow"). Accepted eliminations
// tombstone every clause constraining the variable (learnt clauses over
// eliminated variables are swept afterwards) and allocate the resolvents
// as fresh original clauses.
func (s *Solver) varElimRound(budget *int64) bool {
	const (
		maxOcc       = 10 // per-polarity occurrence cap on candidates
		maxElimRound = 64 // eliminations per round
	)
	nv := s.NumVars()
	// Per-variable occurrence lists over live, not-top-level-satisfied
	// original clauses (satisfied clauses constrain nothing and stay).
	occ := make([][]CRef, nv+1)
	for _, c := range s.clauses {
		if s.db.deleted(c) || s.levelZeroSatisfied(c) {
			continue
		}
		for _, l := range s.db.lits(c) {
			occ[l.Var()] = append(occ[l.Var()], c)
		}
	}
	elim := 0
	var round []cnf.Var // variables eliminated this round
	for v := cnf.Var(1); int(v) <= nv && elim < maxElimRound && *budget > 0 && !s.stop.Load(); v++ {
		if s.Value(v) != cnf.Undef || s.varFlags[v] != 0 || len(occ[v]) == 0 {
			continue
		}
		var pos, neg []CRef
		for _, c := range occ[v] {
			if s.db.deleted(c) || s.levelZeroSatisfied(c) {
				continue
			}
			for _, l := range s.db.lits(c) {
				if l.Var() == v {
					if l.IsNeg() {
						neg = append(neg, c)
					} else {
						pos = append(pos, c)
					}
					break
				}
			}
		}
		if len(pos) == 0 || len(neg) == 0 || len(pos) > maxOcc || len(neg) > maxOcc {
			continue
		}
		*budget -= int64(len(pos) * len(neg))
		resolvents, accept := s.gatherResolvents(v, pos, neg)
		if !accept {
			continue
		}
		// Accept: record off-arena copies, tombstone, add resolvents.
		rec := elimRecord{v: v}
		for _, c := range append(append([]CRef(nil), pos...), neg...) {
			cl := s.liveClauseCopy(c)
			rec.clauses = append(rec.clauses, cl)
			s.removeClause(c)
		}
		s.inproc.elimRecs = append(s.inproc.elimRecs, rec)
		s.varFlags[v] |= varElim
		s.Stats.ElimVars++
		elim++
		round = append(round, v)
		for _, r := range resolvents {
			c, cont := s.addResolvent(r)
			if !cont {
				return false
			}
			if c != CRefUndef {
				// Extend the occurrence sweep so later candidates see
				// the resolvents (deleted entries are filtered above).
				for _, l := range s.db.lits(c) {
					occ[l.Var()] = append(occ[l.Var()], c)
				}
			}
		}
	}
	if elim == 0 {
		return true
	}
	// Sweep learnt clauses over eliminated variables: they constrain
	// variables the database no longer defines. (Locked clauses are
	// level-0 satisfied and constrain nothing; they stay.)
	for t := range s.db.roster {
		for _, c := range s.db.roster[t] {
			if s.db.deleted(c) || s.lockedClause(c) {
				continue
			}
			for _, l := range s.db.lits(c) {
				if s.isEliminated(l.Var()) {
					s.removeClause(c)
					break
				}
			}
		}
	}
	// Drop tombstones from the original-clause list (the GC patch loop
	// forwards every entry and assumes none are deleted).
	w := 0
	for _, c := range s.clauses {
		if s.db.deleted(c) {
			continue
		}
		s.clauses[w] = c
		w++
	}
	s.clauses = s.clauses[:w]
	return true
}

// levelZeroSatisfied reports whether some literal of c is true at
// decision level 0 (the clause is satisfied forever).
func (s *Solver) levelZeroSatisfied(c CRef) bool {
	for _, l := range s.db.lits(c) {
		if s.LitValue(l) == cnf.True && s.level[l.Var()] == 0 {
			return true
		}
	}
	return false
}

// liveClauseCopy copies c's literals, dropping those false at level 0
// (permanently false literals would distort model reconstruction).
func (s *Solver) liveClauseCopy(c CRef) cnf.Clause {
	out := make(cnf.Clause, 0, s.db.size(c))
	for _, l := range s.db.lits(c) {
		if s.LitValue(l) == cnf.False && s.level[l.Var()] == 0 {
			continue
		}
		out = append(out, l)
	}
	return out
}

// gatherResolvents computes all non-tautological resolvents of pos×neg
// on v, accepting only if they number at most len(pos)+len(neg).
func (s *Solver) gatherResolvents(v cnf.Var, pos, neg []CRef) ([]cnf.Clause, bool) {
	limit := len(pos) + len(neg)
	var out []cnf.Clause
	for _, p := range pos {
		for _, n := range neg {
			r, taut := s.resolveRefs(p, n, v)
			if taut {
				continue
			}
			out = append(out, r)
			if len(out) > limit {
				return nil, false
			}
		}
	}
	return out, true
}

// resolveRefs resolves two arena clauses on v, simplifying against the
// level-0 assignment. Tautologies (including clauses with a level-0 true
// literal) report taut.
func (s *Solver) resolveRefs(p, n CRef, v cnf.Var) (cnf.Clause, bool) {
	out := make(cnf.Clause, 0, s.db.size(p)+s.db.size(n)-2)
	for _, c := range []CRef{p, n} {
		for _, l := range s.db.lits(c) {
			if l.Var() == v {
				continue
			}
			if s.LitValue(l) == cnf.True && s.level[l.Var()] == 0 {
				return nil, true // satisfied forever: no constraint
			}
			if s.LitValue(l) == cnf.False && s.level[l.Var()] == 0 {
				continue
			}
			out = append(out, l)
		}
	}
	return out.Normalize()
}

// addResolvent installs one resolvent as an original clause at level 0.
// It returns the allocated CRef (CRefUndef when the resolvent collapsed
// to a unit or was already satisfied) and false on a contradiction.
func (s *Solver) addResolvent(r cnf.Clause) (CRef, bool) {
	switch len(r) {
	case 0:
		s.ok = false
		return CRefUndef, false
	case 1:
		switch s.LitValue(r[0]) {
		case cnf.False:
			s.ok = false
			return CRefUndef, false
		case cnf.Undef:
			s.uncheckedEnqueue(r[0], CRefUndef)
			if s.propagate() != CRefUndef {
				s.ok = false
				return CRefUndef, false
			}
		}
		return CRefUndef, true
	}
	c := s.db.alloc(r, false, false, 0)
	s.clauses = append(s.clauses, c)
	s.attach(c)
	if s.dlisOcc {
		for _, l := range s.db.lits(c) {
			s.occList[l.Index()] = append(s.occList[l.Index()], c)
		}
	}
	return c, true
}

// restoreEliminated undoes every in-search variable elimination by
// re-adding the recorded original clauses (the resolvents stay — they
// are implied). Called when an assumption or a new clause touches an
// eliminated variable. Returns false on a top-level contradiction.
func (s *Solver) restoreEliminated() bool {
	if len(s.inproc.elimRecs) == 0 {
		return s.ok
	}
	s.cancelUntil(0)
	recs := s.inproc.elimRecs
	s.inproc.elimRecs = nil
	for _, rec := range recs {
		s.varFlags[rec.v] &^= varElim
	}
	for _, rec := range recs {
		for _, cl := range rec.clauses {
			if !s.addClauseCore(cl) {
				return false
			}
		}
	}
	return true
}

// reconstructModel assigns values to in-search-eliminated variables in
// the just-captured model, newest elimination first, such that every
// removed clause is satisfied (mirrors preprocess.reconstructEliminated).
func (s *Solver) reconstructModel() {
	recs := s.inproc.elimRecs
	for i := len(recs) - 1; i >= 0; i-- {
		rec := recs[i]
		s.model[rec.v] = cnf.False
		for _, cl := range rec.clauses {
			if s.model.EvalClause(cl) != cnf.True {
				s.model[rec.v] = cnf.True
				break
			}
		}
	}
}
