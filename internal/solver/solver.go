package solver

import (
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/cnf"
)

// watcher guards one clause for a watched literal. In the long-clause
// store (size ≥ 3) blocker is some other literal of the clause: if it is
// already true the clause is satisfied and the arena is never touched.
// In the binary store the same struct specializes two-literal clauses:
// blocker IS the clause's other (implied) literal and cref the reason
// reference, so binary propagation performs zero arena reads. Binary
// clauses are never deleted by any reduction policy, so binary lists
// need no lazy-deletion filtering (only GC relocation patching).
type watcher struct {
	cref    CRef
	blocker cnf.Lit
}

// Theory is the hook through which a structural layer (the circuit-SAT
// layer of paper §5) observes the search. Value consistency remains the
// SAT engine's job; the theory maintains justification state and may
// terminate the search early or suggest decisions (backtracing). It sees
// the trail, not each assignment: literals assigned and erased between
// two Done/Suggest rounds never reach it.
type Theory interface {
	// Assign hands over the trail entries appended since the last call.
	Assign(lits []cnf.Lit)
	// Unassign takes back a suffix of what Assign handed; undo it newest first.
	Unassign(lits []cnf.Lit)
	// Done reports whether the current (possibly partial) assignment
	// already establishes satisfiability for the theory's purposes
	// (e.g. an empty justification frontier).
	Done() bool
	// Suggest returns the next decision literal, or LitUndef to defer to
	// the solver's heuristic.
	Suggest() cnf.Lit
}

// Solver is an incremental CDCL SAT solver. Create one with New, add
// clauses with AddClause, then call Solve (optionally with assumption
// literals). The solver may be reused across Solve calls, with more
// variables and clauses added in between (§6: iterative/incremental use).
type Solver struct {
	opts Options
	rng  *rand.Rand // created on first use (random): most configurations never draw

	// Problem state. All clauses live in the flat arena db (which also
	// owns the per-tier learnt rosters); the watcher stores and the
	// clause roster hold CRef offsets into it.
	db         clauseDB
	clauses    []CRef     // original problem clauses
	watches    watchStore // long-clause watcher pages, by literal index
	binWatches watchStore // binary watcher pages (blocker = the implied literal)
	occList    [][]CRef   // static occurrence lists (DLIS only), by lit index

	// vals is the assignment, indexed by literal: an assigned variable
	// holds True at the literal that is true and False at its
	// complement, an unassigned one Undef at both, so the value of a
	// literal is one byte load. uncheckedEnqueue writes the pair,
	// cancelUntil clears it; the level-0 sweep parks a retired variable
	// at False off the trail (sweep.go).
	vals []cnf.LBool

	// Assignment state, indexed by variable.
	level    []int32
	reason   []CRef
	phase    []bool // saved polarity
	activity []float64
	seen     []byte
	// varFlags marks variables that are not decision candidates (varElim,
	// varRetired): the one test every branching heuristic makes.
	varFlags []uint8

	trail    []cnf.Lit
	trailLim []int
	qhead    int

	// Heuristic state.
	order    *varHeap
	varInc   float64
	claInc   float64
	dlisOcc  bool
	maxLearn float64

	// Assumption handling.
	assumptions []cnf.Lit
	conflictSet []cnf.Lit // final conflict core over assumptions

	stop atomic.Bool // asynchronous interrupt request (Interrupt)

	ok           bool // false once the clause set is trivially unsat
	theory       Theory
	theorySynced int            // trail prefix handed to the theory; 0 without one
	partial      bool           // last model is partial (theory early stop)
	model        cnf.Assignment // satisfying assignment copied at Sat time; empty = none

	// What captureModel starts every model from: the values of the
	// level-0 trail prefix trail[:modelFixed], a filler elsewhere.
	modelBase  cnf.Assignment
	modelFixed int

	startConflicts int64 // per-Solve budget baselines
	startDecisions int64

	// Inprocessing state (inprocess.go). The occurrence index and the
	// vivification cursor are transient — dropped by the arena GC and
	// never checkpointed; the variable-elimination records are logical
	// solver state and survive checkpoints.
	inproc inprocState

	// Level-0 sweep state (sweep.go): the between-Solve trigger and the
	// retired-variable count. Logical solver state, checkpointed.
	sweepSt sweepState

	warmDone bool // Options.WarmStart has been applied (first Solve)

	proof ProofWriter // DRAT sink (Options.Proof)

	// prog mirrors the scheduling-relevant subset of Stats in atomics so
	// Snapshot can sample a RUNNING search from another goroutine (the
	// adaptive portfolio supervisor). Updated at conflict granularity —
	// a few atomic adds per conflict, noise next to conflict analysis.
	prog progressCounters

	// Scratch buffers for analyze. learntBuf backs the learnt clause
	// itself: record copies it into the arena and exportLearnt only
	// lends it out, so one buffer serves every conflict.
	analyzeStack []cnf.Lit
	analyzeToClr []cnf.Lit
	learntBuf    []cnf.Lit

	// lbdMark[d] == lbdEpoch marks decision level d as counted by the
	// running lbd call.
	lbdMark  []uint32
	lbdEpoch uint32

	addBuf []cnf.Lit // AddClause's normalization scratch

	Stats Stats
}

// New creates a solver over n variables with the given options.
func New(n int, opts Options) *Solver {
	s := &Solver{
		opts:   opts.withDefaults(),
		varInc: 1.0,
		claInc: 1.0,
		ok:     true,
		proof:  opts.Proof,
	}
	s.order = newVarHeap(&s.activity)
	s.growTo(n)
	return s
}

// FromFormula creates a solver loaded with all clauses of f. The clause
// roster and the arena are sized from f's counts, so loading allocates
// each once.
func FromFormula(f *cnf.Formula, opts Options) *Solver {
	s := New(f.NumVars(), opts)
	words, long := 0, 0
	for _, c := range f.Clauses {
		words += clsHdrWords + len(c)
		if len(c) > 2 {
			long++
		}
	}
	s.db.arena = make([]cnf.Lit, 0, words)
	s.clauses = make([]CRef, 0, len(f.Clauses))
	s.watches.prealloc(2 * long)
	s.binWatches.prealloc(2 * (len(f.Clauses) - long))
	for _, c := range f.Clauses {
		s.AddClause(c)
	}
	return s
}

// NumVars returns the number of variables known to the solver.
func (s *Solver) NumVars() int { return len(s.level) - 1 }

// NewVar adds a fresh variable and returns it.
func (s *Solver) NewVar() cnf.Var {
	s.growTo(s.NumVars() + 1)
	return cnf.Var(s.NumVars())
}

// growTo extends every per-variable and per-literal structure to n
// variables, each with one allocation (New's whole variable range) or
// doubling (NewVar's one at a time).
func (s *Solver) growTo(n int) {
	first := s.NumVars() + 1
	if n < first {
		return
	}
	s.vals = growSlice(s.vals, 2*(n+1), cnf.Undef)
	s.level = growSlice(s.level, n+1, 0)
	s.reason = growSlice(s.reason, n+1, CRefUndef)
	s.phase = growSlice(s.phase, n+1, false)
	s.activity = growSlice(s.activity, n+1, 0)
	s.seen = growSlice(s.seen, n+1, 0)
	s.varFlags = growSlice(s.varFlags, n+1, 0)
	s.trail = reserve(s.trail, n) // a full assignment fits
	s.order.reserve(n)
	for v := max(first, 1); v <= n; v++ {
		s.order.push(cnf.Var(v))
	}
	// The DLIS occurrence lists exist from the first DLIS Solve on;
	// variables added after it need their (empty) lists too.
	if s.dlisOcc {
		s.occList = growSlice(s.occList, 2*(n+1), nil)
	}
	s.watches.growLits(2 * (n + 1))
	s.binWatches.growLits(2 * (n + 1))
}

// growSlice extends s to length n (no-op when it is that long already),
// filling the new tail with fill.
func growSlice[T any](s []T, n int, fill T) []T {
	if n <= len(s) {
		return s
	}
	old := len(s)
	s = reserve(s, n)[:n]
	for i := old; i < n; i++ {
		s[i] = fill
	}
	return s
}

// reserve returns s with capacity for at least n elements. Capacity at
// least doubles when it has to grow (append's policy drops to ~1.25x for
// long slices), so a session that adds a few variables per query
// reallocates its per-variable and per-literal arrays O(log n) times,
// not every few queries.
func reserve[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s
	}
	grown := make([]T, len(s), max(n, 2*cap(s)))
	copy(grown, s)
	return grown
}

// random returns the solver's deterministic PRNG, seeded from
// Options.Seed on the first draw (seeding costs more than loading a
// small formula does).
func (s *Solver) random() *rand.Rand {
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(s.opts.Seed))
	}
	return s.rng
}

// SetTheory installs a structural theory layer (nil detaches it). Its
// first hand-over is the whole trail, level-0 facts included.
func (s *Solver) SetTheory(t Theory) {
	s.theory = t
	s.theorySynced = 0
}

// Okay reports whether the clause database is still possibly satisfiable
// (false after a top-level contradiction was added).
func (s *Solver) Okay() bool { return s.ok }

// Value returns the value of variable v: the live (possibly partial)
// assignment while Solve runs, the model after a Sat answer. For a
// value that outlives further Solve/AddClause calls use Model, which
// copies. (A variable the level-0 sweep retired reads False throughout:
// it is in no clause, and that is the value models give it.)
func (s *Solver) Value(v cnf.Var) cnf.LBool { return s.vals[cnf.PosLit(v)] }

// LitValue returns the value of literal l under the same live-state
// rules as Value.
func (s *Solver) LitValue(l cnf.Lit) cnf.LBool { return s.vals[l] }

// setVar writes variable v's value into both of its literals' slots.
func (s *Solver) setVar(v cnf.Var, b cnf.LBool) {
	s.vals[cnf.PosLit(v)] = b
	s.vals[cnf.NegLit(v)] = b.Not()
}

// Model returns a copy of the satisfying assignment captured by the last
// Sat result (nil if the last Solve was not Sat). When a theory stopped
// the search early the model may be partial (contain Undef entries):
// exactly the non-overspecified patterns of §5.
func (s *Solver) Model() cnf.Assignment {
	if len(s.model) == 0 {
		return nil
	}
	return s.model.Clone()
}

// TakeModel hands over the satisfying assignment captured by the last
// Sat result without copying it: the caller owns the returned slice and
// the solver forgets it (a later Model or TakeModel returns nil until
// the next Sat answer). For callers that read one model per Solve — a
// model is as long as the solver's whole variable history.
func (s *Solver) TakeModel() cnf.Assignment {
	m := s.model
	s.model = nil
	if len(m) == 0 {
		return nil
	}
	return m
}

// PartialModel reports whether the last Sat model was partial.
func (s *Solver) PartialModel() bool { return s.partial }

// Core returns the subset of the assumption literals proven jointly
// inconsistent by the last Unsat answer (the "conflict core"). The
// returned slice is a fresh copy owned by the caller; it stays valid
// across further Solve calls.
func (s *Solver) Core() []cnf.Lit {
	out := make([]cnf.Lit, len(s.conflictSet))
	copy(out, s.conflictSet)
	return out
}

// AddFormula grows the solver to f's variable count, then adds every
// clause of f. This is how an incremental client adds one frame, cone
// or miter pair that it built in a scratch formula numbered from
// NumVars(). The explicit growth matters: a variable that no clause
// mentions (an input that feeds nothing) must still be allocated, or
// the next scratch formula would reuse its number. It returns false
// once the database is trivially unsatisfiable.
func (s *Solver) AddFormula(f *cnf.Formula) bool {
	s.growTo(f.NumVars())
	for _, cl := range f.Clauses {
		s.AddClause(cl)
	}
	return s.ok
}

// decisionLevel returns the current decision level d of Figure 2.
func (s *Solver) decisionLevel() int { return len(s.trailLim) }

// AddClause adds a clause at decision level 0. It returns false if the
// clause makes the database trivially unsatisfiable. Any in-progress
// assignment above level 0 (left over from the previous Solve) is erased.
func (s *Solver) AddClause(lits cnf.Clause) bool {
	if !s.ok {
		return false
	}
	s.cancelUntil(0)
	if mv := int(lits.MaxVar()); mv > s.NumVars() {
		s.growTo(mv)
	}
	// Normalize a solver-owned copy: the arena takes its own copy of
	// what survives, so one buffer serves every clause.
	s.addBuf = append(s.addBuf[:0], lits...)
	norm, taut := cnf.Clause(s.addBuf).NormalizeInPlace()
	if taut {
		return true
	}
	// A new clause over an in-search-eliminated variable re-constrains
	// it: the elimination is no longer model-preserving, so undo it (all
	// of them — records may chain through each other) before adding.
	for _, l := range norm {
		if s.isEliminated(l.Var()) {
			if !s.restoreEliminated() {
				return false
			}
			break
		}
	}
	return s.addClauseCore(norm)
}

// wake makes the variables of lits decision candidates again if the
// level-0 sweep retired them: a clause or assumption is about to
// mention them. Every path that brings literals in from outside the
// clause database calls it (AddClause and restoreEliminated through
// addClauseCore, injectLearnt, Solve for its assumptions).
func (s *Solver) wake(lits []cnf.Lit) {
	if s.sweepSt.retired == 0 {
		return
	}
	for _, l := range lits {
		v := l.Var()
		if s.varFlags[v]&varRetired != 0 {
			s.varFlags[v] &^= varRetired
			s.setVar(v, cnf.Undef)
			s.sweepSt.retired--
			s.order.push(v)
		}
	}
}

// addClauseCore installs an already-normalized clause at decision level
// 0: the tail of AddClause, shared with restoreEliminated (which re-adds
// recorded clauses whose variables are all known).
func (s *Solver) addClauseCore(norm cnf.Clause) bool {
	s.wake(norm)
	// Simplify against top-level assignments.
	out := norm[:0]
	for _, l := range norm {
		switch s.LitValue(l) {
		case cnf.True:
			if s.level[l.Var()] == 0 {
				return true // already satisfied forever
			}
			out = append(out, l)
		case cnf.False:
			if s.level[l.Var()] == 0 {
				continue // permanently false literal
			}
			out = append(out, l)
		default:
			out = append(out, l)
		}
	}
	switch len(out) {
	case 0:
		s.ok = false
		return false
	case 1:
		if s.LitValue(out[0]) == cnf.False {
			s.ok = false
			return false
		}
		if s.LitValue(out[0]) == cnf.Undef {
			s.uncheckedEnqueue(out[0], CRefUndef)
			if s.propagate() != CRefUndef {
				s.ok = false
				return false
			}
		}
		return true
	}
	c := s.db.alloc(out, false, false, 0)
	s.clauses = append(s.clauses, c)
	s.sweepSt.added++
	s.attach(c)
	if s.dlisOcc {
		for _, l := range s.db.lits(c) {
			s.occList[l.Index()] = append(s.occList[l.Index()], c)
		}
	}
	return true
}

func (s *Solver) attach(c CRef) {
	lits := s.db.lits(c)
	if len(lits) == 2 {
		s.binWatches.push(lits[0].Not().Index(), watcher{c, lits[1]})
		s.binWatches.push(lits[1].Not().Index(), watcher{c, lits[0]})
		return
	}
	s.watches.push(lits[0].Not().Index(), watcher{c, lits[1]})
	s.watches.push(lits[1].Not().Index(), watcher{c, lits[0]})
}

// Clause deletion is fully lazy: reduceDB only tombstones headers
// (markDeleted); propagate drops a stale watcher when it meets one, and
// garbageCollect sweeps the rest. There is deliberately no eager detach
// — it would cost two linear watch-list scans per deleted clause.

// uncheckedEnqueue places l on the trail as true with the given
// antecedent (CRefUndef for decisions and top-level facts).
func (s *Solver) uncheckedEnqueue(l cnf.Lit, from CRef) {
	v := l.Var()
	s.vals[l] = cnf.True
	s.vals[l.Not()] = cnf.False
	s.level[v] = int32(s.decisionLevel())
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

// propagate is the Deduce() function of Figure 2: it performs Boolean
// constraint propagation from the current queue head and returns the
// conflicting clause, or CRefUndef if no clause became unsatisfied.
//
// The long-clause loop walks the propagated literal's page in the
// paged watcher store by offset, compacting kept watchers in place. A
// replacement watch is pushed onto ANOTHER literal's page (never the one
// being walked — the new watch is a non-false literal, the walked one is
// false), which may reallocate the store's backing slice; the cached
// data slice is therefore reloaded after every push. Page offsets are
// stable across pushes, so the walk itself never restarts.
func (s *Solver) propagate() CRef {
	vals := s.vals // uncheckedEnqueue writes through the same array
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.Stats.Propagations++
		pi := p.Index()

		// Binary clauses first: the implied literal lives inside the
		// watcher, so this loop never dereferences the arena. No pushes
		// happen here, so holding the page slice is safe.
		for _, bw := range s.binWatches.list(pi) {
			switch vals[bw.blocker] {
			case cnf.True:
			case cnf.False:
				s.qhead = len(s.trail)
				return bw.cref
			default:
				s.uncheckedEnqueue(bw.blocker, bw.cref)
			}
		}

		r := s.watches.ref[pi] // header copy; only our truncate below mutates it
		ws := s.watches.data[r.off : r.off+r.n : r.off+r.n]
		i, j := 0, 0
		var confl CRef = CRefUndef
	watchLoop:
		for i < len(ws) {
			w := ws[i]
			if vals[w.blocker] == cnf.True {
				ws[j] = w
				i++
				j++
				continue
			}
			if s.db.deleted(w.cref) {
				i++
				continue // drop lazily
			}
			lits := s.db.lits(w.cref)
			// Ensure the false literal (¬p) is at index 1.
			if lits[0] == p.Not() {
				lits[0], lits[1] = lits[1], lits[0]
			}
			first := lits[0]
			if first != w.blocker && vals[first] == cnf.True {
				ws[j] = watcher{w.cref, first}
				i++
				j++
				continue
			}
			// Look for a new literal to watch. The push is hand-inlined
			// (watchStore.push is just over the compiler's inline
			// budget and this is the one hot call site).
			for k := 2; k < len(lits); k++ {
				if vals[lits[k]] != cnf.False {
					lits[1], lits[k] = lits[k], lits[1]
					nli := lits[1].Not().Index()
					nr := &s.watches.ref[nli]
					if nr.n == nr.cap {
						s.watches.grow(nli)
					}
					s.watches.data[nr.off+nr.n] = watcher{w.cref, first}
					nr.n++
					// The push may have relocated the backing slice; our
					// page offset is stable, so re-derive the window.
					ws = s.watches.data[r.off : r.off+r.n : r.off+r.n]
					i++
					continue watchLoop
				}
			}
			// Clause is unit or conflicting.
			ws[j] = watcher{w.cref, first}
			i++
			j++
			if vals[first] == cnf.False {
				confl = w.cref
				s.qhead = len(s.trail)
				break
			}
			s.uncheckedEnqueue(first, w.cref)
		}
		for ; i < len(ws); i++ {
			ws[j] = ws[i]
			j++
		}
		s.watches.truncate(pi, uint32(j))
		if confl != CRefUndef {
			return confl
		}
	}
	return CRefUndef
}

// cancelUntil is the Erase() function of Figure 2: it undoes all
// assignments above the given decision level.
func (s *Solver) cancelUntil(lvl int) {
	if s.decisionLevel() <= lvl {
		return
	}
	bound := s.trailLim[lvl]
	if bound < s.theorySynced { // the theory gets back what it was handed
		s.theory.Unassign(s.trail[bound:s.theorySynced])
		s.theorySynced = bound
	}
	for i := len(s.trail) - 1; i >= bound; i-- {
		l := s.trail[i]
		v := l.Var()
		if !s.opts.NoPhaseSaving {
			s.phase[v] = !l.IsNeg()
		}
		if s.opts.NoLearning {
			// The recorded clause dies with its assignment. Temp
			// clauses exist only here and are never attached to watch
			// lists, so the tombstone suffices; the arena GC reclaims
			// the words.
			if r := s.reason[v]; r != CRefUndef && s.db.temp(r) && !s.db.deleted(r) {
				s.db.markDeleted(r)
			}
		}
		s.vals[l] = cnf.Undef
		s.vals[l.Not()] = cnf.Undef
		s.reason[v] = CRefUndef
		s.order.push(v)
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:lvl]
	s.qhead = len(s.trail)
}

// maybeGC runs the relocating arena collector once tombstoned clauses
// waste a quarter of the arena (with a floor so tiny instances never
// bother). Callers must hold no CRef in a local across the call.
func (s *Solver) maybeGC() {
	if s.db.wasted > 1024 && s.db.wasted*4 >= len(s.db.arena) {
		s.garbageCollect()
	}
}

// garbageCollect compacts the clause arena, dropping tombstoned clauses,
// and patches every live reference: long and binary watcher pages,
// reason antecedents and the DLIS occurrence lists. The learnt rosters
// are rebuilt by compact itself (tier membership lives in the clause
// headers), so they need no patching here. Safe at any point where no
// caller holds an unpatched CRef.
//
// The patch pass costs what is live: it walks the watcher stores' used
// rosters (the literals that own a page) and the trail (the variables
// that can have an antecedent), never every literal or variable ever
// allocated — a long-lived incremental solver collects once per few
// queries, and the level-0 sweep releases the pages of literals that
// left the formula.
func (s *Solver) garbageCollect() {
	gcStart := time.Now()
	defer func() { s.prog.phaseNS[PhaseGC].Add(int64(time.Since(gcStart))) }()
	newArena := s.db.compact()
	for i, c := range s.clauses {
		s.clauses[i] = s.db.forward(c)
	}
	// Watcher pages may still reference tombstoned clauses (lazy
	// deletion; in the binary store only level-0-satisfied clauses the
	// sweep dropped): those watchers die here, and mostly-empty pages
	// are exchanged for smaller ones (old page onto the free chain) by
	// shrink — the GC sweep is the one place pages give memory back.
	for _, st := range [...]*watchStore{&s.watches, &s.binWatches} {
		for _, li := range st.used {
			r := st.ref[li]
			data := st.data
			w := uint32(0)
			for i := uint32(0); i < r.n; i++ {
				x := data[r.off+i]
				if s.db.deleted(x.cref) {
					continue
				}
				x.cref = s.db.forward(x.cref)
				data[r.off+w] = x
				w++
			}
			st.shrink(int(li), w)
		}
	}
	// Locked antecedents survive by construction (reduceDB never deletes
	// them, temp reasons are tombstoned only after being cleared, and
	// the sweep clears the level-0 antecedents it deletes). Only trail
	// variables have one.
	for _, l := range s.trail {
		if v := l.Var(); s.reason[v] != CRefUndef {
			s.reason[v] = s.db.forward(s.reason[v])
		}
	}
	if s.dlisOcc {
		// Occurrence lists hold problem clauses; in-search variable
		// elimination may have tombstoned some, so filter while patching.
		for li := range s.occList {
			oc := s.occList[li]
			w := 0
			for _, c := range oc {
				if s.db.deleted(c) {
					continue
				}
				oc[w] = s.db.forward(c)
				w++
			}
			s.occList[li] = oc[:w]
		}
	}
	// Relocation invalidates the inprocessing occurrence index (compact
	// cleared the membership flags); it is rebuilt lazily next round.
	s.inproc.dropOccIndex()
	s.db.adopt(newArena)
	s.Stats.ArenaGCs++
}

func (s *Solver) bumpVar(v cnf.Var) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.order.increased(v)
}

func (s *Solver) decayVar() { s.varInc /= s.opts.VarDecay }

// bumpClause raises a learnt clause's activity and marks it touched:
// reduceDB's mid-tier demotion keeps exactly the clauses that were
// bumped (used in conflict analysis) since the previous reduction.
func (s *Solver) bumpClause(c CRef) {
	a := s.db.act(c) + s.claInc
	s.db.setAct(c, a)
	s.db.setTouched(c)
	if a > 1e20 {
		for t := range s.db.roster {
			for _, lc := range s.db.roster[t] {
				s.db.setAct(lc, s.db.act(lc)*1e-20)
			}
		}
		s.claInc *= 1e-20
	}
}

func (s *Solver) decayClause() { s.claInc /= s.opts.ClauseDecay }
