package solver

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/cnf"
)

// ProofWriter receives the solver's clausal proof stream as the search
// runs: Learn for every conflict clause recorded by analyze (each is
// derivable from the formula plus the preceding live lemmas by reverse
// unit propagation), Delete for every learnt clause dropped by the
// deletion policy. Together the two form a DRAT/DRUP proof — deletion
// lines keep an independent checker's database in lockstep with the
// solver's, so verification stays near-linear instead of degrading as
// dead lemmas pile up. The literal slices are borrowed from solver
// internals and are valid only for the duration of the call: a sink
// that retains a clause must copy it. Calls arrive from the solving
// goroutine only.
type ProofWriter interface {
	Learn(lits []cnf.Lit)
	Delete(lits []cnf.Lit)
}

// ProofStep is one step of an in-memory proof log: a lemma addition or
// (Del) a clause deletion.
type ProofStep struct {
	Del    bool
	Clause cnf.Clause
}

// Proof is the in-memory ProofWriter: the full DRUP/DRAT step sequence
// in derivation order, installed by passing a *Proof as Options.Proof.
// For an assumption-free UNSAT verdict the step sequence is a
// refutation witness checkable by VerifyUnsat — the
// independently "extensively validated SAT algorithms" story the paper
// §5 cites as the main advantage of CNF-based flows.
type Proof struct {
	Steps []ProofStep
}

// Learn appends a lemma-addition step (copies lits).
func (p *Proof) Learn(lits []cnf.Lit) {
	p.Steps = append(p.Steps, ProofStep{Clause: append(cnf.Clause(nil), lits...)})
}

// Delete appends a deletion step (copies lits).
func (p *Proof) Delete(lits []cnf.Lit) {
	p.Steps = append(p.Steps, ProofStep{Del: true, Clause: append(cnf.Clause(nil), lits...)})
}

// NumLemmas counts the addition steps.
func (p *Proof) NumLemmas() int {
	n := 0
	for _, st := range p.Steps {
		if !st.Del {
			n++
		}
	}
	return n
}

// NumDeletions counts the deletion steps.
func (p *Proof) NumDeletions() int { return len(p.Steps) - p.NumLemmas() }

// proofDelete streams a deletion line for a clause leaving the learnt
// database. Must run while the arena words are still readable —
// markDeleted only sets a header flag, so calling it just before or
// after the tombstone is fine, but not after an arena GC.
func (s *Solver) proofDelete(c CRef) {
	if s.proof != nil {
		s.proof.Delete(s.db.lits(c))
	}
}

// Checker verifies a DRUP/DRAT stream incrementally against a formula
// using counter-based unit propagation, deliberately independent of the
// solver's watched-literal engine so bugs cannot self-validate. Unlike
// the one-shot re-propagation it replaces, the checker keeps persistent
// state across steps: the root-level assignment and per-clause
// non-false/satisfied counters survive from lemma to lemma, each RUP
// check only pushes the negated lemma onto a trail and undoes exactly
// the counter updates it made, and deletion steps detach clauses so the
// database tracks the solver's. Total work is near-linear in proof size
// (each step touches only the occurrence lists of the literals it
// assigns) where the old checker re-scanned every clause per lemma.
type Checker struct {
	numVars int
	assign  cnf.Assignment
	trail   []cnf.Lit
	qhead   int // trail prefix whose counter updates have been applied
	clauses []chkClause
	occ     [][]int32          // occ[l.Index()]: ids of clauses containing l
	byKey   map[string][]int32 // sorted-normalized clause → live ids (deletion lookup)
	confl   bool               // root-level conflict derived; proof is complete
	steps   int                // addition steps consumed (error reporting)
}

// chkClause pairs a clause with counters maintained against the
// processed trail prefix: free counts literals not assigned false, sat
// counts literals assigned true. lits is nil once the clause is deleted
// (occurrence and key entries are skipped lazily).
type chkClause struct {
	lits cnf.Clause
	free int32
	sat  int32
}

// NewChecker builds a checker over the formula's clauses with root unit
// propagation already at fixpoint.
func NewChecker(f *cnf.Formula) *Checker {
	c := &Checker{byKey: make(map[string][]int32)}
	c.growTo(f.NumVars())
	for _, cl := range f.Clauses {
		if c.confl {
			break
		}
		norm, taut := cl.Normalize()
		if taut {
			continue
		}
		c.install(norm)
	}
	return c
}

// growTo widens the checker to v variables.
func (c *Checker) growTo(v int) {
	if v > c.numVars {
		c.numVars = v
	}
	if need := c.numVars + 1; len(c.assign) < need {
		c.assign = append(c.assign, make(cnf.Assignment, need-len(c.assign))...)
	}
	if need := 2 * (c.numVars + 1); len(c.occ) < need {
		c.occ = append(c.occ, make([][]int32, need-len(c.occ))...)
	}
}

// clauseKey is the deletion-lookup key: the normalized clause in sorted
// literal order, varint-packed.
func clauseKey(norm cnf.Clause) string {
	s := append(cnf.Clause(nil), norm...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	buf := make([]byte, 0, 4*len(s))
	for _, l := range s {
		buf = binary.AppendVarint(buf, int64(l))
	}
	return string(buf)
}

// enqueue assigns l and pushes it on the trail; it reports false when l
// is already false (a conflict at the caller's level).
func (c *Checker) enqueue(l cnf.Lit) bool {
	switch c.assign.LitValue(l) {
	case cnf.True:
		return true
	case cnf.False:
		return false
	}
	c.assign.Assign(l)
	c.trail = append(c.trail, l)
	return true
}

// propagate applies counter updates for every trail literal from qhead
// on, enqueuing implied units, and reports whether a conflict arises.
// A conflicting literal's occurrence lists are always walked to the
// end: undoTo reverses the updates of every literal below qhead
// wholesale, so partial application would corrupt the counters. On
// conflict qhead may still lag the trail (queued literals never
// processed); undoTo skips those.
func (c *Checker) propagate() bool {
	for c.qhead < len(c.trail) {
		l := c.trail[c.qhead]
		c.qhead++
		for _, ci := range c.occ[l.Index()] {
			if cl := &c.clauses[ci]; cl.lits != nil {
				cl.sat++
			}
		}
		conflict := false
		for _, ci := range c.occ[l.Not().Index()] {
			cl := &c.clauses[ci]
			if cl.lits == nil {
				continue
			}
			cl.free--
			if conflict || cl.sat > 0 {
				continue
			}
			if cl.free == 0 {
				conflict = true
				continue
			}
			if cl.free == 1 {
				// The single non-false literal is unassigned (a true one
				// would show in sat) — unless a queued-but-unprocessed
				// assignment already falsified it, which is a conflict
				// the queue would rediscover anyway.
				unit := cnf.LitUndef
				for _, m := range cl.lits {
					if c.assign.LitValue(m) != cnf.False {
						unit = m
						break
					}
				}
				if unit == cnf.LitUndef {
					conflict = true
					continue
				}
				c.enqueue(unit)
			}
		}
		if conflict {
			return true
		}
	}
	return false
}

// undoTo unwinds the trail to mark, reversing the counter updates of
// the processed prefix. Callers only pass marks taken at the root
// fixpoint, where qhead == len(trail) == mark.
func (c *Checker) undoTo(mark int) {
	for i := len(c.trail) - 1; i >= mark; i-- {
		l := c.trail[i]
		if i < c.qhead {
			for _, ci := range c.occ[l.Index()] {
				if cl := &c.clauses[ci]; cl.lits != nil {
					cl.sat--
				}
			}
			for _, ci := range c.occ[l.Not().Index()] {
				if cl := &c.clauses[ci]; cl.lits != nil {
					cl.free++
				}
			}
		}
		c.assign.Unassign(l)
	}
	c.trail = c.trail[:mark]
	c.qhead = mark
}

// install registers a normalized clause at the root, seeding its
// counters from the current root assignment and propagating
// persistently if it is unit or falsified. Not called once confl holds.
func (c *Checker) install(norm cnf.Clause) {
	c.growTo(int(norm.MaxVar()))
	var free, sat int32
	for _, l := range norm {
		switch c.assign.LitValue(l) {
		case cnf.True:
			sat++
			free++
		case cnf.Undef:
			free++
		}
	}
	id := int32(len(c.clauses))
	c.clauses = append(c.clauses, chkClause{lits: norm, free: free, sat: sat})
	for _, l := range norm {
		c.occ[l.Index()] = append(c.occ[l.Index()], id)
	}
	k := clauseKey(norm)
	c.byKey[k] = append(c.byKey[k], id)
	if sat > 0 {
		return
	}
	if free == 0 {
		c.confl = true
		return
	}
	if free == 1 {
		for _, l := range norm {
			if c.assign.LitValue(l) == cnf.Undef {
				c.enqueue(l)
				break
			}
		}
		if c.propagate() {
			c.confl = true
		}
	}
}

// Learn checks that the lemma is RUP with respect to the current
// database and installs it. It returns a non-nil error when the RUP
// check fails; once the database conflicts at the root the proof is
// complete and every further step is trivially redundant.
func (c *Checker) Learn(cl cnf.Clause) error {
	c.steps++
	if c.confl {
		return nil
	}
	norm, taut := cl.Normalize()
	if taut {
		return nil // a tautology is vacuously RUP and can never propagate
	}
	c.growTo(int(norm.MaxVar()))
	mark := len(c.trail)
	refuted := false
	for _, l := range norm {
		if !c.enqueue(l.Not()) {
			refuted = true // some lemma literal is true at root
			break
		}
	}
	if !refuted {
		refuted = c.propagate()
	}
	c.undoTo(mark)
	if !refuted {
		return fmt.Errorf("solver: lemma %d %v is not RUP", c.steps, cl)
	}
	c.install(norm)
	return nil
}

// Delete detaches one instance of the clause from the database.
// Deleting a clause the database does not hold is a no-op (standard
// DRAT checker behavior — solvers may delete clauses the checker
// already dropped as tautologies). Root-level units implied by the
// clause remain assigned, mirroring the solver, whose level-0
// assignments likewise survive the deletion of their antecedents.
func (c *Checker) Delete(cl cnf.Clause) {
	if c.confl {
		return
	}
	norm, taut := cl.Normalize()
	if taut || int(norm.MaxVar()) > c.numVars {
		return
	}
	k := clauseKey(norm)
	ids := c.byKey[k]
	for i, id := range ids {
		if c.clauses[id].lits == nil {
			continue
		}
		c.clauses[id].lits = nil
		ids[i] = ids[len(ids)-1]
		if rest := ids[:len(ids)-1]; len(rest) > 0 {
			c.byKey[k] = rest
		} else {
			delete(c.byKey, k)
		}
		return
	}
}

// Conflict reports whether the database has propagated to a root-level
// conflict — the condition that completes an UNSAT proof.
func (c *Checker) Conflict() bool { return c.confl }

// Done declares the stream finished: a complete refutation must have
// derived a root conflict by now.
func (c *Checker) Done() error {
	if !c.confl {
		return fmt.Errorf("solver: final database does not propagate to conflict")
	}
	return nil
}

// VerifyUnsat checks that the proof refutes f: every lemma is RUP with
// respect to f plus the preceding live lemmas (deletion steps detach
// clauses first), and the final database propagates to a conflict. It
// returns nil on success.
func VerifyUnsat(f *cnf.Formula, p *Proof) error {
	if p == nil {
		return fmt.Errorf("solver: no proof logged")
	}
	chk := NewChecker(f)
	for _, st := range p.Steps {
		if st.Del {
			chk.Delete(st.Clause)
			continue
		}
		if err := chk.Learn(st.Clause); err != nil {
			return err
		}
	}
	return chk.Done()
}

// VerifyModel checks a Sat answer: the model must satisfy every clause.
func VerifyModel(f *cnf.Formula, m cnf.Assignment) error {
	for i, cl := range f.Clauses {
		if m.EvalClause(cl) != cnf.True {
			return fmt.Errorf("solver: clause %d %v not satisfied by model", i, cl)
		}
	}
	return nil
}
