// Package solver implements a modern backtrack-search SAT solver in the
// GRASP family, organized exactly around the generic template of the
// paper's Figure 2: Decide() selects assignments, Deduce() derives implied
// assignments (Boolean constraint propagation with watched literals),
// Diagnose() analyzes conflicts to a first unique implication point, and
// Erase() undoes implied assignments on backtracking.
//
// All the techniques the paper highlights for modern solvers (§4.1, §6)
// are implemented and individually switchable so the historical algorithms
// can be recovered as configurations:
//
//   - non-chronological backtracking vs. chronological backtracking,
//   - clause recording (conflict-clause learning) with deletion,
//   - relevance-based learning (bounded-lifespan recorded clauses),
//   - conflict-induced necessary assignments (asserting clauses),
//   - randomization and restarts (Luby / geometric policies),
//   - VSIDS- and DLIS-style decision heuristics,
//   - incremental solving under assumptions with core extraction,
//   - a structural "theory" hook used by the circuit layer of §5.
package solver

import "repro/internal/cnf"

// DecisionHeuristic selects how Decide() picks the next branching variable.
type DecisionHeuristic int

// Supported decision heuristics.
const (
	// DecideVSIDS uses exponentially-decayed conflict-driven variable
	// activities (the modern default).
	DecideVSIDS DecisionHeuristic = iota
	// DecideDLIS picks the literal occurring in the most unresolved
	// clauses (Dynamic Largest Individual Sum), a classic GRASP-era
	// heuristic. It rescans occurrence lists at each decision and is
	// therefore slow on large instances; it exists as a baseline.
	DecideDLIS
	// DecideOrdered branches on the lowest-indexed unassigned variable,
	// value false first (the naive textbook order).
	DecideOrdered
	// DecideRandom branches uniformly at random.
	DecideRandom
)

// RestartPolicy selects the restart schedule (§6: "randomization allows
// repeatedly restarting the search each time a given limit number of
// decisions is reached").
type RestartPolicy int

// Supported restart policies. RestartLuby is the zero value so that the
// zero Options really is the documented modern default — it also keeps
// default-configured portfolio workers reaching the restart boundaries
// where shared clauses are imported.
const (
	// RestartLuby restarts after RestartBase * luby(i) conflicts (the
	// modern default).
	RestartLuby RestartPolicy = iota
	// RestartGeometric restarts after RestartBase * 1.5^i conflicts.
	RestartGeometric
	// RestartFixed restarts every RestartBase conflicts.
	RestartFixed
	// RestartNone never restarts.
	RestartNone
)

// DeletionPolicy selects how recorded clauses are eventually deleted
// (§4.1: "in most cases large recorded clauses are eventually deleted").
type DeletionPolicy int

// Supported learned-clause deletion policies.
const (
	// DeleteByActivity periodically reduces the learned-clause database
	// with a glue-tiered policy: clauses with learn-time LBD ≤ 2 (core)
	// are kept forever, LBD ≤ 6 (mid) survive while minimally active,
	// and the rest (local) compete on activity, at most half of the
	// database deleted per round (Minisat-style halving).
	DeleteByActivity DeletionPolicy = iota
	// DeleteByRelevance implements relevance-based learning [Bayardo &
	// Schrag]: a recorded clause is kept while at most RelevanceBound of
	// its literals are unassigned, extending the life-span of clauses
	// that remain relevant to the current search region.
	DeleteByRelevance
	// DeleteNever keeps every recorded clause.
	DeleteNever
)

// Options configures a Solver. The zero value is a usable modern default
// (non-chronological backtracking, learning, VSIDS, Luby restarts).
type Options struct {
	// Chronological forces backtracking to the immediately preceding
	// decision level rather than the level computed by conflict
	// diagnosis, disabling non-chronological backtracking (§4.1 item 1).
	Chronological bool

	// NoLearning disables clause recording (§4.1 item 2): conflict
	// clauses are still derived (they are needed as antecedents of
	// conflict-induced assignments) but are discarded as soon as the
	// assignment they assert is erased, so they never prune future
	// search regions.
	NoLearning bool

	// NoMinimize disables learned-clause minimization
	// (self-subsumption of the first-UIP clause).
	NoMinimize bool

	// Deletion selects the learned-clause deletion policy.
	Deletion DeletionPolicy

	// RelevanceBound is the unassigned-literal bound for
	// DeleteByRelevance. Zero means 4 (relsat's classic default region).
	RelevanceBound int

	// MaxLearnts caps the learned database before deletion triggers.
	// Zero selects an adaptive cap (one third of the problem clauses,
	// growing geometrically).
	MaxLearnts int

	// Restart selects the restart schedule; RestartBase is its unit in
	// conflicts (0 = 100).
	Restart     RestartPolicy
	RestartBase int

	// Decide selects the decision heuristic.
	Decide DecisionHeuristic

	// RandomFreq is the probability of replacing a heuristic decision
	// with a uniformly random unassigned variable (the "randomization"
	// of §6). Typical small values: 0.02.
	RandomFreq float64

	// Seed seeds the solver's deterministic PRNG.
	Seed int64

	// NoPhaseSaving disables progress saving of variable polarities.
	NoPhaseSaving bool

	// Inprocess enables the in-search inprocessing engine: at restart
	// boundaries the solver vivifies mid/local learnt clauses
	// (re-propagating each candidate's negated literals and shrinking or
	// promoting it in place) and subsumes/strengthens learnt clauses
	// against the core tier through an occurrence index rebuilt lazily
	// from the arena headers. Inprocessing is skipped under NoLearning,
	// proof streaming (LogProof/Proof: in-place strengthening rewrites
	// clauses instead of extending the lemma sequence), and while a
	// structural theory is attached.
	Inprocess bool

	// InprocessNoVivify and InprocessNoSubsume veto the individual
	// transforms of an Inprocess-enabled solver (for differential
	// testing and benchmarking of each transform in isolation).
	InprocessNoVivify  bool
	InprocessNoSubsume bool

	// InprocessVarElim additionally runs bounded variable elimination
	// (NiVER-style, as in internal/preprocess but arena-native) over the
	// original clauses at deep restart boundaries — every fourth
	// inprocessing round. Eliminated variables are reconstructed into
	// the model at Sat time. Requires Inprocess; ignored otherwise.
	InprocessVarElim bool

	// InprocessEvery runs an inprocessing round every k-th restart
	// (0 = 4). InprocessBudget bounds the work of one round, measured in
	// propagations (vivification probes) plus occurrence-index steps
	// (0 = 20000).
	InprocessEvery  int
	InprocessBudget int64

	// WarmStart seeds the branching heuristic before the first search:
	// entries are ranked most-important-first, and each seeds the
	// variable's VSIDS activity (descending with rank) and saved phase.
	// A portfolio's recipe memory feeds the previous winning worker's
	// profile (WarmProfile) for the same instance class through this
	// knob. Entries naming variables the solver does not know are
	// ignored.
	WarmStart []WarmVar

	// VarDecay and ClauseDecay control activity decay (0 = defaults
	// 0.95 and 0.999).
	VarDecay, ClauseDecay float64

	// MaxConflicts and MaxDecisions bound the search effort; the solver
	// returns Unknown when a budget is exhausted. Zero means unlimited.
	MaxConflicts int64
	MaxDecisions int64

	// LogProof records the DRAT proof stream — every conflict clause
	// plus a deletion step for every learnt clause the deletion policy
	// drops — into an in-memory log retrievable via Proof(); VerifyUnsat
	// can then independently validate an (assumption-free) Unsat answer.
	// LogProof disables ImportClauses (see there): a verifiable proof
	// must be derived entirely by this solver. Ignored when Proof is
	// also set (the external sink wins and no in-memory log is kept).
	LogProof bool

	// Proof, when non-nil, streams the same DRAT step sequence to an
	// external sink as the search runs (e.g. a DRATWriter over a file),
	// so UNSAT proofs need not grow resident memory. The literal slices
	// passed to the sink are borrowed and valid only during the call.
	// Like LogProof it suppresses ImportClauses and inprocessing, and a
	// solver with a proof sink cannot be checkpointed.
	Proof ProofWriter

	// ExportClause, when non-nil, is invoked from the solving goroutine
	// for every recorded conflict clause of length at most ShareMaxLen
	// and literal-block distance (LBD: the number of distinct decision
	// levels among its literals) at most ShareMaxLBD. The literal slice
	// is valid only for the duration of the call and must not be
	// retained or mutated: a consumer that keeps the clause copies it on
	// acceptance. This is the cooperation hook a portfolio uses to
	// publish learned clauses to sibling workers. Returning false is a
	// terminal stop: it permanently disables further export for this
	// solver (the consumer is being torn down and will never accept
	// again), saving the per-conflict callback. A consumer that merely
	// rejects an offer (admission threshold, transient pressure) must
	// return true.
	ExportClause func(lits []cnf.Lit, lbd int) bool

	// ShareMaxLen and ShareMaxLBD bound which recorded clauses are
	// offered to ExportClause (0 = defaults 8 and 4). Unit clauses are
	// always exported: they are top-level facts.
	ShareMaxLen int
	ShareMaxLBD int

	// ImportClauses, when non-nil, is polled at restart boundaries (and
	// once at the start of each Solve call). Every returned clause must
	// be a logical consequence of the problem clauses — e.g. a clause
	// learned by a sibling portfolio worker over the same formula — and
	// is injected at decision level 0 as a learned clause. The solver
	// copies the literals, so returned slices may be shared across
	// workers. Ignored when LogProof is set: foreign clauses are not
	// RUP-derivable in this solver's own lemma sequence, so importing
	// them would make a correct Unsat answer fail VerifyUnsat.
	ImportClauses func() []cnf.Clause
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.RestartBase == 0 {
		out.RestartBase = 100
	}
	if out.VarDecay == 0 {
		out.VarDecay = 0.95
	}
	if out.ClauseDecay == 0 {
		out.ClauseDecay = 0.999
	}
	if out.RelevanceBound == 0 {
		out.RelevanceBound = 4
	}
	if out.ShareMaxLen == 0 {
		out.ShareMaxLen = 8
	}
	if out.ShareMaxLBD == 0 {
		out.ShareMaxLBD = 4
	}
	if out.InprocessEvery == 0 {
		out.InprocessEvery = 4
	}
	if out.InprocessBudget == 0 {
		out.InprocessBudget = 20000
	}
	return out
}

// Status is the outcome of a Solve call.
type Status int

// Solve outcomes.
const (
	// Unknown means a resource budget was exhausted before an answer.
	Unknown Status = iota
	// Sat means a satisfying (possibly partial, when a structural theory
	// declared early success) assignment was found.
	Sat
	// Unsat means the formula (under the given assumptions) is
	// unsatisfiable.
	Unsat
)

// String renders the status.
func (s Status) String() string {
	switch s {
	case Sat:
		return "SATISFIABLE"
	case Unsat:
		return "UNSATISFIABLE"
	}
	return "UNKNOWN"
}

// LBDHistBuckets is the size of the learn-time LBD histogram kept in
// Stats and Progress: bucket i counts conflict clauses learnt with
// LBD i+1, and the last bucket collects everything at or above
// LBDHistBuckets.
const LBDHistBuckets = 8

// Stats collects search statistics, used by the benchmark harness to
// report the quantities the paper argues about (decisions, conflicts,
// recorded clauses, restarts…).
type Stats struct {
	Decisions    int64
	Propagations int64
	Conflicts    int64
	Restarts     int64
	Learned      int64 // clauses recorded
	Deleted      int64 // learned clauses deleted
	Demoted      int64 // mid-tier clauses demoted to the local tier (untouched between reductions)
	Exported     int64 // clauses offered to the ExportClause hook
	Imported     int64 // foreign clauses injected via ImportClauses
	MaxLearnts   int64 // high-water mark of the learned database
	MinimizedLit int64 // literals removed by clause minimization
	ArenaGCs     int64 // relocating compactions of the clause arena
	MaxJump      int   // largest non-chronological backjump (levels skipped)

	// Inprocessing counters (Options.Inprocess).
	InprocRounds     int64 // inprocessing rounds run at restart boundaries
	Vivified         int64 // clauses shrunk or satisfied-and-dropped by vivification
	VivifiedLits     int64 // literals removed by vivification
	Subsumed         int64 // learnt clauses deleted as subsumed by a core clause
	StrengthenedLits int64 // literals removed by self-subsuming resolution
	ElimVars         int64 // variables eliminated in-search (InprocessVarElim)

	// Level-0 sweep counters (sweep.go): the between-Solve simplification
	// of a solver used incrementally.
	Sweeps       int64 // sweeps run on entry to a repeat Solve
	SweptClauses int64 // original + learnt clauses dropped as satisfied at level 0
	RetiredVars  int64 // variables retired from the decision heuristics (re-retirements count)

	// LBDHist is the learn-time LBD histogram of every conflict clause
	// derived by analyze (including units and NoLearning temp clauses):
	// bucket i counts clauses with LBD i+1, the last bucket LBD ≥
	// LBDHistBuckets. It is the quality signal an adaptive scheduler
	// reads: a worker whose histogram mass sits in the low buckets is
	// producing glue, one whose mass sits high is thrashing.
	LBDHist [LBDHistBuckets]int64
}
