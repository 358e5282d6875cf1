// Package core assembles the paper's complete SAT "package": the
// Preprocess() stage of Figure 2 (simplification, equivalency reasoning,
// recursive learning on CNF) in front of the backtrack-search engine,
// with optional local-search and hardware-model back ends. It is the
// high-level entry point the EDA applications and command-line tools
// use; the individual techniques live in the solver, preprocess,
// reclearn, localsearch and hwsat packages.
package core

import (
	"context"
	"time"

	"repro/internal/cnf"
	"repro/internal/localsearch"
	"repro/internal/portfolio"
	"repro/internal/preprocess"
	"repro/internal/reclearn"
	"repro/internal/solver"
)

// Engine selects the decision procedure.
type Engine int

// Available engines.
const (
	// EngineCDCL is the modern backtrack-search solver (default).
	EngineCDCL Engine = iota
	// EngineLocalSearch is WalkSAT: incomplete, SAT answers only.
	EngineLocalSearch
)

// Options configures the pipeline.
type Options struct {
	Engine Engine
	// Preprocess enables the simplification pipeline (units, pure
	// literals, subsumption, self-subsumption, probing).
	Preprocess bool
	// EquivalencyReasoning enables variable substitution from the
	// binary implication graph (§6); implies Preprocess.
	EquivalencyReasoning bool
	// RecursiveLearning applies recursive learning of the given depth
	// to strengthen the formula before search (0 = off, §4.2).
	RecursiveLearning int
	// Solver carries backtrack-search options.
	Solver solver.Options
	// Proof, when non-nil, streams a DRAT refutation of f from the
	// search stage, which then runs a single solver (a portfolio runs
	// its base worker alone; see portfolio.Options.Base). The stream
	// certifies the verdict only when Answer.Proved is set: it is
	// withheld whenever a formula-transforming stage runs (Preprocess,
	// EquivalencyReasoning, RecursiveLearning) or a non-CDCL engine is
	// selected, because the proof would refute the transformed
	// formula, not f.
	Proof solver.ProofWriter
	// LocalSearch carries WalkSAT options.
	LocalSearch localsearch.Options
	// PortfolioWorkers, when greater than 1 (or 0 with PortfolioAuto
	// semantics left to the caller), routes the CDCL search stage
	// through a parallel portfolio of that many diversified workers
	// racing on goroutines. 0 or 1 keeps the sequential solver.
	PortfolioWorkers int
	// PortfolioNoShare disables learned-clause exchange between
	// portfolio workers.
	PortfolioNoShare bool
	// PortfolioAdaptive enables the adaptive scheduling supervisor:
	// clearly-losing recipes are killed after PortfolioGrace and their
	// slots respawned with fresh-seeded recipes (portfolio.Options.
	// Adaptive). Ignored unless PortfolioWorkers > 1.
	PortfolioAdaptive bool
	// PortfolioGrace is the minimum worker age before the supervisor
	// may kill it (0 = the portfolio default, 2s).
	PortfolioGrace time.Duration
	// PortfolioPoolQuantile tunes the shared pool's dynamic LBD
	// admission threshold (0 = the portfolio default, 0.5).
	PortfolioPoolQuantile float64
	// PortfolioPrefer names a recipe family a cross-run memory expects
	// to win this instance class (portfolio.Options.PreferRecipe); ""
	// leaves the schedule unbiased.
	PortfolioPrefer string
	// PortfolioMonitor, when non-nil, receives every search-stage
	// solver for live progress sampling (portfolio.Options.Monitor).
	// Setting it routes even a 1-worker search through the portfolio
	// harness — bit-identical to the sequential solver — so the probe
	// works for every CDCL job. The Monitor must be private to this
	// call.
	PortfolioMonitor *portfolio.Monitor
}

// Answer is a pipeline verdict.
type Answer struct {
	Status solver.Status
	// Proved reports that Options.Proof received a complete DRAT
	// refutation of the input formula for this Unsat answer. It is
	// false whenever the stream was withheld (see Options.Proof).
	Proved bool
	// Model is a satisfying assignment over the ORIGINAL variables
	// (preprocessing substitutions undone).
	Model cnf.Assignment
	// Preprocessing / learning statistics, when the stages ran.
	Pre   *preprocess.Stats
	Learn *reclearn.Stats
	// SolverStats is populated when the CDCL engine ran (the winning
	// worker's statistics when a portfolio ran).
	SolverStats *solver.Stats
	// Portfolio reports the full parallel run when PortfolioWorkers > 1.
	Portfolio *portfolio.Result
	// Warm is the branching warm-start profile of the solver that
	// decided the instance (the winning worker's under a portfolio):
	// its top variables by VSIDS activity with their saved phases, over
	// the variable space the search actually ran on. A serving layer's
	// recipe memory records it per instance class and replays it into
	// Options.Solver.WarmStart on the next same-class solve. The
	// sequential engine reports it even on Unknown (a budgeted probe
	// harvests it); a portfolio only with a winner. Empty when the
	// search stage never ran.
	Warm []solver.WarmVar
}

// Solve runs the configured pipeline on f.
func Solve(f *cnf.Formula, opts Options) *Answer {
	return SolveContext(context.Background(), f, opts)
}

// SolveContext runs the configured pipeline on f under ctx: cancelling
// the context interrupts the search stage (sequential or portfolio),
// which then reports Unknown. Preprocessing and recursive learning are
// not interruptible; they are cheap relative to search.
func SolveContext(ctx context.Context, f *cnf.Formula, opts Options) *Answer {
	ans := &Answer{}
	work := f

	// A proof must refute the ORIGINAL formula: any stage that rewrites
	// it (or an incomplete engine) voids the stream for certification.
	solverOpts := opts.Solver
	proofOK := opts.Proof != nil && opts.Engine == EngineCDCL &&
		!opts.Preprocess && !opts.EquivalencyReasoning && opts.RecursiveLearning == 0
	if proofOK {
		solverOpts.Proof = opts.Proof
	}

	var pre *preprocess.Result
	if opts.Preprocess || opts.EquivalencyReasoning {
		popts := preprocess.Options{
			PureLiterals:    true,
			Subsumption:     true,
			SelfSubsumption: true,
			FailedLiterals:  true,
			VarElim:         true,
			Equivalences:    opts.EquivalencyReasoning,
		}
		pre = preprocess.Simplify(work, popts)
		ans.Pre = &pre.Stats
		switch pre.Decided {
		case cnf.False:
			ans.Status = solver.Unsat
			return ans
		case cnf.True:
			ans.Status = solver.Sat
			ans.Model = pre.ExtendModel(cnf.NewAssignment(f.NumVars()))
			return ans
		}
		work = pre.Formula
	}

	if opts.RecursiveLearning > 0 {
		strengthened, res := reclearn.Strengthen(work, reclearn.Options{MaxDepth: opts.RecursiveLearning})
		ans.Learn = &res.Stats
		if res.Unsat {
			ans.Status = solver.Unsat
			return ans
		}
		work = strengthened
	}

	switch opts.Engine {
	case EngineLocalSearch:
		lsOpts := opts.LocalSearch
		userStop := lsOpts.Stop
		lsOpts.Stop = func() bool {
			return ctx.Err() != nil || (userStop != nil && userStop())
		}
		res := localsearch.Solve(work, lsOpts)
		if res.Sat {
			ans.Status = solver.Sat
			ans.Model = finishModel(f, pre, res.Model)
		} else {
			ans.Status = solver.Unknown // incomplete engine
		}
		return ans

	default:
		if opts.PortfolioWorkers > 1 || opts.PortfolioMonitor != nil {
			workers := opts.PortfolioWorkers
			if workers < 1 {
				workers = 1 // monitored sequential solve: 1-worker portfolio
			}
			res := portfolio.Solve(ctx, work, portfolio.Options{
				Workers:      workers,
				NoShare:      opts.PortfolioNoShare,
				Adaptive:     opts.PortfolioAdaptive,
				Grace:        opts.PortfolioGrace,
				PoolQuantile: opts.PortfolioPoolQuantile,
				PreferRecipe: opts.PortfolioPrefer,
				Monitor:      opts.PortfolioMonitor,
				Base:         solverOpts,
			})
			ans.Portfolio = res
			ans.Status = res.Status
			ans.Proved = proofOK && res.Proved
			ans.Warm = res.Warm
			if res.Winner >= 0 {
				stats := res.Workers[res.Winner].Stats
				ans.SolverStats = &stats
			}
			if res.Status == solver.Sat {
				ans.Model = finishModel(f, pre, res.Model)
			}
			return ans
		}
		s := solver.FromFormula(work, solverOpts)
		stopWatch := context.AfterFunc(ctx, s.Interrupt)
		st := s.Solve()
		stopWatch()
		stats := s.Stats
		ans.SolverStats = &stats
		ans.Status = st
		ans.Proved = proofOK && st == solver.Unsat
		// Captured even on Unknown: a budget-bounded probe solve's whole
		// point is harvesting the profile it accumulated before the
		// budget ran out.
		ans.Warm = s.WarmProfile(16)
		if st == solver.Sat {
			ans.Model = finishModel(f, pre, s.Model())
		}
		return ans
	}
}

// finishModel lifts a model of the (possibly simplified) formula back to
// the original variable space.
func finishModel(orig *cnf.Formula, pre *preprocess.Result, m cnf.Assignment) cnf.Assignment {
	out := cnf.NewAssignment(orig.NumVars())
	for v := 1; v < len(out) && v < len(m); v++ {
		out[v] = m[v]
	}
	if pre != nil {
		out = pre.ExtendModel(out)
	} else {
		for v := 1; v < len(out); v++ {
			if out[v] == cnf.Undef {
				out[v] = cnf.False
			}
		}
	}
	return out
}
