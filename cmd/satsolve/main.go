// Command satsolve is a DIMACS CNF SAT solver exposing the paper's
// solver configurations: chronological vs non-chronological
// backtracking, clause recording policies, restarts, decision
// heuristics, preprocessing, equivalency reasoning and recursive
// learning.
//
// Usage:
//
//	satsolve [flags] file.cnf     (or stdin with no file)
//
// Output follows the SAT-competition convention: a solution line
// "s SATISFIABLE" / "s UNSATISFIABLE" and, when satisfiable, "v" lines
// with the model.
//
// Profiling: -cpuprofile FILE and -memprofile FILE write runtime/pprof
// profiles covering the parse and the solve, nothing after it.
//
// Proof logging: -drat FILE streams a DRAT refutation (deletion lines
// included) to FILE while solving, on one worker whatever -workers
// asks for, so every UNSAT answer's file is a complete refutation;
// -drat-check FILE verifies such a file against the formula with the
// independent RUP checker instead of solving ("s VERIFIED" and exit 0
// on success).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/solver"
)

func main() {
	var (
		chrono    = flag.Bool("chronological", false, "disable non-chronological backtracking")
		nolearn   = flag.Bool("no-learning", false, "disable clause recording")
		relevance = flag.Int("relevance", 0, "relevance-based deletion bound (0 = activity-based)")
		restarts  = flag.String("restarts", "luby", "restart policy: none|luby|geometric|fixed")
		decide    = flag.String("decide", "vsids", "decision heuristic: vsids|dlis|ordered|random")
		rnd       = flag.Float64("random-freq", 0, "random decision probability")
		seed      = flag.Int64("seed", 0, "random seed")
		pre       = flag.Bool("preprocess", false, "run the preprocessing pipeline")
		equiv     = flag.Bool("equiv", false, "equivalency reasoning (implies -preprocess)")
		reclearn  = flag.Int("reclearn", 0, "recursive learning depth (0 = off)")
		local     = flag.Bool("local-search", false, "use WalkSAT (incomplete)")
		maxConfl  = flag.Int64("max-conflicts", 0, "conflict budget (0 = unlimited)")
		inprocess = flag.Bool("inprocess", false, "in-search inprocessing at restart boundaries: clause vivification, on-the-fly subsumption and bounded variable elimination on the learnt database")
		warmStart = flag.Int64("warm-start", 0, "run a probe solve with this conflict budget first and seed the main search's branching from the probe's most active variables (0 = off)")
		workers   = flag.Int("workers", 1, "portfolio workers racing in parallel (0 = all CPUs, 1 = sequential)")
		share     = flag.Bool("share", true, "share short learned clauses between portfolio workers")
		adaptive  = flag.Bool("adaptive", false, "adaptive portfolio scheduling: kill clearly-losing recipes and respawn with fresh seeds (needs -workers > 1)")
		grace     = flag.Duration("grace", 0, "adaptive scheduling: minimum worker age before it may be killed (0 = 2s)")
		poolQuant = flag.Float64("pool-quantile", 0, "shared-pool dynamic admission quantile in (0,1]: lower admits only the best-LBD clauses (0 = 0.5)")
		dratPath  = flag.String("drat", "", "stream a DRAT proof (deletion lines included) to this file while solving (runs one worker; needs the plain CDCL engine)")
		dratCheck = flag.String("drat-check", "", "verify a DRAT proof file against the formula instead of solving: prints s VERIFIED and exits 0 when the refutation is accepted, exits 1 otherwise")
		timeout   = flag.Duration("timeout", 0, "wall-clock budget, e.g. 10s (0 = none); exhaustion exits 40 with s UNKNOWN")
		stats     = flag.Bool("stats", false, "print search statistics")
		quiet     = flag.Bool("q", false, "suppress model output")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of parsing and solving to this file (read it with go tool pprof)")
		memProf   = flag.String("memprofile", "", "write an allocation profile of parsing and solving to this file, sampled every 4 KB allocated")
	)
	flag.Parse()
	stopProfiles := startProfiles(*cpuProf, *memProf)

	var in io.Reader = os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "satsolve:", err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
	}
	formula, err := cnf.ParseDIMACS(in)
	if err != nil {
		fmt.Fprintln(os.Stderr, "satsolve:", err)
		os.Exit(1)
	}

	if *dratCheck != "" {
		// Checker mode: no solving, just the independent incremental RUP
		// verification of an existing proof file.
		pf, err := os.Open(*dratCheck)
		if err != nil {
			fmt.Fprintln(os.Stderr, "satsolve:", err)
			os.Exit(1)
		}
		verr := solver.VerifyDRAT(formula, pf)
		pf.Close()
		if verr != nil {
			fmt.Fprintln(os.Stderr, "satsolve: proof rejected:", verr)
			os.Exit(1)
		}
		fmt.Println("s VERIFIED")
		os.Exit(0)
	}

	opts := core.Options{
		Preprocess:           *pre,
		EquivalencyReasoning: *equiv,
		RecursiveLearning:    *reclearn,
		Solver: solver.Options{
			Chronological: *chrono,
			NoLearning:    *nolearn,
			RandomFreq:    *rnd,
			Seed:          *seed,
			MaxConflicts:  *maxConfl,
		},
	}
	if *inprocess {
		opts.Solver.Inprocess = true
		opts.Solver.InprocessVarElim = true
	}
	if *relevance > 0 {
		opts.Solver.Deletion = solver.DeleteByRelevance
		opts.Solver.RelevanceBound = *relevance
	}
	switch *restarts {
	case "none":
		opts.Solver.Restart = solver.RestartNone
	case "luby":
		opts.Solver.Restart = solver.RestartLuby
	case "geometric":
		opts.Solver.Restart = solver.RestartGeometric
	case "fixed":
		opts.Solver.Restart = solver.RestartFixed
	default:
		fmt.Fprintf(os.Stderr, "satsolve: unknown restart policy %q\n", *restarts)
		os.Exit(1)
	}
	switch *decide {
	case "vsids":
		opts.Solver.Decide = solver.DecideVSIDS
	case "dlis":
		opts.Solver.Decide = solver.DecideDLIS
	case "ordered":
		opts.Solver.Decide = solver.DecideOrdered
	case "random":
		opts.Solver.Decide = solver.DecideRandom
	default:
		fmt.Fprintf(os.Stderr, "satsolve: unknown heuristic %q\n", *decide)
		os.Exit(1)
	}
	if *local {
		opts.Engine = core.EngineLocalSearch
		opts.LocalSearch.Seed = *seed
	}
	if *workers == 0 {
		*workers = runtime.GOMAXPROCS(0)
	}
	if *workers > 1 && *dratPath != "" {
		fmt.Fprintln(os.Stderr, "satsolve: -drat logs one solver's search; running 1 worker instead of -workers", *workers)
		*workers = 1
	}
	if *workers > 1 {
		if *local {
			fmt.Fprintln(os.Stderr, "satsolve: -workers applies to the CDCL engine only; ignored with -local-search")
		}
		opts.PortfolioWorkers = *workers
		opts.PortfolioNoShare = !*share
		opts.PortfolioAdaptive = *adaptive
		opts.PortfolioGrace = *grace
		opts.PortfolioPoolQuantile = *poolQuant
	} else if *adaptive {
		fmt.Fprintln(os.Stderr, "satsolve: -adaptive needs -workers > 1; ignored")
	}

	var dratFile *os.File
	var dratW *solver.DRATWriter
	if *dratPath != "" {
		if *pre || *equiv || *reclearn > 0 || *local {
			// The proof must refute the INPUT formula; any transforming
			// stage (or an incomplete engine) voids it.
			fmt.Fprintln(os.Stderr, "satsolve: -drat requires the plain CDCL engine (no -preprocess, -equiv, -reclearn or -local-search)")
			os.Exit(1)
		}
		f, err := os.Create(*dratPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "satsolve:", err)
			os.Exit(1)
		}
		dratFile = f
		dratW = solver.NewDRATWriter(f)
		opts.Proof = dratW
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var ans *core.Answer
	if *warmStart > 0 && !*local {
		// Probe solve: a short sequential run under its own conflict
		// budget. A lucky probe decides the instance outright; otherwise
		// its most active variables seed the main search's branching.
		probeOpts := opts
		probeOpts.PortfolioWorkers = 0
		probeOpts.Solver.MaxConflicts = *warmStart
		// The probe writes into the proof stream too. Its lemmas and
		// deletions all precede the main search's, and each of the main
		// search's lemmas stays RUP over the input plus the probe's
		// surviving lemmas, so the file is one refutation whichever
		// solve decides.
		probe := core.SolveContext(ctx, formula, probeOpts)
		if probe.Status != solver.Unknown {
			ans = probe
		} else {
			opts.Solver.WarmStart = probe.Warm
			if *stats {
				fmt.Printf("c warm-start: probe spent %d conflicts, seeding %d variables\n",
					probe.SolverStats.Conflicts, len(probe.Warm))
			}
		}
	}
	if ans == nil {
		ans = core.SolveContext(ctx, formula, opts)
	}
	stopProfiles()
	if dratW != nil {
		if err := dratW.Flush(); err != nil {
			fmt.Fprintln(os.Stderr, "satsolve: drat:", err)
			os.Exit(1)
		}
		if err := dratFile.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "satsolve: drat:", err)
			os.Exit(1)
		}
	}
	if *stats {
		if ans.Pre != nil {
			fmt.Printf("c preprocess: %+v\n", *ans.Pre)
		}
		if ans.Learn != nil {
			fmt.Printf("c reclearn: %+v\n", *ans.Learn)
		}
		if ans.SolverStats != nil {
			s := ans.SolverStats
			fmt.Printf("c decisions %d conflicts %d propagations %d learned %d deleted %d demoted %d restarts %d maxjump %d\n",
				s.Decisions, s.Conflicts, s.Propagations, s.Learned, s.Deleted, s.Demoted, s.Restarts, s.MaxJump)
		}
		if p := ans.Portfolio; p != nil {
			fmt.Printf("c portfolio workers %d winner %d recipe %s kills %d respawns %d\n",
				len(p.Workers), p.Winner, p.Recipe, p.Kills, p.Respawns)
			fmt.Printf("c pool admitted %d rejected %d duplicates %d evicted %d held %d threshold %d\n",
				p.Pool.Admitted, p.Pool.Rejected, p.Pool.Duplicates, p.Pool.Evicted, p.Pool.Held, p.Pool.Threshold)
			for _, w := range p.Workers {
				reason := w.Reason
				if reason == "" {
					reason = "-"
				}
				fmt.Printf("c   worker %d slot %d gen %d %-20s %-13s %-12s conflicts %d imported %d exported %d\n",
					w.ID, w.Slot, w.Gen, w.Recipe, w.Status, reason, w.Stats.Conflicts, w.Stats.Imported, w.Stats.Exported)
			}
		}
	}
	switch ans.Status {
	case solver.Sat:
		fmt.Println("s SATISFIABLE")
		if !*quiet {
			fmt.Print("v ")
			for v := cnf.Var(1); int(v) <= formula.NumVars(); v++ {
				lit := int(v)
				if ans.Model.Value(v) != cnf.True {
					lit = -lit
				}
				fmt.Printf("%d ", lit)
			}
			fmt.Println("0")
		}
	case solver.Unsat:
		fmt.Println("s UNSATISFIABLE")
		os.Exit(20)
	default:
		fmt.Println("s UNKNOWN")
		if ctx.Err() == context.DeadlineExceeded {
			os.Exit(40) // wall-clock budget exhausted (distinct from exit 30)
		}
		os.Exit(30)
	}
	os.Exit(10)
}

// startProfiles begins the profiles whose paths are non-empty and
// returns the function that ends them and writes the files. Profiling
// is a diagnostic: a file that cannot be written is fatal.
func startProfiles(cpuPath, memPath string) (stop func()) {
	fatal := func(err error) {
		fmt.Fprintln(os.Stderr, "satsolve: profile:", err)
		os.Exit(1)
	}
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		cpuFile = f
	}
	if memPath != "" {
		// The default (one sample per 512 KB) sees nothing of a solve
		// that allocates less than that in total.
		runtime.MemProfileRate = 4096
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				fatal(err)
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fatal(err)
			}
			runtime.GC() // the profile holds what the last collection saw
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}
	}
}
