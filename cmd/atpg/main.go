// Command atpg generates stuck-at test patterns for a combinational
// .bench netlist using SAT (paper §3): it reports per-fault verdicts
// (detected / redundant / aborted), overall fault coverage, and the
// generated test set. The structural layer of §5 (-structural) yields
// partially-specified patterns; -session runs the fault list as
// assumption queries against resident solve sessions (the same engine
// satserved exposes over HTTP), with identical verdicts. -session deals
// the list across one session per CPU (GOMAXPROCS), at least 64 faults
// each, queried in parallel; the report prints the shard count. Faults
// are dealt by site, whole sites at a time, so each session encodes a
// site's faulty cone once and answers each of its faults under two
// activation literals, one for the cone and one for the fault. The
// structural layer needs the one-shot engine, so -session -structural
// is refused.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/atpg"
	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/session"
)

func main() {
	var (
		structural = flag.Bool("structural", false, "use the justification-frontier layer (partial patterns)")
		useSession = flag.Bool("session", false, "run the fault list through resident solve sessions, one per CPU")
		faultSim   = flag.Bool("faultsim", true, "drop faults by parallel-pattern fault simulation")
		collapse   = flag.Bool("collapse", true, "collapse equivalent faults")
		maxConfl   = flag.Int64("max-conflicts", 0, "per-fault conflict budget")
		seed       = flag.Int64("seed", 1, "random seed for pattern completion")
		verbose    = flag.Bool("v", false, "print per-fault results")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: atpg [flags] circuit.bench")
		os.Exit(1)
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "atpg:", err)
		os.Exit(1)
	}
	defer f.Close()
	c, latches, err := circuit.ParseBench(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, "atpg:", err)
		os.Exit(1)
	}
	if len(latches) > 0 {
		fmt.Fprintln(os.Stderr, "atpg: sequential circuits not supported (combinational ATPG)")
		os.Exit(1)
	}

	opts := atpg.Options{
		Structural:   *structural,
		FaultSim:     *faultSim,
		NoCollapse:   !*collapse,
		MaxConflicts: *maxConfl,
		Seed:         *seed,
	}
	var rep *atpg.Report
	if *useSession {
		m := session.NewManager(session.Config{})
		defer m.Close()
		var err error
		rep, err = atpg.GenerateTestsSession(context.Background(), m, c, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, err) // already prefixed "atpg:"
			os.Exit(1)
		}
	} else {
		rep = atpg.GenerateTests(c, opts)
	}
	if *verbose {
		for _, fr := range rep.Results {
			how := "sat"
			if fr.BySim {
				how = "sim"
			}
			fmt.Printf("%-20s %-10s %s\n", fr.Fault, fr.Status, how)
		}
	}
	fmt.Printf("faults      %d\n", rep.Total)
	fmt.Printf("detected    %d (%d by simulation)\n", rep.Detected, rep.BySimulation)
	fmt.Printf("redundant   %d\n", rep.Redundant)
	fmt.Printf("aborted     %d\n", rep.Aborted)
	fmt.Printf("coverage    %.2f%%\n", 100*rep.Coverage())
	fmt.Printf("tests       %d\n", len(rep.Tests))
	fmt.Printf("sat calls   %d\n", rep.SATCalls)
	if *useSession {
		fmt.Printf("shards      %d\n", rep.Shards)
	}
	if rep.PatternBits > 0 {
		fmt.Printf("specified   %.1f%% of pattern bits\n", 100*float64(rep.SpecifiedBits)/float64(rep.PatternBits))
	}
	for i, pat := range rep.Tests {
		fmt.Printf("t%-3d ", i)
		for _, v := range pat {
			switch v {
			case cnf.True:
				fmt.Print("1")
			case cnf.False:
				fmt.Print("0")
			default:
				fmt.Print("X")
			}
		}
		fmt.Println()
	}
}
