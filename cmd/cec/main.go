// Command cec checks two combinational .bench netlists for equivalence
// via a SAT miter (paper §3). The miter is structurally hashed first;
// when every output pair merges, it is decided with no SAT call
// ("sat calls 0"). With -internal it runs the
// simulation-guided internal-equivalence engine (candidate equivalent
// node pairs proven front-to-back with incremental SAT).
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cec"
	"repro/internal/circuit"
)

func loadBench(path string) *circuit.Circuit {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cec:", err)
		os.Exit(1)
	}
	defer f.Close()
	c, latches, err := circuit.ParseBench(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cec:", err)
		os.Exit(1)
	}
	if len(latches) > 0 {
		fmt.Fprintln(os.Stderr, "cec: sequential circuits not supported")
		os.Exit(1)
	}
	return c
}

func main() {
	var (
		internal = flag.Bool("internal", false, "simulation-guided internal equivalences")
		maxConfl = flag.Int64("max-conflicts", 0, "conflict budget per query")
		seed     = flag.Int64("seed", 1, "simulation seed")
	)
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: cec [flags] a.bench b.bench")
		os.Exit(1)
	}
	a := loadBench(flag.Arg(0))
	b := loadBench(flag.Arg(1))
	res, err := cec.Check(a, b, cec.Options{
		Internal:     *internal,
		MaxConflicts: *maxConfl,
		Seed:         *seed,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "cec:", err)
		os.Exit(1)
	}
	if !res.Decided {
		fmt.Println("UNDECIDED (budget exhausted)")
		os.Exit(30)
	}
	if res.Equivalent {
		fmt.Printf("EQUIVALENT (sat calls %d, conflicts %d", res.SATCalls, res.Conflicts)
		if *internal {
			fmt.Printf(", candidates %d proven %d", res.Candidates, res.Proven)
		}
		fmt.Println(")")
		return
	}
	fmt.Print("NOT EQUIVALENT, counterexample:")
	for i, v := range res.Counterexample {
		bit := 0
		if v {
			bit = 1
		}
		fmt.Printf(" %s=%d", a.Name(a.Inputs[i]), bit)
	}
	fmt.Println()
	os.Exit(20)
}
