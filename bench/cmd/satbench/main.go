// Command satbench is the repository's benchmark: one program that
// generates five workloads from a seed, runs them against the stack
// from outside — direct calls into the solver, session and ATPG
// packages, HTTP against satserved children it builds and boots itself
// — checks every verdict, and prints every metric BENCHMARK.json names.
//
// One command runs everything and writes a report:
//
//	go run -C bench ./cmd/satbench -seed 1 -out report.json
//
// The benchmark driver runs one workload and one window at a time:
//
//	bash bench/run.sh --workload serve_heavy --seed 7 --seconds 15 --trace 0
//
// which prints the window's metrics and, as the last line of standard
// output, one JSON object {correct, attempted, failed, metrics}: the
// end-to-end metrics with --trace 0, the per-layer ones with --trace 1.
//
// Other modes: -compare a.json b.json judges report b against report a
// with BENCHMARK.json's bounds; -sweep finds each open loop's highest
// sustainable arrival rate (not gated, used to recalibrate the rate
// constants); -smoke runs every workload for a second on tiny inputs;
// -gen-verdicts rewrites bench/testdata/verdicts.json.
//
// See bench/README.md for the metric glossary and workload rationale.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/bench/report"
	"repro/bench/workload"
)

func main() {
	var (
		wl       = flag.String("workload", "", "run this one workload and print the driver's JSON line (default: all five, traced and untraced)")
		seed     = flag.Int64("seed", 1, "seed every input is generated from")
		seconds  = flag.Float64("seconds", 0, "measured window in seconds (0 = run_seconds of BENCHMARK.json)")
		traced   = flag.Int("trace", 0, "with -workload: 0 measures the end-to-end metrics, 1 the per-layer metrics")
		out      = flag.String("out", "", "all-workloads mode: write the report here and the spans to <out>.trace.json")
		repeat   = flag.Int("repeat", 1, "all-workloads mode: repetitions stored in the report")
		only     = flag.String("workloads", "", "all-workloads mode: comma-separated subset")
		root     = flag.String("root", "", "repository checkout (default: nearest parent directory holding BENCHMARK.json)")
		compare  = flag.Bool("compare", false, "compare two reports: satbench -compare a.json b.json")
		sweep    = flag.Bool("sweep", false, "sweep open-loop arrival rates (not gated)")
		smoke    = flag.Bool("smoke", false, "one-second windows on tiny inputs, every workload, traced and untraced")
		verdicts = flag.Bool("gen-verdicts", false, "rewrite bench/testdata/verdicts.json for seeds 1 and 2")
	)
	flag.Parse()

	dir, err := findRoot(*root)
	if err != nil {
		fatal(err)
	}
	bm, err := report.LoadBenchmark(filepath.Join(dir, "BENCHMARK.json"))
	if err != nil {
		fatal(err)
	}
	if *seconds == 0 {
		*seconds = float64(bm.RunSeconds)
	}

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(errors.New("-compare takes two report files"))
		}
		os.Exit(runCompare(bm, flag.Arg(0), flag.Arg(1)))
	case *verdicts:
		path := filepath.Join(dir, "bench", "testdata", "verdicts.json")
		err := workload.BuildVerdicts(path, []int64{1, 2}, float64(bm.RunSeconds), func(s string) { fmt.Fprintln(os.Stderr, s) })
		if err != nil {
			fatal(err)
		}
		return
	}

	env, err := prepare(dir)
	if err != nil {
		fatal(err)
	}
	// Children die with this process (Pdeathsig) and every run removes
	// its own directory; a signal only has to stop us promptly and take
	// the scratch directory along.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		os.RemoveAll(env.work)
		os.Exit(130)
	}()
	code := 0
	switch {
	case *wl != "":
		code = runOne(env, *wl, *seed, *seconds, *traced != 0)
	case *sweep:
		code = runSweep(env, *seed, *seconds)
	default:
		names := workload.Names
		if *only != "" {
			names = strings.Split(*only, ",")
		}
		if *smoke {
			*seconds = 1
		}
		code = runAll(env, names, *seed, *seconds, *repeat, *smoke, *out)
	}
	os.RemoveAll(env.work)
	os.Exit(code)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "satbench:", err)
	os.Exit(2)
}

// findRoot locates the repository checkout: the given directory, or
// the nearest parent of the working directory that holds BENCHMARK.json.
func findRoot(given string) (string, error) {
	if given != "" {
		return filepath.Abs(given)
	}
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no BENCHMARK.json in the working directory or any parent; pass -root")
		}
		dir = parent
	}
}

// env is what every mode shares: the checkout, the built daemon, the
// oracle and a scratch directory inside the checkout.
type env struct {
	root, work, satserved string
	buildS                float64
	oracle                *workload.Oracle
}

func prepare(root string) (*env, error) {
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(filepath.Join(build, "bin"), 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(build, "work-")
	if err != nil {
		return nil, err
	}
	bin, took, err := workload.BuildSatserved(root, filepath.Join(build, "bin"))
	if err != nil {
		os.RemoveAll(work)
		return nil, err
	}
	oracle, err := workload.NewOracle(filepath.Join(root, "bench", "testdata", "verdicts.json"))
	if err != nil {
		os.RemoveAll(work)
		return nil, err
	}
	return &env{root: root, work: work, satserved: bin, buildS: took.Seconds(), oracle: oracle}, nil
}

func (e *env) options(seed int64, seconds float64, traced, smoke bool) workload.Options {
	return workload.Options{
		WorkDir: e.work, Satserved: e.satserved, BuildS: e.buildS,
		Seed: seed, Seconds: seconds, Traced: traced, Smoke: smoke, Oracle: e.oracle,
	}
}

// printWindow lists a window's metrics by name with their units.
func printWindow(res *workload.Result) {
	mode := "end-to-end"
	if res.Traced {
		mode = "per-layer"
	}
	fmt.Printf("# %s seed=%d window=%gs %s: attempted=%d failed=%d late=%d correct=%v\n",
		res.Workload, res.Seed, res.Seconds, mode, res.Attempted, res.Failed, res.Late, res.Correct)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%-34s %16.6g %s\n", name, res.Metrics[name], workload.Unit(name))
	}
	fams := make([]string, 0, len(res.Families))
	for f := range res.Families {
		fams = append(fams, f)
	}
	sort.Slice(fams, func(i, j int) bool { return res.Families[fams[i]].P50 < res.Families[fams[j]].P50 })
	for _, f := range fams {
		s := res.Families[f]
		fmt.Fprintf(os.Stderr, "  family %-24s n=%-5d p50=%8.2f ms  p90=%8.2f ms  max=%8.2f ms\n", f, s.Count, s.P50, s.P90, s.Max)
	}
	for _, s := range res.Invalid {
		fmt.Fprintf(os.Stderr, "satbench: %s: INVALID RUN: %s\n", res.Workload, s)
	}
	for _, s := range res.Wrong {
		fmt.Fprintf(os.Stderr, "satbench: %s: WRONG VERDICT: %s\n", res.Workload, s)
	}
}

// exitCode is 1 for a wrong verdict, 3 for an invalid run.
func exitCode(res *workload.Result) int {
	switch {
	case !res.Correct:
		return 1
	case len(res.Invalid) > 0:
		return 3
	}
	return 0
}

// runOne is the driver's mode: one workload, one window, and the
// contract's JSON object as the last line of standard output.
func runOne(e *env, name string, seed int64, seconds float64, traced bool) int {
	res, err := workload.Run(name, e.options(seed, seconds, traced, false))
	if err != nil {
		fmt.Fprintln(os.Stderr, "satbench:", err)
		return 2
	}
	printWindow(res)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	for name, v := range res.Metrics {
		line.Metrics[name] = value{v, workload.Unit(name)}
	}
	buf, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "satbench:", err)
		return 2
	}
	fmt.Println(string(buf))
	return exitCode(res)
}

// runAll is the one-command mode: every workload, an untraced window
// for the end-to-end metrics and a traced one for the per-layer
// metrics, repeated, written to a report.
func runAll(e *env, names []string, seed int64, seconds float64, repeat int, smoke bool, out string) int {
	file := &report.File{GoVersion: runtime.Version(), CPUs: runtime.NumCPU()}
	code := 0
	for rep := 0; rep < repeat; rep++ {
		run := report.Run{Seed: seed, Started: time.Now().UTC().Format(time.RFC3339)}
		for _, name := range names {
			var untracedVPS float64
			for _, traced := range []bool{false, true} {
				res, err := workload.Run(name, e.options(seed, seconds, traced, smoke))
				if err != nil {
					fmt.Fprintln(os.Stderr, "satbench:", err)
					return 2
				}
				printWindow(res)
				if !traced {
					untracedVPS = res.Metrics["verdicts_per_s"]
				} else {
					if untracedVPS > 0 {
						fmt.Printf("%-34s %16.6g ratio\n", "traced/untraced verdicts_per_s", res.Metrics["client.verdicts_per_s"]/untracedVPS)
					}
					if out != "" && rep == repeat-1 {
						if err := res.Trace.Write(out + "." + name + ".trace.json"); err != nil {
							fmt.Fprintln(os.Stderr, "satbench:", err)
							return 2
						}
					}
				}
				fmt.Println()
				run.Windows = append(run.Windows, res.Window)
				code = max(code, exitCode(res))
			}
		}
		file.Runs = append(file.Runs, run)
	}
	if out != "" {
		if err := file.Write(out); err != nil {
			fmt.Fprintln(os.Stderr, "satbench:", err)
			return 2
		}
	}
	return code
}

// runSweep offers each open loop 25-125 % of its calibrated rate and
// reports the highest rate at which at most 1 % of operations failed
// or missed the latency limit.
func runSweep(e *env, seed int64, seconds float64) int {
	for _, name := range []string{"serve_heavy", "serve_certified"} {
		best := 0.0
		for _, scale := range []float64{0.25, 0.5, 0.75, 1, 1.25} {
			o := e.options(seed, seconds, false, false)
			o.RateScale = scale
			res, err := workload.Run(name, o)
			if err != nil {
				fmt.Fprintln(os.Stderr, "satbench:", err)
				return 2
			}
			miss := float64(res.Failed+res.Late) / float64(max(res.Attempted, 1))
			offered := float64(res.Attempted) / seconds
			fmt.Printf("%-16s %4.0f%% of calibrated rate: offered %.1f/s goodput %.1f/s p50 %.1f ms p90 %.1f ms miss share %.4f\n",
				name, 100*scale, offered, res.Metrics["verdicts_per_s"], res.Metrics["verdict_p50_ms"], res.Metrics["verdict_p90_ms"], miss)
			if miss <= 0.01 {
				best = offered
			}
		}
		fmt.Printf("%-16s highest swept rate within the latency limit: %.1f/s\n\n", name, best)
	}
	return 0
}

func runCompare(bm *report.Benchmark, pathA, pathB string) int {
	a, err := report.LoadFile(pathA)
	if err != nil {
		fatal(err)
	}
	b, err := report.LoadFile(pathB)
	if err != nil {
		fatal(err)
	}
	rows, counts := report.Compare(bm, a, b)
	regressed, differ := report.PrintComparison(os.Stdout, rows, counts)
	if differ {
		fmt.Println("\nsolve_tier's exact counts differ: the two reports did not run the same search.")
	}
	if regressed {
		return 1
	}
	return 0
}
