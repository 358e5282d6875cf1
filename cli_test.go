// CLI integration tests: build each command once and exercise it the way
// a user would, checking output and exit-code conventions.
package sateda

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildTool compiles a command into dir and returns the binary path.
func buildTool(t *testing.T, dir, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	cmd.Dir = "."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	return bin
}

// run executes a binary with optional stdin, returning stdout and the
// exit code.
func run(t *testing.T, bin string, stdin string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	if stdin != "" {
		cmd.Stdin = strings.NewReader(stdin)
	}
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	err := cmd.Run()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("running %s: %v", bin, err)
	}
	return out.String(), code
}

func TestCLIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	satsolve := buildTool(t, dir, "satsolve")
	cnfgen := buildTool(t, dir, "cnfgen")
	atpgBin := buildTool(t, dir, "atpg")
	cecBin := buildTool(t, dir, "cec")
	bmcBin := buildTool(t, dir, "bmc")
	delayBin := buildTool(t, dir, "delaycomp")

	// cnfgen | satsolve on an UNSAT family: exit code 20.
	php, code := run(t, cnfgen, "", "-family", "php", "-n", "4")
	if code != 0 || !strings.Contains(php, "p cnf") {
		t.Fatalf("cnfgen failed: %d\n%s", code, php)
	}
	out, code := run(t, satsolve, php, "-stats")
	if code != 20 || !strings.Contains(out, "s UNSATISFIABLE") {
		t.Fatalf("satsolve UNSAT: code %d\n%s", code, out)
	}
	if !strings.Contains(out, "conflicts") {
		t.Fatal("-stats output missing")
	}

	// Satisfiable instance: exit 10 with a model line that verifies.
	queens, _ := run(t, cnfgen, "", "-family", "queens", "-n", "6")
	out, code = run(t, satsolve, queens)
	if code != 10 || !strings.Contains(out, "s SATISFIABLE") || !strings.Contains(out, "v ") {
		t.Fatalf("satsolve SAT: code %d\n%s", code, out)
	}

	// Solver configuration flags must all be accepted.
	for _, args := range [][]string{
		{"-chronological"}, {"-no-learning"}, {"-relevance", "3"},
		{"-restarts", "geometric"}, {"-decide", "dlis"}, {"-equiv"},
		{"-reclearn", "1"}, {"-q"},
	} {
		if _, code := run(t, satsolve, php, args...); code != 20 {
			t.Fatalf("satsolve %v on PHP: exit %d", args, code)
		}
	}
	// Profiling one solve: both files written, the verdict untouched.
	cpuProf, memProf := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	out, code = run(t, satsolve, php, "-cpuprofile", cpuProf, "-memprofile", memProf)
	if code != 20 || !strings.Contains(out, "s UNSATISFIABLE") {
		t.Fatalf("satsolve with profiles: code %d\n%s", code, out)
	}
	for _, p := range []string{cpuProf, memProf} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Fatalf("profile %s not written: %v", p, err)
		}
	}
	if _, code := run(t, satsolve, php, "-cpuprofile", filepath.Join(dir, "no-such-dir", "cpu.pprof")); code != 1 {
		t.Fatalf("unwritable profile path: exit %d, want 1", code)
	}
	// Local search cannot prove UNSAT: exit 30 (unknown).
	if _, code := run(t, satsolve, php, "-local-search"); code != 30 {
		t.Fatalf("local search on UNSAT should be UNKNOWN, got %d", code)
	}

	// Portfolio mode: same verdicts, and -stats reports the parallel run.
	out, code = run(t, satsolve, php, "-workers", "4", "-stats")
	if code != 20 || !strings.Contains(out, "s UNSATISFIABLE") {
		t.Fatalf("portfolio UNSAT: code %d\n%s", code, out)
	}
	if !strings.Contains(out, "c portfolio workers 4") || !strings.Contains(out, "recipe") {
		t.Fatalf("-workers -stats missing portfolio report:\n%s", out)
	}
	out, code = run(t, satsolve, queens, "-workers", "0", "-share=false")
	if code != 10 || !strings.Contains(out, "s SATISFIABLE") {
		t.Fatalf("portfolio SAT: code %d\n%s", code, out)
	}
	// Adaptive scheduling: same verdict; -stats reports the pool's
	// dynamic-admission counters and per-worker lineage columns.
	out, code = run(t, satsolve, php, "-workers", "4", "-adaptive", "-grace", "5ms", "-pool-quantile", "0.7", "-stats")
	if code != 20 || !strings.Contains(out, "s UNSATISFIABLE") {
		t.Fatalf("adaptive portfolio UNSAT: code %d\n%s", code, out)
	}
	if !strings.Contains(out, "c pool admitted") || !strings.Contains(out, "slot") {
		t.Fatalf("-adaptive -stats missing pool/lineage report:\n%s", out)
	}

	// A proof is one solver's log: -drat with -workers runs one worker,
	// says so, and the stream it writes verifies.
	dratOut := filepath.Join(dir, "php.drat")
	out, code = run(t, satsolve, php, "-drat", dratOut, "-workers", "4")
	if code != 20 || !strings.Contains(out, "running 1 worker instead of -workers 4") {
		t.Fatalf("-drat -workers 4: code %d\n%s", code, out)
	}
	if out, code = run(t, satsolve, php, "-drat-check", dratOut); code != 0 || !strings.Contains(out, "VERIFIED") {
		t.Fatalf("-drat-check of the -workers 4 stream: code %d\n%s", code, out)
	}

	// Wall-clock timeout: a hard instance must give up with s UNKNOWN
	// and the distinct exit code 40.
	hard, _ := run(t, cnfgen, "", "-family", "php", "-n", "11")
	out, code = run(t, satsolve, hard, "-timeout", "100ms")
	if code != 40 || !strings.Contains(out, "s UNKNOWN") {
		t.Fatalf("timeout: code %d (want 40)\n%s", code, out)
	}
	// The same budget must also interrupt a portfolio run.
	out, code = run(t, satsolve, hard, "-timeout", "100ms", "-workers", "4")
	if code != 40 || !strings.Contains(out, "s UNKNOWN") {
		t.Fatalf("portfolio timeout: code %d (want 40)\n%s", code, out)
	}
	// A generous timeout must not perturb an easy answer.
	if _, code = run(t, satsolve, php, "-timeout", "1m"); code != 20 {
		t.Fatalf("easy instance under timeout: code %d (want 20)", code)
	}

	// ATPG on a generated adder.
	adder, _ := run(t, cnfgen, "", "-family", "adder", "-n", "4")
	benchFile := filepath.Join(dir, "adder.bench")
	if err := os.WriteFile(benchFile, []byte(adder), 0o644); err != nil {
		t.Fatal(err)
	}
	out, code = run(t, atpgBin, "", "-structural", benchFile)
	if code != 0 || !strings.Contains(out, "coverage    100.00%") {
		t.Fatalf("atpg: code %d\n%s", code, out)
	}

	// CEC: adder vs itself (equivalent, exit 0); adder vs parity (shape
	// mismatch is an error, nonzero).
	out, code = run(t, cecBin, "", benchFile, benchFile)
	if code != 0 || !strings.Contains(out, "EQUIVALENT") {
		t.Fatalf("cec self: code %d\n%s", code, out)
	}

	// BMC on a toggling latch that reaches bad at depth 1.
	seq := `INPUT(en)
OUTPUT(bad)
q = DFF(d)
d = NOT(q)
bad = AND(q, en)
`
	seqFile := filepath.Join(dir, "toggle.bench")
	if err := os.WriteFile(seqFile, []byte(seq), 0o644); err != nil {
		t.Fatal(err)
	}
	out, code = run(t, bmcBin, "", "-depth", "4", seqFile)
	if code != 20 || !strings.Contains(out, "VIOLATED at depth 1") {
		t.Fatalf("bmc: code %d\n%s", code, out)
	}
	// With k-induction on a safe design (en tied is not expressible here;
	// use the ring via cnfgen? bmc reads files only) — depth-bounded safe:
	out, code = run(t, bmcBin, "", "-depth", "0", seqFile)
	if code != 0 || !strings.Contains(out, "SAFE") {
		t.Fatalf("bmc depth 0 should be safe: code %d\n%s", code, out)
	}

	// delaycomp on a carry-skip adder must find false paths.
	skip, _ := run(t, cnfgen, "", "-family", "skipadder", "-n", "8", "-k", "4")
	skipFile := filepath.Join(dir, "skip.bench")
	if err := os.WriteFile(skipFile, []byte(skip), 0o644); err != nil {
		t.Fatal(err)
	}
	out, code = run(t, delayBin, "", skipFile)
	if code != 0 || !strings.Contains(out, "false paths proven") {
		t.Fatalf("delaycomp: code %d\n%s", code, out)
	}
	if !strings.Contains(out, "topological delay:   21") {
		t.Fatalf("unexpected topological delay:\n%s", out)
	}
}
