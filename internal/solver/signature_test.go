package solver_test

import (
	"encoding/json"
	"flag"
	"os"
	"testing"

	"repro/internal/bmc"
	"repro/internal/cec"
	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/gen"
	"repro/internal/solver"
)

var updateSignatures = flag.Bool("update-signatures", false,
	"rewrite testdata/signatures.json from the current solver")

const signaturesFile = "testdata/signatures.json"

// searchSignature is the exact search footprint of one single-Solve run.
// Two solvers that walk the same search produce the same four counts; a
// "pure performance" change must leave every row untouched.
type searchSignature struct {
	Instance     string `json:"instance"`
	Status       string `json:"status"`
	Decisions    int64  `json:"decisions"`
	Conflicts    int64  `json:"conflicts"`
	Propagations int64  `json:"propagations"`
	Learned      int64  `json:"learned"`
}

// unrollBMC builds the one-shot CNF of "bad fires at exactly frame
// depth" the way bmc's incremental unroller does, frame by frame.
func unrollBMC(q *bmc.Sequential, depth int) *cnf.Formula {
	f := cnf.New(0)
	var prev []cnf.Var
	for t := 0; t <= depth; t++ {
		vars := append([]cnf.Var(nil), circuit.EncodeInto(f, q.Comb).VarOf...)
		for i, l := range q.Latches {
			out := vars[l.Output]
			switch {
			case t > 0:
				d := prev[l.Input]
				f.Add(cnf.NegLit(out), cnf.PosLit(d))
				f.Add(cnf.PosLit(out), cnf.NegLit(d))
			case q.Init[i] == cnf.True:
				f.Add(cnf.PosLit(out))
			case q.Init[i] == cnf.False:
				f.Add(cnf.NegLit(out))
			}
		}
		prev = vars
	}
	f.Add(cnf.PosLit(prev[q.Bad]))
	return f
}

func miterCNF(t testing.TB, a, b *circuit.Circuit) *cnf.Formula {
	t.Helper()
	m, out, err := cec.BuildMiter(a, b)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := circuit.EncodeProperty(m, out, true)
	return f
}

// signatureTier is the deterministic single-Solve tier the golden file
// pins: threshold and over-constrained random 3-SAT, pigeonhole, adder
// and multiplier miters, BMC unrollings (one violated, one safe), under
// the default configuration plus the inprocessing engine with variable
// elimination (the other user of the per-variable decision flags).
func signatureTier(t testing.TB) []struct {
	name string
	f    *cnf.Formula
	opts solver.Options
} {
	type inst = struct {
		name string
		f    *cnf.Formula
		opts solver.Options
	}
	inproc := solver.Options{Inprocess: true, InprocessVarElim: true, InprocessEvery: 1}
	rand150 := gen.RandomKSAT(150, 750, 3, 11)
	adder16 := miterCNF(t, circuit.RippleCarryAdder(16), circuit.CarrySkipAdder(16, 4))
	return []inst{
		{"rand100-4.26/s1", gen.RandomKSAT(100, 426, 3, 1), solver.Options{}},
		{"rand100-4.26/s2", gen.RandomKSAT(100, 426, 3, 2), solver.Options{}},
		{"rand120-4.26/s3", gen.RandomKSAT(120, 511, 3, 3), solver.Options{}},
		{"rand150-5.0/s11", rand150, solver.Options{}},
		{"rand150-5.0/s11/inprocess", rand150, inproc},
		{"php6", gen.Pigeonhole(6), solver.Options{}},
		{"php7", gen.Pigeonhole(7), solver.Options{}},
		{"php7/inprocess", gen.Pigeonhole(7), inproc},
		{"miter/rca16-cska16", adder16, solver.Options{}},
		{"miter/rca16-cska16/inprocess", adder16, inproc},
		{"miter/rca32-cska32", miterCNF(t, circuit.RippleCarryAdder(32), circuit.CarrySkipAdder(32, 4)), solver.Options{}},
		{"miter/mult4-strash", miterCNF(t, circuit.ArrayMultiplier(4), circuit.Strash(circuit.ArrayMultiplier(4))), solver.Options{}},
		{"bmc/counter5-at20", unrollBMC(bmc.NewCounter(5, 20), 20), solver.Options{}},
		{"bmc/counter5-at19-safe", unrollBMC(bmc.NewCounter(5, 20), 19), solver.Options{}},
		{"bmc/ring8-depth12", unrollBMC(bmc.NewRingOneHot(8), 12), solver.Options{}},
		{"bmc/loadcounter10-depth8", unrollBMC(bmc.NewLoadableCounter(10, 777), 8), solver.Options{}},
	}
}

// TestGoldenSearchSignatures replays the tier and fails on any drift
// from the committed counts. Regenerate (only for a change that means
// to alter the search) with
//
//	go test ./internal/solver -run TestGoldenSearchSignatures -update-signatures
func TestGoldenSearchSignatures(t *testing.T) {
	var got []searchSignature
	for _, in := range signatureTier(t) {
		s := solver.FromFormula(in.f, in.opts)
		st := s.Solve()
		got = append(got, searchSignature{
			Instance: in.name, Status: st.String(),
			Decisions: s.Stats.Decisions, Conflicts: s.Stats.Conflicts,
			Propagations: s.Stats.Propagations, Learned: s.Stats.Learned,
		})
	}
	if *updateSignatures {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(signaturesFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(signaturesFile)
	if err != nil {
		t.Fatal(err)
	}
	var want []searchSignature
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", signaturesFile, err)
	}
	if len(want) != len(got) {
		t.Fatalf("%s holds %d rows, the tier has %d", signaturesFile, len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("search drifted on %s:\n got  %+v\n want %+v", got[i].Instance, got[i], want[i])
		}
	}
}

// BenchmarkSolverTier loads and solves the whole signature tier once
// per iteration: the solver layer's own number, outside satbench. Run
// with -benchmem; props/s and ns/conflict are over load + search, the
// way satbench's solver.props_per_s and solver.ns_per_conflict are.
func BenchmarkSolverTier(b *testing.B) {
	tier := signatureTier(b)
	var props, conflicts int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, in := range tier {
			s := solver.FromFormula(in.f, in.opts)
			s.Solve()
			props += s.Stats.Propagations
			conflicts += s.Stats.Conflicts
		}
	}
	el := b.Elapsed()
	b.ReportMetric(float64(props)/el.Seconds(), "props/s")
	b.ReportMetric(float64(el.Nanoseconds())/float64(conflicts), "ns/conflict")
}
