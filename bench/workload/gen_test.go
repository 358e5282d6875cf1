package workload

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bmc"
	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/gen"
)

// serve_light's variants must be one cache line: permute changes the
// text and never the canonical fingerprint.
func TestPermutePreservesFingerprint(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20; i++ {
		base := gen.RandomKSAT(60, 200, 3, int64(i))
		p := permute(base, rng)
		if cnf.FormulaFingerprint(p) != cnf.FormulaFingerprint(base) {
			t.Fatalf("instance %d: permuted copy has another fingerprint", i)
		}
		if cnf.DIMACSString(p) == cnf.DIMACSString(base) {
			t.Fatalf("instance %d: permuted copy has the same text", i)
		}
		// Through the text, as the daemon sees it.
		f, err := cnf.ParseDIMACS(strings.NewReader(cnf.DIMACSString(p)))
		if err != nil || cnf.FormulaFingerprint(f) != cnf.FormulaFingerprint(base) {
			t.Fatalf("instance %d: fingerprint lost through the DIMACS text (%v)", i, err)
		}
	}
}

// scramble makes a new instance (another fingerprint) of the same
// satisfiability: the model count survives renaming and flipping.
func TestScramblePreservesModelCount(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 10; i++ {
		base := gen.RandomKSAT(10, 30, 3, int64(i))
		s := scramble(base, rng)
		if cnf.FormulaFingerprint(s) == cnf.FormulaFingerprint(base) {
			t.Errorf("instance %d: scramble left the formula unchanged", i)
		}
		if a, b := cnf.CountModels(base), cnf.CountModels(s); a != b {
			t.Errorf("instance %d: %d models before, %d after", i, a, b)
		}
	}
}

// Every prefix of a schedule holds each slot in close to its share,
// whatever the seed: the seed never picks sizes or kinds.
func TestScheduleIsSmoothAndSeedFree(t *testing.T) {
	mix := []slot{{weight: 5}, {weight: 3}, {weight: 2}}
	order := schedule(mix, 1000)
	count := make([]int, len(mix))
	for i, j := range order {
		count[j]++
		for k, s := range mix {
			want := float64(i+1) * float64(s.weight) / 10
			if d := float64(count[k]) - want; d > 1 || d < -1 {
				t.Fatalf("after %d picks slot %d was drawn %d times, share says %.1f", i+1, k, count[k], want)
			}
		}
	}
	next := cyc(3, 5, 7)
	if got := []int{next(), next(), next(), next()}; got[0] != 3 || got[1] != 5 || got[2] != 7 || got[3] != 3 {
		t.Errorf("cyc walked %v", got)
	}
}

func TestDeriveSeedSplitsStreams(t *testing.T) {
	seen := map[int64]string{}
	for _, seed := range []int64{1, 2, 3} {
		for _, name := range Names {
			s := deriveSeed(seed, name)
			if s < 0 {
				t.Errorf("seed %d/%s derived a negative seed", seed, name)
			}
			if prev, dup := seen[s]; dup {
				t.Errorf("seed %d/%s collides with %s", seed, name, prev)
			}
			seen[s] = name
		}
	}
	if deriveSeed(1, "solve_tier") != deriveSeed(1, "solve_tier") {
		t.Error("deriveSeed is not a function of its arguments")
	}
}

// The BMC models carry their verdict by construction; confirm it by
// stepping the parsed model, which involves no SAT solver.
func TestBMCGroundTruthBySimulation(t *testing.T) {
	for _, in := range []*Instance{
		counterJob(4, 9, false), counterJob(4, 9, true), counterJob(6, 50, false),
		lfsrJob(5, 11, false), lfsrJob(8, 130, false), lfsrJob(8, 190, true), lfsrJob(7, 40, true),
	} {
		q, err := bmc.FromBench(strings.NewReader(in.Text))
		if err != nil {
			t.Fatalf("%s: %v", in.Family, err)
		}
		// Drive every free input high: the counter then counts, and the
		// register has none.
		inputs := make([]bool, len(q.FreeInputs()))
		for i := range inputs {
			inputs[i] = true
		}
		state, first := q.InitialState(), -1
		for k := 0; k <= in.Depth; k++ {
			next, bad := q.Step(state, inputs)
			if bad {
				first = k
				break
			}
			state = next
		}
		switch in.Want {
		case WantSat:
			if first != in.WantDepth {
				t.Errorf("%s to depth %d: simulation first violates at %d, generator says %d", in.Family, in.Depth, first, in.WantDepth)
			}
		case WantUnsat:
			if first != -1 {
				t.Errorf("%s to depth %d: generator says SAFE, simulation violates at %d", in.Family, in.Depth, first)
			}
		}
	}
}

// A bugged copy differs from the original exactly where the trigger
// inputs are all 1.
func TestWithBugDiffersOnlyOnTrigger(t *testing.T) {
	a := circuit.RippleCarryAdder(4)
	b := withBug(a, 2, 3)
	n := len(a.Inputs)
	for x := 0; x < 1<<uint(n); x++ {
		in := make([]bool, n)
		for i := range in {
			in[i] = x>>uint(i)&1 == 1
		}
		av, bv := a.SimulateBool(in), b.SimulateBool(in)
		differs := false
		for i := range a.Outputs {
			differs = differs || av[a.Outputs[i]] != bv[b.Outputs[i]]
		}
		if trig := in[0] && in[1] && in[2]; differs != trig {
			t.Fatalf("input %04b: differs=%v, trigger=%v", x, differs, trig)
		}
	}
}

func TestOracleJudgesWithoutTheSolver(t *testing.T) {
	o, _ := NewOracle("")
	f := cnf.New(2)
	f.AddDIMACS(1, 2)
	f.AddDIMACS(-1, 2)
	in := dimacs("rand", WantAny, f)
	if got := o.CheckDIMACS(in, "SAT", modelFromLits(2, []int{-1, 2})); got != OK {
		t.Errorf("valid model judged %v", got)
	}
	if got := o.CheckDIMACS(in, "SAT", modelFromLits(2, []int{1, -2})); got != Wrong {
		t.Errorf("falsifying model judged %v", got)
	}
	if got := o.CheckDIMACS(in, "UNSAT", nil); got != Unchecked || o.Unchecked() != 1 {
		t.Errorf("unlisted UNSAT judged %v (unchecked=%d)", got, o.Unchecked())
	}
	o.knownUnsat[fpKey(f)] = true
	if got := o.CheckDIMACS(in, "UNSAT", nil); got != OK {
		t.Errorf("listed UNSAT judged %v", got)
	}
	if got := o.CheckDIMACS(dimacs("php", WantUnsat, f), "SAT", modelFromLits(2, []int{2})); got != Wrong {
		t.Errorf("SAT on a constructed-UNSAT instance judged %v", got)
	}
	if got := o.CheckDIMACS(in, "UNKNOWN", nil); got != Undecided {
		t.Errorf("UNKNOWN judged %v", got)
	}
	if n := len(o.WrongVerdicts()); n != 2 {
		t.Errorf("%d wrong verdicts recorded, want 2", n)
	}
	if o.fork().Unchecked() != 0 || len(o.fork().WrongVerdicts()) != 0 || !o.fork().knownUnsat[fpKey(f)] {
		t.Error("a forked oracle must share the verdict list and nothing else")
	}
}
