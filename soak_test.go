package sateda

import (
	"context"
	"runtime"
	"testing"
	"time"

	"repro/internal/cnf"
	"repro/internal/dpll"
	"repro/internal/gen"
	"repro/internal/portfolio"
	"repro/internal/solver"
)

// TestSoakSolverConfigs cross-checks every solver configuration against
// the independent DPLL implementation on many medium instances (too big
// for brute force, small enough for DPLL).
func TestSoakSolverConfigs(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	configs := map[string]solver.Options{
		"default":    {},
		"chrono":     {Chronological: true},
		"nolearn":    {NoLearning: true},
		"relevance":  {Deletion: solver.DeleteByRelevance, RelevanceBound: 2, MaxLearnts: 10},
		"restarts":   {Restart: solver.RestartLuby, RestartBase: 4, RandomFreq: 0.2, Seed: 5},
		"dlis":       {Decide: solver.DecideDLIS},
		"proof":      {Proof: &solver.Proof{}}, // each run logs into a fresh one
		"tiny-db":    {MaxLearnts: 1},
		"nominimize": {NoMinimize: true},
		// Inprocessing at every restart boundary, so rounds fire even on
		// these small instances: all transforms together, each alone, and
		// a starvation budget (rounds scheduled but cut short mid-clause).
		"inprocess": {Inprocess: true, InprocessVarElim: true,
			InprocessEvery: 1, Restart: solver.RestartFixed, RestartBase: 2},
		"inprocess-vivify": {Inprocess: true, InprocessNoSubsume: true,
			InprocessEvery: 1, Restart: solver.RestartFixed, RestartBase: 2},
		"inprocess-subsume": {Inprocess: true, InprocessNoVivify: true,
			InprocessEvery: 1, Restart: solver.RestartFixed, RestartBase: 2},
		"inprocess-varelim": {Inprocess: true, InprocessVarElim: true,
			InprocessNoVivify: true, InprocessNoSubsume: true,
			InprocessEvery: 1, Restart: solver.RestartFixed, RestartBase: 2},
		"inprocess-starved": {Inprocess: true, InprocessVarElim: true,
			InprocessBudget: 20, InprocessEvery: 1,
			Restart: solver.RestartFixed, RestartBase: 2},
	}
	for seed := int64(0); seed < 25; seed++ {
		f := gen.RandomKSAT(18, 76, 3, seed) // near threshold, mixed phase
		ref := dpll.Solve(f, dpll.Options{})
		for name, opt := range configs {
			var proof *solver.Proof
			if opt.Proof != nil {
				proof = &solver.Proof{}
				opt.Proof = proof
			}
			s := solver.FromFormula(f, opt)
			st := s.Solve()
			if (st == solver.Sat) != ref.Sat {
				t.Fatalf("seed %d config %s: %v vs dpll %v", seed, name, st, ref.Sat)
			}
			if st == solver.Sat {
				if err := solver.VerifyModel(f, s.Model()); err != nil {
					t.Fatalf("seed %d config %s: %v", seed, name, err)
				}
			} else if proof != nil {
				if err := solver.VerifyUnsat(f, proof); err != nil {
					t.Fatalf("seed %d config %s: proof rejected: %v", seed, name, err)
				}
			}
		}
	}
}

// TestSoakPortfolioChurn cycles adaptive portfolio solves with a
// kill/respawn-heavy schedule and asserts the process stays stable:
// verdicts agree with the DPLL reference every cycle, every spawned
// goroutine is joined (the goroutine count cannot creep), and the
// shared pool never outgrows its cap.
func TestSoakPortfolioChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	// Settle and measure the baseline goroutine count.
	runtime.GC()
	time.Sleep(10 * time.Millisecond)
	baseline := runtime.NumGoroutine()

	opts := portfolio.Options{
		Workers:     4,
		Adaptive:    true,
		Grace:       2 * time.Millisecond, // churn hard
		KillBelow:   2,
		MaxRespawns: 6,
		PoolCap:     256,
	}
	var kills, respawns int
	for cycle := 0; cycle < 24; cycle++ {
		// Instances sized to outlive a few supervisor samples (grace
		// 2ms), so kills and respawns actually happen; the sequential
		// CDCL solver is the agreement reference (DPLL would dominate
		// the soak's runtime at these sizes).
		var f *cnf.Formula
		switch cycle % 3 {
		case 0:
			f = gen.Random3SATHard(110, int64(cycle))
		case 1:
			f = gen.Pigeonhole(6)
		default:
			f = gen.XorChain(26, cycle%2 == 0, int64(cycle))
		}
		want := solver.FromFormula(f, solver.Options{}).Solve()
		opts.Seed = int64(cycle)
		res := portfolio.Solve(context.Background(), f, opts)
		if res.Status == solver.Unknown {
			t.Fatalf("cycle %d: adaptive portfolio returned Unknown without budget or cancel", cycle)
		}
		if res.Status != want {
			t.Fatalf("cycle %d: portfolio=%v sequential=%v", cycle, res.Status, want)
		}
		if res.Status == solver.Sat && !res.Model.Satisfies(f) {
			t.Fatalf("cycle %d: model does not satisfy the formula", cycle)
		}
		if res.Pool.Held > 256 {
			t.Fatalf("cycle %d: pool outgrew its cap: %+v", cycle, res.Pool)
		}
		if len(res.Workers) != opts.Workers+res.Respawns {
			t.Fatalf("cycle %d: lineage incomplete: %d reports for %d slots + %d respawns",
				cycle, len(res.Workers), opts.Workers, res.Respawns)
		}
		kills += res.Kills
		respawns += res.Respawns
	}
	// Not every cycle churns (fast instances finish before the first
	// sample), but across the mix the stress schedule must have
	// scheduled — otherwise this test is not testing adaptive teardown.
	if kills == 0 && respawns == 0 {
		t.Fatal("no churn across the soak: every instance finished before the first supervisor sample")
	}

	// Every worker goroutine must have been joined: allow scheduler
	// slack, but a per-cycle leak of even one goroutine would show.
	runtime.GC()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+3 {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked across churn cycles: baseline %d, now %d", baseline, n)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestSoakPipelineOnStructured runs the full pipeline over structured
// families where verdicts are known analytically.
func TestSoakPipelineOnStructured(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	type wl struct {
		f    *cnf.Formula
		sat  bool
		name string
	}
	var workloads []wl
	for n := 3; n <= 6; n++ {
		workloads = append(workloads, wl{gen.Pigeonhole(n), false, "php"})
	}
	for n := 8; n <= 24; n += 4 {
		workloads = append(workloads, wl{gen.XorChain(n, true, int64(n)), false, "xorU"})
		workloads = append(workloads, wl{gen.XorChain(n, false, int64(n)), true, "xorS"})
	}
	workloads = append(workloads, wl{gen.Queens(8), true, "queens"})
	for _, w := range workloads {
		proof := &solver.Proof{}
		s := solver.FromFormula(w.f, solver.Options{Proof: proof})
		st := s.Solve()
		if (st == solver.Sat) != w.sat {
			t.Fatalf("%s: got %v want sat=%v", w.name, st, w.sat)
		}
		if st == solver.Sat {
			if err := solver.VerifyModel(w.f, s.Model()); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := solver.VerifyUnsat(w.f, proof); err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
		}
	}
}
