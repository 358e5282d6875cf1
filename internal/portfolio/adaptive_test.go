package portfolio

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/cnf"
	"repro/internal/gen"
	"repro/internal/solver"
)

// churnOpts is the kill/respawn-heavy stress configuration: a 1ms grace
// period with KillBelow ≥ 1 makes the supervisor kill everything but
// the momentary leader at every sample.
func churnOpts(workers int) Options {
	return Options{
		Workers:     workers,
		Adaptive:    true,
		Grace:       time.Millisecond,
		KillBelow:   2,
		MaxRespawns: 8,
	}
}

// genMix is the full internal/gen instance family mix used by the
// differential tests: hard random, pigeonhole, parity chains (both
// polarities), colouring, queens and the equivalence workloads.
func genMix() []struct {
	name string
	f    *cnf.Formula
} {
	return []struct {
		name string
		f    *cnf.Formula
	}{
		{"ksat-small", gen.RandomKSAT(14, 60, 3, 1)},
		{"3sat-hard", gen.Random3SATHard(60, 2)},
		{"php5", gen.Pigeonhole(5)},
		{"php6", gen.Pigeonhole(6)},
		{"xor-unsat", gen.XorChain(14, true, 3)},
		{"xor-sat", gen.XorChain(14, false, 4)},
		{"color", gen.GraphColoring(12, 28, 3, 5)},
		{"queens6", gen.Queens(6)},
		{"ladder", gen.EquivalenceLadder(20, 12, 6)},
		{"dup-equiv", gen.DuplicateWithEquivalences(gen.RandomKSAT(10, 42, 3, 7), 8)},
	}
}

// TestAdaptiveAgreesWithSequential is the scheduling differential: the
// adaptive portfolio — including a kill/respawn-heavy configuration —
// must agree with the sequential solver on SAT/UNSAT over the full
// instance mix, and Sat models must satisfy the formula. Run under
// -race in CI, this also exercises supervisor/worker/pool interleaving.
func TestAdaptiveAgreesWithSequential(t *testing.T) {
	for _, inst := range genMix() {
		seq := solver.FromFormula(inst.f, solver.Options{})
		want := seq.Solve()
		if want == solver.Unknown {
			t.Fatalf("%s: sequential reference returned Unknown", inst.name)
		}
		for _, cfg := range []struct {
			name string
			opts Options
		}{
			{"adaptive", Options{Workers: 4, Adaptive: true, Grace: 20 * time.Millisecond, Seed: 1}},
			{"churn", churnOpts(4)},
		} {
			res := Solve(context.Background(), inst.f, cfg.opts)
			if res.Status != want {
				t.Fatalf("%s/%s: portfolio=%v sequential=%v", inst.name, cfg.name, res.Status, want)
			}
			if res.Status == solver.Sat && !res.Model.Satisfies(inst.f) {
				t.Fatalf("%s/%s: returned model does not satisfy the formula", inst.name, cfg.name)
			}
			if res.Winner < 0 || res.Recipe == "" {
				t.Fatalf("%s/%s: missing winner attribution: %+v", inst.name, cfg.name, res.Status)
			}
			if res.Workers[res.Winner].Reason != "winner" {
				t.Fatalf("%s/%s: winner report reason = %q", inst.name, cfg.name, res.Workers[res.Winner].Reason)
			}
		}
	}
}

// TestAdaptiveKillHeavyNeverLosesWinner: under a tiny grace period and
// an aggressive threshold the supervisor churns workers constantly, yet
// the portfolio must still decide PHP (never Unknown — a kill can never
// lose a winner, and the last live worker is never killed) and must
// record the full lineage.
func TestAdaptiveKillHeavyNeverLosesWinner(t *testing.T) {
	res := Solve(context.Background(), gen.Pigeonhole(7), churnOpts(4))
	if res.Status != solver.Unsat {
		t.Fatalf("PHP(7) must be UNSAT under churn, got %v (kills %d respawns %d)",
			res.Status, res.Kills, res.Respawns)
	}
	if res.Kills == 0 || res.Respawns == 0 {
		t.Fatalf("churn configuration produced no churn: kills %d respawns %d", res.Kills, res.Respawns)
	}
	if len(res.Workers) != 4+res.Respawns {
		t.Fatalf("lineage incomplete: %d reports for 4 slots + %d respawns", len(res.Workers), res.Respawns)
	}
	sawGen1, sawKilled := false, false
	for i, w := range res.Workers {
		if w.ID != i {
			t.Fatalf("reports not in spawn order: index %d has ID %d", i, w.ID)
		}
		if w.Slot < 0 || w.Slot >= 4 {
			t.Fatalf("worker %d reports slot %d", i, w.Slot)
		}
		if w.Gen > 0 {
			sawGen1 = true
		}
		switch w.Reason {
		case "killed-slow", "retired":
			sawKilled = true
			if w.Status != solver.Unknown {
				t.Fatalf("worker %d killed yet reported %v — a definitive answer must trump a kill", i, w.Status)
			}
		case "winner", "interrupted", "":
		default:
			t.Fatalf("worker %d has unknown reason %q", i, w.Reason)
		}
	}
	if !sawGen1 || !sawKilled {
		t.Fatalf("lineage lacks respawned (gen>0: %v) or killed (%v) workers", sawGen1, sawKilled)
	}
}

// TestAdaptiveCancellation: cancelling the context mid-churn must
// interrupt every worker — including freshly respawned ones — and
// return Unknown promptly, never deadlocking the scheduling loop.
func TestAdaptiveCancellation(t *testing.T) {
	f := gen.Pigeonhole(10) // too hard to finish before the cancel
	for _, delay := range []time.Duration{5 * time.Millisecond, 40 * time.Millisecond} {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(delay)
			cancel()
		}()
		start := time.Now()
		res := Solve(ctx, f, churnOpts(4))
		if res.Status != solver.Unknown || res.Winner != -1 {
			t.Fatalf("cancelled churn run must be Unknown with no winner: %v", res.Status)
		}
		if time.Since(start) > 30*time.Second {
			t.Fatal("cancellation did not propagate promptly through the scheduler")
		}
		cancel()
	}

	// Already-cancelled context: immediate Unknown, no respawn storm.
	done, cancel := context.WithCancel(context.Background())
	cancel()
	res := Solve(done, f, churnOpts(2))
	if res.Status != solver.Unknown {
		t.Fatalf("pre-cancelled churn run returned %v", res.Status)
	}
	if res.Respawns != 0 {
		t.Fatalf("pre-cancelled run respawned %d workers", res.Respawns)
	}
}

// TestAdaptiveSingleWorkerDeterminism: Adaptive with Workers: 1 is the
// sequential solver bit for bit — the supervisor and the pool must both
// disengage, exactly as with static scheduling.
func TestAdaptiveSingleWorkerDeterminism(t *testing.T) {
	base := solver.Options{Seed: 42, RandomFreq: 0.05}
	f := gen.Queens(10)
	seq := solver.FromFormula(f, base)
	seqSt := seq.Solve()

	res := Solve(context.Background(), f, Options{
		Workers: 1, Adaptive: true, Grace: time.Millisecond, KillBelow: 5, Base: base,
	})
	if res.Status != seqSt {
		t.Fatalf("portfolio=%v sequential=%v", res.Status, seqSt)
	}
	if res.Kills != 0 || res.Respawns != 0 {
		t.Fatalf("single-worker adaptive run scheduled: kills %d respawns %d", res.Kills, res.Respawns)
	}
	if res.Workers[0].Stats != seq.Stats {
		t.Fatalf("stats diverge:\nportfolio:  %+v\nsequential: %+v", res.Workers[0].Stats, seq.Stats)
	}
}

// TestAdaptiveUnderAssumptions: the adaptive path preserves
// assumption-core extraction across kills and respawns.
func TestAdaptiveUnderAssumptions(t *testing.T) {
	f := cnf.New(3)
	f.AddDIMACS(1, 2)
	res := Solve(context.Background(), f, churnOpts(2), cnf.NegLit(1), cnf.NegLit(2))
	if res.Status != solver.Unsat {
		t.Fatalf("got %v, want Unsat under assumptions", res.Status)
	}
	if len(res.Core) == 0 {
		t.Fatal("missing conflict core")
	}
	for _, l := range res.Core {
		if l != cnf.NegLit(1) && l != cnf.NegLit(2) {
			t.Fatalf("core literal %v is not an assumption", l)
		}
	}
}

// TestProofWorkerWinsAlone: a proof-carrying base runs one worker
// whatever Workers asks for — the base configuration, bit-for-bit the
// sequential solver — so every UNSAT verdict is Proved and the stream
// is that worker's complete refutation.
func TestProofWorkerWinsAlone(t *testing.T) {
	f := gen.Pigeonhole(5)
	sink := &solver.Proof{}
	res := Solve(context.Background(), f, Options{
		Workers: 3,
		Base:    solver.Options{Proof: sink},
	})
	if res.Status != solver.Unsat {
		t.Fatalf("PHP(5) must be UNSAT, got %v", res.Status)
	}
	if !res.Proved {
		t.Fatal("proof-carrying UNSAT must be Proved")
	}
	if len(res.Workers) != 1 || res.Winner != 0 {
		t.Fatalf("proof run spawned %d workers (winner %d), want the base worker alone", len(res.Workers), res.Winner)
	}
	seq := solver.FromFormula(f, solver.Options{})
	if seq.Solve() != solver.Unsat || res.Workers[0].Stats.Conflicts != seq.Stats.Conflicts {
		t.Fatalf("proof worker searched %d conflicts, sequential solver %d", res.Workers[0].Stats.Conflicts, seq.Stats.Conflicts)
	}
	if sink.NumLemmas() == 0 {
		t.Fatal("no lemmas streamed")
	}
	if err := solver.VerifyUnsat(f, sink); err != nil {
		t.Fatalf("proof stream rejected: %v", err)
	}
}

// TestRespawnDeterministicPerSeed: the recipe drawn for a given (spawn
// index, slot, generation, exploit hint) is a pure function of those
// inputs and the seeds — kill timing decides which draws happen, but a
// recorded lineage pins every recipe and seed that ran.
func TestRespawnDeterministicPerSeed(t *testing.T) {
	base := solver.Options{Seed: 11}
	seeds := map[int64]int{} // PRNG seed → spawn index (unique per spawn)
	for gen := 1; gen <= 6; gen++ {
		for exploitIdx := -1; exploitIdx < len(recipes); exploitIdx++ {
			spawnIdx := 4 + gen
			a, an, ai := respawn(spawnIdx, 2, gen, base, 9, exploitIdx)
			b, bn, bi := respawn(spawnIdx, 2, gen, base, 9, exploitIdx)
			if an != bn || ai != bi || !reflect.DeepEqual(a, b) {
				t.Fatalf("respawn(%d,2,%d,%d) not deterministic", spawnIdx, gen, exploitIdx)
			}
			if a.Seed == base.Seed {
				t.Fatalf("respawned worker kept the base seed (gen %d)", gen)
			}
			if a.RandomFreq == 0 {
				t.Fatalf("respawned recipe %s has no randomization: fresh seed is inert", an)
			}
			if prev, dup := seeds[a.Seed]; dup && prev != spawnIdx {
				t.Fatalf("seed collision between spawn %d and spawn %d", prev, spawnIdx)
			}
			seeds[a.Seed] = spawnIdx
			if gen%2 == 1 && exploitIdx >= 0 && ai != exploitIdx {
				t.Fatalf("odd generation must exploit recipe %d, picked %d", exploitIdx, ai)
			}
		}
	}
}
