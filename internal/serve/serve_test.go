package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cec"
	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/gen"
	"repro/internal/portfolio"
)

// --- test fixtures -------------------------------------------------------

// dimacsSpec renders f as a DIMACS job spec.
func dimacsSpec(f *cnf.Formula) Spec {
	return Spec{Kind: KindDIMACS, DIMACS: cnf.DIMACSString(f)}
}

// satSpec / unsatSpec build small parity formulas with a known verdict;
// the seed diversifies the formula so distinct seeds are distinct jobs.
func satSpec(n int, seed int64) Spec   { return dimacsSpec(gen.XorChain(n, false, seed)) }
func unsatSpec(n int, seed int64) Spec { return dimacsSpec(gen.XorChain(n, true, seed)) }

// blockerSpec is a job guaranteed to still be solving when the test
// gets around to poking it: a pigeonhole instance far beyond the
// deadline horizon of any test.
func blockerSpec() Spec {
	sp := dimacsSpec(gen.Pigeonhole(10))
	sp.TimeoutMS = int64(5 * time.Minute / time.Millisecond)
	sp.NoCache = true
	return sp
}

// nandAdder returns a functionally identical but structurally different
// ripple-carry adder (carry via NAND-NAND), sharing input names with
// circuit.RippleCarryAdder — the classic CEC-positive pair.
func nandAdder(n int) *circuit.Circuit {
	c := circuit.New()
	as := make([]circuit.NodeID, n)
	bs := make([]circuit.NodeID, n)
	for i := 0; i < n; i++ {
		as[i] = c.AddInput(fmt.Sprintf("a%d", i))
	}
	for i := 0; i < n; i++ {
		bs[i] = c.AddInput(fmt.Sprintf("b%d", i))
	}
	carry := c.AddInput("cin")
	for i := 0; i < n; i++ {
		axb := c.AddGate(circuit.Xor, fmt.Sprintf("x%d", i), as[i], bs[i])
		s := c.AddGate(circuit.Xor, fmt.Sprintf("s%d", i), axb, carry)
		c.MarkOutput(s)
		n1 := c.AddGate(circuit.Nand, fmt.Sprintf("n1_%d", i), as[i], bs[i])
		n2 := c.AddGate(circuit.Nand, fmt.Sprintf("n2_%d", i), axb, carry)
		carry = c.AddGate(circuit.Nand, fmt.Sprintf("c%d", i), n1, n2)
	}
	c.MarkOutput(carry)
	return c
}

func benchText(t testing.TB, c *circuit.Circuit) string {
	t.Helper()
	s, err := circuit.BenchString(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func cecSpec(t testing.TB, equivalent bool) Spec {
	t.Helper()
	a := circuit.RippleCarryAdder(3)
	b := nandAdder(3)
	if !equivalent {
		// Flip one gate to break equivalence.
		for i := range b.Nodes {
			if b.Nodes[i].Type == circuit.Nand {
				b.Nodes[i].Type = circuit.And
				break
			}
		}
	}
	return Spec{Kind: KindCEC, Left: benchText(t, a), Right: benchText(t, b)}
}

// counterBench is a 3-bit binary counter in .bench form: latches reset
// to 0, bad fires when the count reaches 7 — so the shortest violation
// has depth exactly 7.
const counterBench = `
OUTPUT(bad)
q0 = DFF(d0)
q1 = DFF(d1)
q2 = DFF(d2)
d0 = NOT(q0)
d1 = XOR(q1, q0)
c2 = AND(q0, q1)
d2 = XOR(q2, c2)
bad = AND(q0, q1, q2)
`

func bmcSpec(depth int) Spec {
	return Spec{Kind: KindBMC, Model: counterBench, Depth: depth}
}

// waitStatus polls until the job reaches want (or t fails).
func waitStatus(t *testing.T, j *Job, want Status) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if j.Status() == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s stuck in %s, want %s", j.ID, j.Status(), want)
}

func mustResult(t *testing.T, j *Job) Result {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := j.Wait(ctx)
	if err != nil {
		t.Fatalf("job %s: %v", j.ID, err)
	}
	return res
}

// --- acceptance-criteria tests ------------------------------------------

// TestServeStressMixedKinds is the headline stress test: ≥32 concurrent
// jobs across all three kinds complete under -race with the correct
// verdicts.
func TestServeStressMixedKinds(t *testing.T) {
	s := NewScheduler(Config{CPUBudget: 4, MaxRunning: 4, QueueDepth: 128})
	defer s.Close()

	type want struct {
		spec    Spec
		verdict string
	}
	var cases []want
	for seed := int64(0); seed < 8; seed++ {
		cases = append(cases,
			want{satSpec(10, seed), "SAT"},
			want{unsatSpec(10, seed), "UNSAT"},
		)
	}
	for i := 0; i < 6; i++ {
		cases = append(cases,
			want{cecSpec(t, true), "EQUIVALENT"},
			want{cecSpec(t, false), "NOT_EQUIVALENT"},
		)
	}
	for i := 0; i < 2; i++ {
		cases = append(cases,
			want{bmcSpec(8), "VIOLATED"},
			want{bmcSpec(5), "SAFE"},
		)
	}
	if len(cases) < 32 {
		t.Fatalf("only %d cases, want ≥ 32", len(cases))
	}

	var wg sync.WaitGroup
	errs := make(chan error, len(cases))
	for i, c := range cases {
		wg.Add(1)
		go func(i int, c want) {
			defer wg.Done()
			j, err := s.Submit(c.spec)
			if err != nil {
				errs <- fmt.Errorf("case %d: submit: %v", i, err)
				return
			}
			ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
			defer cancel()
			res, err := j.Wait(ctx)
			if err != nil {
				errs <- fmt.Errorf("case %d: wait: %v", i, err)
				return
			}
			if res.Verdict != c.verdict {
				errs <- fmt.Errorf("case %d (%s): verdict %s, want %s", i, c.spec.Kind, res.Verdict, c.verdict)
			}
		}(i, c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := s.Stats()
	if st.Submitted != int64(len(cases)) {
		t.Errorf("submitted %d, want %d", st.Submitted, len(cases))
	}
	if st.Completed != int64(len(cases)) {
		t.Errorf("completed %d, want %d", st.Completed, len(cases))
	}
	if st.Running != 0 || st.QueueDepth != 0 {
		t.Errorf("occupancy after drain: running %d queue %d", st.Running, st.QueueDepth)
	}
}

// TestSingleflightCoalesce proves the coalescing invariant: identical
// concurrent formulas are solved ONCE and the result fans out — asserted
// through the Solves/Coalesced/CacheHits counters.
func TestSingleflightCoalesce(t *testing.T) {
	s := NewScheduler(Config{CPUBudget: 2, MaxRunning: 1, QueueDepth: 16})
	defer s.Close()

	// Occupy the only executor so the identical submissions pile up
	// behind a queued leader.
	blocker, err := s.Submit(blockerSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, blocker, StatusRunning)

	// The same formula, serialized with permuted clause order per copy:
	// the canonical fingerprint must see through the permutation.
	f := gen.XorChain(10, true, 42)
	perm := f.Clone()
	perm.Clauses[0], perm.Clauses[len(perm.Clauses)-1] = perm.Clauses[len(perm.Clauses)-1], perm.Clauses[0]
	jobs := make([]*Job, 0, 10)
	for i := 0; i < 10; i++ {
		src := f
		if i%2 == 1 {
			src = perm
		}
		j, err := s.Submit(dimacsSpec(src))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}

	blocker.Cancel()
	for _, j := range jobs {
		if res := mustResult(t, j); res.Verdict != "UNSAT" {
			t.Fatalf("job %s: verdict %s, want UNSAT", j.ID, res.Verdict)
		}
	}
	coalescedSeen := 0
	for _, j := range jobs {
		if res, _ := j.Result(); res.Coalesced {
			coalescedSeen++
		}
	}
	st := s.Stats()
	if st.Solves != 2 { // the blocker + exactly one leader for all 10
		t.Errorf("solves %d, want 2 (identical formulas must coalesce)", st.Solves)
	}
	if st.Coalesced != 9 || coalescedSeen != 9 {
		t.Errorf("coalesced counter %d / marked results %d, want 9 / 9", st.Coalesced, coalescedSeen)
	}

	// A later identical submission is a cache hit: no new solve.
	j, err := s.Submit(dimacsSpec(perm))
	if err != nil {
		t.Fatal(err)
	}
	res := mustResult(t, j)
	if !res.Cached || res.Verdict != "UNSAT" {
		t.Fatalf("resubmission: cached=%v verdict=%s, want cached UNSAT", res.Cached, res.Verdict)
	}
	st = s.Stats()
	if st.CacheHits != 1 || st.Solves != 2 {
		t.Errorf("cache hits %d solves %d, want 1 and still 2", st.CacheHits, st.Solves)
	}

	// The same formula pinned by one more unit clause is a different job:
	// it must be solved, never answered from the cached entry.
	pinned := f.Clone()
	pinned.AddClause(cnf.Clause{cnf.PosLit(1)})
	j, err = s.Submit(dimacsSpec(pinned))
	if err != nil {
		t.Fatal(err)
	}
	if res := mustResult(t, j); res.Cached || res.Verdict != "UNSAT" {
		t.Fatalf("pinned formula: cached=%v verdict=%s, want a fresh UNSAT", res.Cached, res.Verdict)
	}
	if st = s.Stats(); st.CacheHits != 1 || st.Solves != 3 {
		t.Errorf("cache hits %d solves %d after the pinned formula, want 1 and 3", st.CacheHits, st.Solves)
	}
}

// TestConcurrentDuplicatesSolveOnce stresses the hand-off from the
// in-flight leader to the cache. Submitters spin on one payload while
// its leader finishes, so some of them miss the cache just before the
// leader's put and reach the inflight map just after its delete. Each
// distinct payload must still reach an engine exactly once.
func TestConcurrentDuplicatesSolveOnce(t *testing.T) {
	s := NewScheduler(Config{CPUBudget: 2, MaxRunning: 2, QueueDepth: 512})
	defer s.Close()
	const rounds, submitters = 25, 4
	for r := 0; r < rounds; r++ {
		spec := satSpec(6+r, 1) // distinct sizes: no payload repeats
		var mu sync.Mutex
		var jobs []*Job
		var wg sync.WaitGroup
		for g := 0; g < submitters; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Spin until a submission is answered from the cache: by
				// then the leader's put has landed.
				for {
					j, err := s.Submit(spec)
					if errors.Is(err, ErrQueueFull) {
						runtime.Gosched()
						continue
					}
					if err != nil {
						t.Error(err)
						return
					}
					mu.Lock()
					jobs = append(jobs, j)
					mu.Unlock()
					if res, ok := j.Result(); ok && res.Cached {
						return
					}
				}
			}()
		}
		wg.Wait()
		for _, j := range jobs {
			if res := mustResult(t, j); res.Verdict != "SAT" {
				t.Fatalf("round %d job %s: verdict %s, want SAT", r, j.ID, res.Verdict)
			}
		}
		if st := s.Stats(); st.Solves != int64(r+1) {
			t.Fatalf("round %d: solves = %d for %d distinct payloads (%d submissions)", r, st.Solves, r+1, len(jobs))
		}
	}
}

// TestQueueFullSheds pins load shedding: a full queue rejects with
// ErrQueueFull instead of blocking the submitter.
func TestQueueFullSheds(t *testing.T) {
	s := NewScheduler(Config{CPUBudget: 1, MaxRunning: 1, QueueDepth: 1})
	defer s.Close()

	blocker, err := s.Submit(blockerSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, blocker, StatusRunning)

	// Fills the single queue slot.
	queued, err := s.Submit(satSpec(10, 1))
	if err != nil {
		t.Fatal(err)
	}
	// Next distinct submission must shed, promptly.
	start := time.Now()
	_, err = s.Submit(satSpec(10, 2))
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("shedding took %v; it must not block", d)
	}
	if st := s.Stats(); st.Shed != 1 {
		t.Errorf("shed counter %d, want 1", st.Shed)
	}
	// An identical copy of the QUEUED job still coalesces — coalescing
	// consumes no queue slot, so it is not shed.
	co, err := s.Submit(satSpec(10, 1))
	if err != nil {
		t.Fatalf("coalescing submit shed: %v", err)
	}

	blocker.Cancel()
	if res := mustResult(t, queued); res.Verdict != "SAT" {
		t.Fatalf("queued job verdict %s, want SAT", res.Verdict)
	}
	if res := mustResult(t, co); !res.Coalesced || res.Verdict != "SAT" {
		t.Fatalf("coalesced job: %+v, want coalesced SAT", res)
	}
}

// TestCancelMidFlight pins cooperative cancellation of a RUNNING job.
func TestCancelMidFlight(t *testing.T) {
	s := NewScheduler(Config{CPUBudget: 2, MaxRunning: 1})
	defer s.Close()

	j, err := s.Submit(blockerSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, j, StatusRunning)
	if !s.Cancel(j.ID) {
		t.Fatal("Cancel should know the job")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := j.Wait(ctx); !errors.Is(err, ErrCancelled) {
		t.Fatalf("wait err = %v, want ErrCancelled", err)
	}
	if st := j.Status(); st != StatusCancelled {
		t.Fatalf("status %s, want cancelled", st)
	}
	if st := s.Stats(); st.Cancelled != 1 {
		t.Errorf("cancelled counter %d, want 1", st.Cancelled)
	}
}

// TestShutdownNoGoroutineLeaks closes a busy scheduler and checks every
// goroutine it started has exited.
func TestShutdownNoGoroutineLeaks(t *testing.T) {
	before := runtime.NumGoroutine()

	s := NewScheduler(Config{CPUBudget: 2, MaxRunning: 2, QueueDepth: 8})
	running, err := s.Submit(blockerSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, running, StatusRunning)
	var rest []*Job
	for i := 0; i < 6; i++ {
		j, err := s.Submit(satSpec(10, int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		rest = append(rest, j)
	}
	s.Close()

	// Every job must have reached a terminal state.
	for _, j := range append(rest, running) {
		switch j.Status() {
		case StatusDone, StatusCancelled, StatusFailed:
		default:
			t.Errorf("job %s left in %s after Close", j.ID, j.Status())
		}
	}
	// Goroutines drain back to (about) the baseline.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		now := runtime.NumGoroutine()
		if now <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after shutdown", before, now)
		}
		time.Sleep(10 * time.Millisecond)
	}

	if _, err := s.Submit(satSpec(10, 99)); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after Close: %v, want ErrClosed", err)
	}
}

// TestRecipeMemorySeedsNextJob pins the cross-run memory: a decided
// portfolio win records its recipe family for the instance class, and
// the next job of the same class is seeded with it (visible as
// Result.Preferred).
func TestRecipeMemorySeedsNextJob(t *testing.T) {
	s := NewScheduler(Config{CPUBudget: 2, MaxRunning: 1})
	defer s.Close()

	first := satSpec(14, 5)
	first.Workers = 2 // portfolio ⇒ a winning recipe is reported
	j1, err := s.Submit(first)
	if err != nil {
		t.Fatal(err)
	}
	r1 := mustResult(t, j1)
	if r1.Recipe == "" {
		t.Fatal("portfolio job should report a winning recipe")
	}
	family := portfolio.RecipeFamily(r1.Recipe)
	want := family
	if family == "base" {
		// Base wins are deliberately not recorded (the portfolio runs
		// base permanently on worker 0, so "prefer base" is no hint).
		want = ""
	}

	// Same class (same var magnitude and density), different formula.
	second := satSpec(14, 6)
	second.Workers = 2
	j2, err := s.Submit(second)
	if err != nil {
		t.Fatal(err)
	}
	r2 := mustResult(t, j2)
	if r2.Preferred != want {
		t.Fatalf("second job preferred %q, want remembered family %q", r2.Preferred, want)
	}

	// The memory path itself, independent of which recipe happens to
	// win the race above: a recorded diversified family seeds the next
	// same-class job.
	s.mem.record("dimacs/v4/r40", "keepall")
	if got := s.mem.best("dimacs/v4/r40"); got != "keepall" {
		t.Fatalf("recorded family not retrievable: %q", got)
	}
}

// TestBadSpecRejected covers validation of each kind.
func TestBadSpecRejected(t *testing.T) {
	s := NewScheduler(Config{CPUBudget: 1, MaxRunning: 1})
	defer s.Close()
	for _, sp := range []Spec{
		{Kind: "nope"},
		{Kind: KindDIMACS, DIMACS: "p cnf x\n"},
		{Kind: KindDIMACS},
		{Kind: KindCEC, Left: "INPUT(a)\nOUTPUT(a)\n", Right: "???"},
		{Kind: KindBMC, Model: counterBench, Depth: -1},
		{Kind: KindBMC, Model: counterBench, Depth: maxBMCDepth + 1},
	} {
		if _, err := s.Submit(sp); !errors.Is(err, ErrBadJob) {
			t.Errorf("spec %+v: err %v, want ErrBadJob", sp.Kind, err)
		}
	}
}

// TestDeadlineYieldsUnknown: a tiny deadline on a hard instance ends
// decided=false rather than hanging or cancelling.
func TestDeadlineYieldsUnknown(t *testing.T) {
	s := NewScheduler(Config{CPUBudget: 1, MaxRunning: 1})
	defer s.Close()
	sp := dimacsSpec(gen.Pigeonhole(10))
	sp.TimeoutMS = 50
	j, err := s.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	res := mustResult(t, j)
	if res.Decided || res.Verdict != "UNKNOWN" {
		t.Fatalf("result %+v, want undecided UNKNOWN", res)
	}
	// Undecided results must not poison the cache.
	if st := s.Stats(); st.CacheEntries != 0 {
		t.Errorf("cache entries %d after UNKNOWN, want 0", st.CacheEntries)
	}
}

// TestCECWrongCounterexampleFails: a NOT_EQUIVALENT answer whose
// counterexample does not distinguish the submitted circuits ends the
// job failed with ErrBadWitness, and the verdict never reaches the
// cache: the same spec solves afresh once the engine is sound again.
func TestCECWrongCounterexampleFails(t *testing.T) {
	sound := checkEquivalence
	defer func() { checkEquivalence = sound }()
	// The pair is equivalent, so no input vector distinguishes it.
	checkEquivalence = func(_ context.Context, a, _ *circuit.Circuit, _ cec.Options) (*cec.Result, error) {
		return &cec.Result{Decided: true, Counterexample: make([]bool, len(a.Inputs)), SATCalls: 1}, nil
	}
	s := NewScheduler(Config{CPUBudget: 1, MaxRunning: 1})
	defer s.Close()
	sp := cecSpec(t, true)
	j, err := s.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := j.Wait(ctx); !errors.Is(err, ErrBadWitness) {
		t.Fatalf("wrong counterexample: err %v, want ErrBadWitness", err)
	}
	if v := j.View(); v.Status != StatusFailed || v.Result != nil || !strings.Contains(v.Error, "counterexample") {
		t.Fatalf("view %+v, want failed with a reason and no result", v)
	}
	if st := s.Stats(); st.Failed != 1 || st.CacheEntries != 0 {
		t.Fatalf("failed %d cache entries %d, want 1 and 0", st.Failed, st.CacheEntries)
	}

	checkEquivalence = sound
	j, err = s.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	res := mustResult(t, j)
	if res.Verdict != "EQUIVALENT" || res.Cached {
		t.Fatalf("resubmitted: %+v, want a fresh EQUIVALENT", res)
	}
	if st := s.Stats(); st.Solves != 2 || st.CacheHits != 0 {
		t.Fatalf("solves %d cache hits %d, want 2 and 0", st.Solves, st.CacheHits)
	}
}

// TestFairShareClamp: with the fleet busy, a greedy worker request is
// clamped to the fair share.
func TestFairShareClamp(t *testing.T) {
	s := NewScheduler(Config{CPUBudget: 4, MaxRunning: 2})
	defer s.Close()

	blocker, err := s.Submit(blockerSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, blocker, StatusRunning)

	greedy := satSpec(10, 3)
	greedy.Workers = 64
	j, err := s.Submit(greedy)
	if err != nil {
		t.Fatal(err)
	}
	res := mustResult(t, j)
	// The blocker arrived on an idle fleet and was granted the whole
	// budget of 4; the greedy job's 64-worker request is clamped to
	// what the debit ledger has left — the one-worker floor — so the
	// fleet total (5) never exceeds budget + (MaxRunning-1).
	if res.Workers != 1 {
		t.Fatalf("granted %d workers, want the floor of 1 (budget committed)", res.Workers)
	}
	blocker.Cancel()
	<-blocker.Done()

	// With the budget released, a fresh job on the now-idle fleet gets
	// the whole budget again.
	late := satSpec(10, 4)
	late.Workers = 64
	j2, err := s.Submit(late)
	if err != nil {
		t.Fatal(err)
	}
	if res := mustResult(t, j2); res.Workers != 4 {
		t.Fatalf("granted %d workers after release, want the full budget of 4", res.Workers)
	}

	// A certified job is one solver's log: it takes and debits one
	// worker like a BMC job, so with a budget of 2 a plain job arriving
	// beside it gets the other one — never the floor on top of a
	// proof job holding the whole budget.
	s2 := NewScheduler(Config{CPUBudget: 2, MaxRunning: 2})
	defer s2.Close()
	proofBlocker := blockerSpec()
	proofBlocker.Proof = true
	pb, err := s2.Submit(proofBlocker)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, pb, StatusRunning)
	if w := pb.View().Workers; w != 1 {
		t.Fatalf("proof job granted %d workers, want 1", w)
	}
	plain := satSpec(10, 5)
	plain.Workers = 64
	j3, err := s2.Submit(plain)
	if err != nil {
		t.Fatal(err)
	}
	if res := mustResult(t, j3); res.Workers != 1 {
		t.Fatalf("plain job beside a proof job granted %d workers, want 1", res.Workers)
	}
	if inUse := s2.Stats().WorkersInUse; inUse > 2 {
		t.Fatalf("workersInUse = %d exceeds the budget of 2", inUse)
	}
	pb.Cancel()
	<-pb.Done()
	if inUse := s2.Stats().WorkersInUse; inUse != 0 {
		t.Fatalf("workersInUse = %d on an idle scheduler, want 0", inUse)
	}
}

// TestProgressSampling: a running job exposes live progress through its
// monitor; a finished job does not.
func TestProgressSampling(t *testing.T) {
	s := NewScheduler(Config{CPUBudget: 2, MaxRunning: 1})
	defer s.Close()

	j, err := s.Submit(blockerSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, j, StatusRunning)
	var pv *ProgressView
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		pv = j.Progress()
		if pv != nil && pv.Conflicts > 0 && len(pv.Workers) > 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if pv == nil || pv.Conflicts == 0 || len(pv.Workers) == 0 {
		t.Fatalf("no live progress observed: %+v", pv)
	}
	j.Cancel()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	j.Wait(ctx) //nolint:errcheck // cancelled is expected
	if j.Progress() != nil {
		t.Fatal("finished job should not report progress")
	}
}

// TestResultCacheLRU covers the cache in isolation: eviction order and
// copy semantics.
func TestResultCacheLRU(t *testing.T) {
	c := newResultCache(2)
	k := func(b byte) jobKey { var k jobKey; k[0] = b; return k }
	c.put(k(1), Result{Verdict: "SAT"})
	c.put(k(2), Result{Verdict: "UNSAT"})
	if _, ok := c.get(k(1)); !ok {
		t.Fatal("k1 should be present")
	}
	c.put(k(3), Result{Verdict: "SAT"}) // evicts k2 (k1 was just used)
	if _, ok := c.get(k(2)); ok {
		t.Fatal("k2 should have been evicted")
	}
	if _, ok := c.get(k(1)); !ok {
		t.Fatal("k1 should have survived")
	}
	r, _ := c.get(k(3))
	r.Verdict = "mutated"
	if r2, _ := c.get(k(3)); r2.Verdict != "SAT" {
		t.Fatal("cache must hand out copies")
	}
}

// TestRecipeMemoryTable covers the memory in isolation.
func TestRecipeMemoryTable(t *testing.T) {
	m := newRecipeMemory(2)
	if got := m.best("c1"); got != "" {
		t.Fatalf("empty memory best = %q", got)
	}
	m.record("c1", "luby-agile")
	m.record("c1", "geometric")
	m.record("c1", "geometric")
	if got := m.best("c1"); got != "geometric" {
		t.Fatalf("best = %q, want geometric", got)
	}
	m.record("c2", "base")
	m.record("c3", "keepall") // evicts c1 (capacity 2, FIFO)
	if got := m.best("c1"); got != "" {
		t.Fatalf("evicted class best = %q, want \"\"", got)
	}
	if got := m.best("c3"); got != "keepall" {
		t.Fatalf("best(c3) = %q, want keepall", got)
	}
}

// TestFollowerNotBoundByLeaderBudget pins the singleflight budget rule:
// the job key identifies only the formula, so a follower with a larger
// budget must not inherit an UNKNOWN the leader earned by exhausting
// its own tiny budget — it re-enters the queue and solves for real.
func TestFollowerNotBoundByLeaderBudget(t *testing.T) {
	s := NewScheduler(Config{CPUBudget: 1, MaxRunning: 1, QueueDepth: 8})
	defer s.Close()

	blocker, err := s.Submit(blockerSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, blocker, StatusRunning)

	f := gen.Pigeonhole(6) // needs more than 1 conflict, decides quickly
	lead := dimacsSpec(f)
	lead.MaxConflicts = 1 // guaranteed UNKNOWN
	leader, err := s.Submit(lead)
	if err != nil {
		t.Fatal(err)
	}
	follow := dimacsSpec(f) // same key, unlimited budget
	follower, err := s.Submit(follow)
	if err != nil {
		t.Fatal(err)
	}
	blocker.Cancel()

	if res := mustResult(t, leader); res.Decided {
		t.Fatalf("leader with 1-conflict budget decided: %+v", res)
	}
	res := mustResult(t, follower)
	if !res.Decided || res.Verdict != "UNSAT" {
		t.Fatalf("follower inherited the leader's budgeted UNKNOWN: %+v", res)
	}
	if res.Coalesced {
		t.Error("a re-solved follower should not be marked coalesced")
	}
	// The decided re-solve is cached; the UNKNOWN was not.
	j, err := s.Submit(dimacsSpec(f))
	if err != nil {
		t.Fatal(err)
	}
	if res := mustResult(t, j); !res.Cached || res.Verdict != "UNSAT" {
		t.Fatalf("resubmission after re-solve: %+v, want cached UNSAT", res)
	}
}

// TestResultDeepCopy pins the "caller owns every field" contract:
// mutating a returned model must not corrupt the cache.
func TestResultDeepCopy(t *testing.T) {
	s := NewScheduler(Config{CPUBudget: 1, MaxRunning: 1})
	defer s.Close()

	sp := satSpec(10, 1)
	j, err := s.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	res := mustResult(t, j)
	if len(res.Model) == 0 {
		t.Fatal("expected a model")
	}
	want := res.Model[0]
	res.Model[0] = -want // caller scribbles on its copy

	j2, err := s.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	res2 := mustResult(t, j2)
	if !res2.Cached {
		t.Fatal("second submission should hit the cache")
	}
	if res2.Model[0] != want {
		t.Fatalf("cache entry corrupted through a returned result: model[0] = %d, want %d", res2.Model[0], want)
	}
}

// TestCancelledLeaderDoesNotCancelFollower pins follower promotion: one
// client cancelling its job must not cancel another client's identical
// job — the follower takes over as the key's new leader.
func TestCancelledLeaderDoesNotCancelFollower(t *testing.T) {
	s := NewScheduler(Config{CPUBudget: 1, MaxRunning: 1, QueueDepth: 8})
	defer s.Close()

	blocker, err := s.Submit(blockerSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, blocker, StatusRunning)

	f := gen.XorChain(10, true, 77)
	leader, err := s.Submit(dimacsSpec(f))
	if err != nil {
		t.Fatal(err)
	}
	follower, err := s.Submit(dimacsSpec(f))
	if err != nil {
		t.Fatal(err)
	}
	leader.Cancel()
	blocker.Cancel()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := leader.Wait(ctx); !errors.Is(err, ErrCancelled) {
		t.Fatalf("leader wait: %v, want ErrCancelled", err)
	}
	res := mustResult(t, follower)
	if !res.Decided || res.Verdict != "UNSAT" {
		t.Fatalf("follower inherited the leader's cancel: %+v, want UNSAT", res)
	}
}

// TestFollowerDeadlineWhileCoalesced pins the lifetime-deadline
// contract: a short-deadline job coalesced behind a slower identical
// leader answers UNKNOWN within its own budget instead of blocking for
// the leader's.
func TestFollowerDeadlineWhileCoalesced(t *testing.T) {
	s := NewScheduler(Config{CPUBudget: 1, MaxRunning: 1, QueueDepth: 8})
	defer s.Close()

	blocker, err := s.Submit(blockerSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, blocker, StatusRunning)

	f := gen.Pigeonhole(9) // hard; nobody solves it in this test
	lead := dimacsSpec(f)
	lead.TimeoutMS = int64(2 * time.Minute / time.Millisecond)
	leader, err := s.Submit(lead)
	if err != nil {
		t.Fatal(err)
	}
	short := dimacsSpec(f)
	short.TimeoutMS = 100
	follower, err := s.Submit(short)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res := mustResult(t, follower)
	if res.Decided || res.Verdict != "UNKNOWN" {
		t.Fatalf("short-deadline follower: %+v, want undecided UNKNOWN", res)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("follower took %v; its 100ms deadline must not wait on the leader", d)
	}
	leader.Cancel()
	blocker.Cancel()
}
