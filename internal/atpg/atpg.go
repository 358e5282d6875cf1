package atpg

import (
	"context"
	"math/rand"
	"sync"

	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/csat"
	"repro/internal/solver"
)

// Status classifies the outcome for one fault.
type Status int

// Fault outcomes.
const (
	// Aborted means the effort budget was exhausted.
	Aborted Status = iota
	// Detected means a test pattern was generated (or fault simulation
	// caught the fault with an earlier pattern).
	Detected
	// Redundant means the SAT instance is unsatisfiable: no input can
	// distinguish the faulty circuit, so the fault is untestable and the
	// corresponding logic is redundant (§3, [RID-GRASP]).
	Redundant
)

// String renders the status.
func (s Status) String() string {
	switch s {
	case Detected:
		return "detected"
	case Redundant:
		return "redundant"
	}
	return "aborted"
}

// Options configures test generation.
type Options struct {
	// Structural enables the §5 circuit-SAT layer: decisions by
	// backtracing and early termination on an empty justification
	// frontier, producing partially-specified patterns.
	Structural bool
	// FaultSim enables parallel-pattern fault simulation with fault
	// dropping: each generated test is simulated against the remaining
	// fault list (of its shard, when the session path shards it) and
	// detected faults are dropped without SAT calls.
	FaultSim bool
	// NoCollapse disables fault collapsing.
	NoCollapse bool
	// Compact applies reverse-order static test compaction to the final
	// test set (coverage-preserving).
	Compact bool
	// MaxConflicts bounds the per-fault SAT effort (0 = 20000,
	// defaultMaxConflicts).
	MaxConflicts int64
	// Solver carries base solver options.
	Solver solver.Options
	// Seed drives the random completion of partial patterns.
	Seed int64
}

// FaultResult is the per-fault outcome.
type FaultResult struct {
	Fault   Fault
	Status  Status
	Pattern []cnf.LBool // primary-input pattern (nil unless SAT-generated)
	BySim   bool        // detected by fault simulation, not SAT

	satStats *solver.Stats
}

// Report aggregates a run over a fault list.
type Report struct {
	Total, Detected, Redundant, Aborted int
	BySimulation                        int // detected via fault dropping
	SATCalls                            int
	Tests                               [][]cnf.LBool // generated patterns
	UncompactedTests                    int           // test count before compaction (Compact only)
	Results                             []FaultResult
	SpecifiedBits                       int // sum over patterns of non-X inputs
	PatternBits                         int // sum over patterns of total inputs
	Conflicts                           int64
	Decisions                           int64
	Shards                              int // engines the fault list was dealt across
}

// Coverage returns detected / (total - redundant), the standard fault
// coverage metric over testable faults.
func (r *Report) Coverage() float64 {
	testable := r.Total - r.Redundant
	if testable == 0 {
		return 1
	}
	return float64(r.Detected) / float64(testable)
}

// GenerateTests runs ATPG over the full (collapsed) fault universe.
func GenerateTests(c *circuit.Circuit, opts Options) *Report {
	faults := FaultUniverse(c)
	if !opts.NoCollapse {
		faults = Collapse(c, faults)
	}
	return GenerateTestsFor(c, faults, opts)
}

// GenerateTestsFor runs ATPG over an explicit fault list.
func GenerateTestsFor(c *circuit.Circuit, faults []Fault, opts Options) *Report {
	return TestFaultsContext(context.Background(), c, faults, opts)
}

// TestFaultsContext is GenerateTestsFor under a context, mirroring
// cec.CheckContext / bmc.CheckContext: cancelling ctx interrupts the
// running SAT query cooperatively and every remaining fault is
// reported Aborted without further SAT calls.
func TestFaultsContext(ctx context.Context, c *circuit.Circuit, faults []Fault, opts Options) *Report {
	if opts.MaxConflicts == 0 {
		opts.MaxConflicts = defaultMaxConflicts
	}
	return runFaults(ctx, c, faults, opts, []oneShotEngine{{c: c, opts: opts}})
}

// defaultMaxConflicts is the per-fault conflict budget when
// Options.MaxConflicts is 0.
const defaultMaxConflicts = 20000

// faultEngine decides one fault. Implementations: a fresh solver per
// fault (oneShotEngine) and one resident session per shard
// (sessionATPG). runFaults drives each engine from one goroutine.
type faultEngine interface {
	testFault(ctx context.Context, flt Fault) FaultResult
}

// oneShotEngine builds a miter and a fresh solver for every fault.
type oneShotEngine struct {
	c    *circuit.Circuit
	opts Options
}

func (e oneShotEngine) testFault(ctx context.Context, flt Fault) FaultResult {
	return testFaultContext(ctx, e.c, flt, e.opts)
}

// faultSlot is one fault's outcome as its shard recorded it.
type faultSlot struct {
	res FaultResult
	// queried: the engine was asked (one SAT call), as opposed to a
	// cancelled or simulation-dropped fault.
	queried bool
	// drops lists the later faults of the same deal that this fault's
	// pattern detected by simulation, in deal order.
	drops []int
}

// runFaults is the fault driver shared by every engine. Engine j
// decides the faults deals[j] lists, in that order, on its own
// goroutine; with no deals given, the single engine walks the whole
// list in order. With opts.FaultSim an engine drops only the faults
// that come later in its own deal, with its own rng (engine j seeded
// opts.Seed+j). The per-fault outcomes are then aggregated in list
// order — counts, stats, tests, then the optional compaction — so one
// engine over the whole list reproduces the sequential loop exactly and
// any fixed deal is deterministic. opts.MaxConflicts must already be
// resolved by the caller.
func runFaults[E faultEngine](ctx context.Context, c *circuit.Circuit, faults []Fault, opts Options, engs []E, deals ...[]int) *Report {
	if deals == nil {
		whole := make([]int, len(faults))
		for i := range whole {
			whole[i] = i
		}
		deals = [][]int{whole}
	}
	slots := make([]faultSlot, len(faults))
	var wg sync.WaitGroup
	for j, eng := range engs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runShard(ctx, c, faults, opts, eng, deals[j], rand.New(rand.NewSource(opts.Seed+int64(j))), slots)
		}()
	}
	wg.Wait()

	rep := &Report{Total: len(faults), Shards: len(engs)}
	for i := range slots {
		sl := &slots[i]
		if sl.res.BySim {
			continue // reported right after the fault whose pattern dropped it
		}
		fr := sl.res
		if sl.queried {
			rep.SATCalls++
			if s := fr.satStats; s != nil {
				rep.Conflicts += s.Conflicts
				rep.Decisions += s.Decisions
			}
		}
		rep.Results = append(rep.Results, fr)
		switch fr.Status {
		case Detected:
			rep.Detected++
			rep.Tests = append(rep.Tests, fr.Pattern)
			rep.SpecifiedBits += csat.CountSpecified(fr.Pattern)
			rep.PatternBits += len(fr.Pattern)
		case Redundant:
			rep.Redundant++
		default:
			rep.Aborted++
		}
		for _, d := range sl.drops {
			rep.Detected++
			rep.BySimulation++
			rep.Results = append(rep.Results, slots[d].res)
		}
	}
	if opts.Compact && len(rep.Tests) > 0 {
		rep.UncompactedTests = len(rep.Tests)
		rep.Tests = CompactTests(c, faults, rep.Tests, opts.Seed)
	}
	return rep
}

// runShard decides the faults deal lists with eng, in deal order,
// writing only their slots.
func runShard(ctx context.Context, c *circuit.Circuit, faults []Fault, opts Options, eng faultEngine, deal []int, rng *rand.Rand, slots []faultSlot) {
	for at, i := range deal {
		sl := &slots[i]
		if sl.res.BySim {
			continue
		}
		if ctx.Err() != nil {
			// Cancelled: everything still pending is an abort, with no
			// SAT effort spent on it.
			sl.res = FaultResult{Fault: faults[i], Status: Aborted}
			continue
		}
		sl.res, sl.queried = eng.testFault(ctx, faults[i]), true
		if opts.FaultSim && sl.res.Status == Detected {
			sl.drops = dropWithPattern(c, sl.res.Pattern, faults, slots, deal[at+1:], rng)
		}
	}
}

// dropWithPattern completes the pattern (X bits randomized across 64
// lanes) and fault-simulates the faults rest lists that are still
// pending, marking each detection in its slot. It returns the dropped
// indices in the order rest lists them.
func dropWithPattern(c *circuit.Circuit, pat []cnf.LBool, faults []Fault, slots []faultSlot, rest []int, rng *rand.Rand) []int {
	words := make([]uint64, len(pat))
	for i, v := range pat {
		switch v {
		case cnf.True:
			words[i] = ^uint64(0)
		case cnf.False:
			words[i] = 0
		default:
			words[i] = rng.Uint64() // 64 random completions of the X
		}
	}
	var drops []int
	for _, j := range rest {
		if slots[j].res.BySim {
			continue
		}
		if Detects(c, faults[j], words) != 0 {
			slots[j].res = FaultResult{Fault: faults[j], Status: Detected, BySim: true}
			drops = append(drops, j)
		}
	}
	return drops
}

// TestFault generates a test for one fault with a fresh solver.
func TestFault(c *circuit.Circuit, flt Fault, opts Options) FaultResult {
	return testFaultContext(context.Background(), c, flt, opts)
}

// testFaultContext is TestFault with cooperative interruption: a
// cancelled ctx stops the solve and the fault reports Aborted.
func testFaultContext(ctx context.Context, c *circuit.Circuit, flt Fault, opts Options) FaultResult {
	if opts.MaxConflicts == 0 {
		opts.MaxConflicts = defaultMaxConflicts
	}
	fr := FaultResult{Fault: flt}
	m := BuildMiter(c, flt)
	if !m.Detectable {
		fr.Status = Redundant
		return fr
	}
	f, enc := circuit.EncodeProperty(m.C, m.Diff, true)
	sopts := opts.Solver
	sopts.MaxConflicts = opts.MaxConflicts
	s := solver.FromFormula(f, sopts)
	stopWatch := context.AfterFunc(ctx, s.Interrupt)
	defer stopWatch()
	if opts.Structural {
		csat.Attach(m.C, enc, s, csat.Options{Backtrace: true})
	}
	switch s.Solve() {
	case solver.Sat:
		fr.Status = Detected
		model := s.Model()
		pat := make([]cnf.LBool, len(c.Inputs))
		for i, id := range c.Inputs {
			pat[i] = model.Value(enc.VarOf[m.GoodOf[id]])
		}
		fr.Pattern = pat
	case solver.Unsat:
		fr.Status = Redundant
	default:
		fr.Status = Aborted
	}
	st := s.Stats
	fr.satStats = &st
	return fr
}
