package atpg

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/csat"
	"repro/internal/session"
	"repro/internal/solver"
)

// TestSessionATPGParity is the acceptance check for the session-backed
// engine: the whole fault list dealt across one, two or three resident
// sessions must produce per-fault verdicts identical to the one-shot
// path — same detected/redundant split, and every generated pattern
// actually detects its fault.
func TestSessionATPGParity(t *testing.T) {
	circuits := map[string]*circuit.Circuit{
		"c17":  circuit.C17(),
		"dag":  circuit.RandomDAG(8, 40, 3, 7),
		"dag2": circuit.RandomDAG(6, 25, 2, 11),
	}
	if !testing.Short() {
		// The benchmark's fault lists: long enough that the shared
		// solver sweeps and retires hundreds of times per list.
		circuits["alu8"] = circuit.ALU(8)
		circuits["mult5"] = circuit.ArrayMultiplier(5)
		circuits["rca32"] = circuit.RippleCarryAdder(32)
	}
	for name, c := range circuits {
		t.Run(name, func(t *testing.T) {
			faults := Collapse(c, FaultUniverse(c))
			oneShot := GenerateTestsFor(c, faults, Options{})

			// Per-fault verdict agreement, not just aggregate counts.
			verdict := make(map[string]Status, len(oneShot.Results))
			for _, fr := range oneShot.Results {
				verdict[fr.Fault.String()] = fr.Status
			}

			for k := 1; k <= 3; k++ {
				t.Run(fmt.Sprintf("shards=%d", k), func(t *testing.T) {
					m := session.NewManager(session.Config{})
					defer m.Close()
					viaSession, err := generateTestsSessionShards(context.Background(), m, c, faults, Options{}, k)
					if err != nil {
						t.Fatal(err)
					}
					if viaSession.Shards != k || len(viaSession.Results) != viaSession.Total {
						t.Fatalf("%d shards, %d results for %d faults", viaSession.Shards, len(viaSession.Results), viaSession.Total)
					}
					if viaSession.Detected != oneShot.Detected || viaSession.Redundant != oneShot.Redundant || viaSession.Aborted != oneShot.Aborted {
						t.Fatalf("session %d/%d/%d vs one-shot %d/%d/%d (detected/redundant/aborted)",
							viaSession.Detected, viaSession.Redundant, viaSession.Aborted,
							oneShot.Detected, oneShot.Redundant, oneShot.Aborted)
					}
					seen := make(map[string]bool, len(viaSession.Results))
					for _, fr := range viaSession.Results {
						key := fr.Fault.String()
						if seen[key] {
							t.Fatalf("fault %s reported twice", fr.Fault)
						}
						seen[key] = true
						if want := verdict[key]; want != fr.Status {
							t.Errorf("fault %s: session %s, one-shot %s", fr.Fault, fr.Status, want)
						}
					}
					// Patterns must really detect their faults.
					for _, fr := range viaSession.Results {
						if fr.Status == Detected && fr.Pattern != nil && !patternDetects(t, c, fr.Fault, fr.Pattern, 1) {
							t.Errorf("fault %s: session pattern does not detect it", fr.Fault)
						}
					}
					if viaSession.Conflicts < 0 || viaSession.SATCalls == 0 {
						t.Fatalf("bogus session report: %+v", viaSession)
					}
					// The engine's sessions were evicted on return.
					if st := m.Stats(); st.Sessions != 0 {
						t.Fatalf("session leaked: %d still registered", st.Sessions)
					}
				})
			}
		})
	}
}

// TestSessionATPGSiteSharing drives one engine through a stem s-a-0,
// s-a-1 and a pin fault of site A, a fault of site B, A again, and a
// site no output observes. Every verdict is the one-shot engine's; a
// same-site follow-up ships only retirement units and its head, never
// the cone again; leaving a site retires its cone, and coming back
// builds it afresh; the unobservable site costs no query.
func TestSessionATPGSiteSharing(t *testing.T) {
	c := circuit.C17()
	dead := c.AddGate(circuit.And, "dead", c.NodeByName("1"), c.NodeByName("2")) // drives no output
	a, b := c.NodeByName("16"), c.NodeByName("19")
	m := session.NewManager(session.Config{})
	defer m.Close()
	sa, err := newSessionATPG(m, c, circuit.Encode(c), Options{MaxConflicts: defaultMaxConflicts})
	if err != nil {
		t.Fatal(err)
	}
	defer sa.Close()

	// guardedBy counts the Add set's clauses guarded by ¬act; units
	// lists its unit clauses.
	guardedBy := func(act cnf.Var) int {
		n := 0
		for _, cl := range sa.cones.add {
			if len(cl) > 1 && cl[len(cl)-1] == cnf.NegLit(act) {
				n++
			}
		}
		return n
	}
	units := func() []cnf.Lit {
		var u []cnf.Lit
		for _, cl := range sa.cones.add {
			if len(cl) == 1 {
				u = append(u, cl[0])
			}
		}
		return u
	}
	test := func(flt Fault) {
		t.Helper()
		want := TestFault(c, flt, Options{}).Status
		if got := sa.testFault(context.Background(), flt).Status; got != want {
			t.Fatalf("fault %s: session %s, one-shot %s", flt, got, want)
		}
	}

	test(Fault{Node: a, Pin: -1, StuckAt: false})
	siteA := sa.site
	cone := guardedBy(siteA.act)
	if siteA.node != a || cone == 0 || len(units()) != 0 {
		t.Fatalf("first query: site %+v, %d cone clauses, units %v", siteA, cone, units())
	}
	for _, flt := range []Fault{{Node: a, Pin: -1, StuckAt: true}, {Node: a, Pin: 1, StuckAt: true}} {
		prev := sa.head
		test(flt)
		if sa.site != siteA || sa.head == prev {
			t.Fatalf("%s: site %+v (was %+v), head %d (was %d)", flt, sa.site, siteA, sa.head, prev)
		}
		// Only the unit ¬actFault of the previous head, then the head.
		if u := units(); len(u) != 1 || u[0] != cnf.NegLit(prev) {
			t.Fatalf("%s: retirement units %v, want [¬%d]", flt, u, prev)
		}
		if h := guardedBy(sa.head); h+1 != len(sa.cones.add) || guardedBy(siteA.act) != 0 {
			t.Fatalf("%s: Add set of %d clauses holds %d head clauses and %d cone clauses", flt, len(sa.cones.add), h, guardedBy(siteA.act))
		}
	}

	prev := sa.head
	test(Fault{Node: b, Pin: -1, StuckAt: false})
	siteB := sa.site
	if siteB.node != b || guardedBy(siteB.act) == 0 || !reflect.DeepEqual(units(), []cnf.Lit{cnf.NegLit(prev), cnf.NegLit(siteA.act)}) {
		t.Fatalf("site B: %+v, %d cone clauses, units %v", siteB, guardedBy(siteB.act), units())
	}

	prev = sa.head
	test(Fault{Node: a, Pin: -1, StuckAt: true})
	if sa.site.node != a || sa.site.act == siteA.act || guardedBy(sa.site.act) != cone {
		t.Fatalf("back at A: site %+v (first %+v), %d cone clauses, want %d", sa.site, siteA, guardedBy(sa.site.act), cone)
	}
	if !reflect.DeepEqual(units(), []cnf.Lit{cnf.NegLit(prev), cnf.NegLit(siteB.act)}) {
		t.Fatalf("back at A: retirement units %v", units())
	}

	queries, live := m.Stats().Queries, sa.site
	test(Fault{Node: dead, Pin: -1, StuckAt: false})
	if q := m.Stats().Queries; q != queries || sa.site != live {
		t.Fatalf("unobservable site: %d queries (was %d), site %+v (was %+v)", q, queries, sa.site, live)
	}
}

// TestSessionShardsDeterministic: for a fixed shard count the sharded
// driver is deterministic. Each shard's session sees the same query
// sequence on every run, so two runs agree on every result, pattern
// and search count.
func TestSessionShardsDeterministic(t *testing.T) {
	c := circuit.RippleCarryAdder(16)
	faults := Collapse(c, FaultUniverse(c))
	for _, opts := range []Options{{}, {FaultSim: true, Seed: 5}} {
		for k := 2; k <= 3; k++ {
			m := session.NewManager(session.Config{})
			a, errA := generateTestsSessionShards(context.Background(), m, c, faults, opts, k)
			b, errB := generateTestsSessionShards(context.Background(), m, c, faults, opts, k)
			m.Close()
			if errA != nil || errB != nil {
				t.Fatal(errA, errB)
			}
			if !reflect.DeepEqual(a.Results, b.Results) || !reflect.DeepEqual(a.Tests, b.Tests) {
				t.Fatalf("FaultSim=%v k=%d: two runs differ in results or patterns", opts.FaultSim, k)
			}
			if a.Conflicts != b.Conflicts || a.Decisions != b.Decisions || a.SATCalls != b.SATCalls {
				t.Fatalf("FaultSim=%v k=%d: search counts %d/%d/%d vs %d/%d/%d (conflicts/decisions/calls)",
					opts.FaultSim, k, a.Conflicts, a.Decisions, a.SATCalls, b.Conflicts, b.Decisions, b.SATCalls)
			}
		}
	}
}

// sequentialFaults is the fault loop as it was before the list was
// sharded: one engine, faults in list order, fault dropping over the
// rest of the whole list with one rng seeded opts.Seed. It is kept as
// the reference a one-engine runFaults must reproduce.
func sequentialFaults(ctx context.Context, c *circuit.Circuit, faults []Fault, opts Options, eng faultEngine) *Report {
	rep := &Report{Total: len(faults)}
	rng := rand.New(rand.NewSource(opts.Seed))
	dropped := make([]bool, len(faults))
	for i, flt := range faults {
		if dropped[i] {
			continue
		}
		if ctx.Err() != nil {
			rep.Aborted++
			rep.Results = append(rep.Results, FaultResult{Fault: flt, Status: Aborted})
			continue
		}
		fr := eng.testFault(ctx, flt)
		if s := fr.satStats; s != nil {
			rep.Conflicts += s.Conflicts
			rep.Decisions += s.Decisions
		}
		rep.SATCalls++
		rep.Results = append(rep.Results, fr)
		switch fr.Status {
		case Detected:
			rep.Detected++
			rep.Tests = append(rep.Tests, fr.Pattern)
			rep.SpecifiedBits += csat.CountSpecified(fr.Pattern)
			rep.PatternBits += len(fr.Pattern)
			if opts.FaultSim {
				words := make([]uint64, len(fr.Pattern))
				for b, v := range fr.Pattern {
					switch v {
					case cnf.True:
						words[b] = ^uint64(0)
					case cnf.False:
					default:
						words[b] = rng.Uint64()
					}
				}
				for j := i + 1; j < len(faults); j++ {
					if !dropped[j] && Detects(c, faults[j], words) != 0 {
						dropped[j] = true
						rep.Detected++
						rep.BySimulation++
						rep.Results = append(rep.Results, FaultResult{Fault: faults[j], Status: Detected, BySim: true})
					}
				}
			}
		case Redundant:
			rep.Redundant++
		default:
			rep.Aborted++
		}
	}
	if opts.Compact && len(rep.Tests) > 0 {
		rep.UncompactedTests = len(rep.Tests)
		rep.Tests = CompactTests(c, faults, rep.Tests, opts.Seed)
	}
	return rep
}

// TestRunFaultsOneEngineMatchesSequential: a one-engine runFaults with
// fault dropping reproduces the sequential loop's report exactly —
// result order (each simulation drop right after the pattern that
// caused it), counts, search totals, tests and their compaction. The
// structural layer's partial patterns make the dropping draw from the
// rng, so its seeding is covered too.
func TestRunFaultsOneEngineMatchesSequential(t *testing.T) {
	circuits := map[string]*circuit.Circuit{
		"dag":  circuit.RandomDAG(8, 40, 3, 7),
		"alu4": circuit.ALU(4),
		"rca8": circuit.RippleCarryAdder(8),
		// Seed 5 and seed 6 drop different faults here: the rng seeding
		// is observable.
		"mult3": circuit.ArrayMultiplier(3),
	}
	configs := []struct {
		opts    Options
		session bool // one session engine instead of the one-shot one
	}{
		{opts: Options{FaultSim: true, Seed: 3}},
		{opts: Options{FaultSim: true, Compact: true, Seed: 9}},
		{opts: Options{FaultSim: true, Structural: true, Seed: 5}},
		{opts: Options{FaultSim: true, Seed: 7}, session: true},
	}
	m := session.NewManager(session.Config{})
	t.Cleanup(m.Close) // after the engines' own cleanups evict their sessions
	for name, c := range circuits {
		faults := Collapse(c, FaultUniverse(c))
		for _, cfg := range configs {
			opts := cfg.opts
			opts.MaxConflicts = defaultMaxConflicts
			engine := func() faultEngine {
				if !cfg.session {
					return oneShotEngine{c: c, opts: opts}
				}
				sa, err := newSessionATPG(m, c, circuit.Encode(c), opts)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(sa.Close)
				return sa
			}
			want := sequentialFaults(context.Background(), c, faults, opts, engine())
			want.Shards = 1
			got := runFaults(context.Background(), c, faults, opts, []faultEngine{engine()})
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %+v session=%v: sharded driver with one engine differs from the sequential loop\n got %d/%d/%d sim %d calls %d tests %d\nwant %d/%d/%d sim %d calls %d tests %d",
					name, opts, cfg.session, got.Detected, got.Redundant, got.Aborted, got.BySimulation, got.SATCalls, len(got.Tests),
					want.Detected, want.Redundant, want.Aborted, want.BySimulation, want.SATCalls, len(want.Tests))
			}
		}
	}
}

// countingGate is a session.Gate that counts the queries it meters and
// runs a callback on the nth.
type countingGate struct {
	n    atomic.Int64
	at   int64
	fire func()
}

func (g *countingGate) Acquire() func() {
	if g.n.Add(1) == g.at {
		g.fire()
	}
	return func() {}
}

// TestSessionShardsCancelMidRun cancels a sharded run from inside its
// own query stream: every shard stops (the queries metered after the
// cancel are at most the one each shard had in flight), every fault is
// still reported, and every shard session is evicted.
func TestSessionShardsCancelMidRun(t *testing.T) {
	c := circuit.RippleCarryAdder(16)
	faults := Collapse(c, FaultUniverse(c))
	const k = 3
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	gate := &countingGate{at: 20, fire: cancel}
	m := session.NewManager(session.Config{Gate: gate})
	defer m.Close()

	rep, err := generateTestsSessionShards(ctx, m, c, faults, Options{}, k)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != rep.Total || rep.Total != len(faults) {
		t.Fatalf("%d results for %d faults", len(rep.Results), len(faults))
	}
	if rep.Aborted == 0 || rep.Detected+rep.Redundant+rep.Aborted != rep.Total {
		t.Fatalf("cancelled run: %d/%d/%d of %d (detected/redundant/aborted)", rep.Detected, rep.Redundant, rep.Aborted, rep.Total)
	}
	if metered := gate.n.Load(); metered > gate.at+k || int64(rep.SATCalls) > gate.at+k {
		t.Fatalf("%d queries metered, %d submitted after cancelling at the %dth: a shard kept going", metered, rep.SATCalls, gate.at)
	}
	if st := m.Stats(); st.Sessions != 0 {
		t.Fatalf("session leaked: %d still registered", st.Sessions)
	}
}

// TestSessionShardsClosedManager: opening the shard sessions on a closed
// manager fails with an error and leaves no session or goroutine behind.
func TestSessionShardsClosedManager(t *testing.T) {
	c := circuit.RandomDAG(8, 40, 3, 7)
	faults := Collapse(c, FaultUniverse(c))
	m := session.NewManager(session.Config{})
	m.Close()
	before := runtime.NumGoroutine()
	rep, err := generateTestsSessionShards(context.Background(), m, c, faults, Options{}, 3)
	if !errors.Is(err, session.ErrClosed) || rep != nil {
		t.Fatalf("closed manager: report %v, err %v; want session.ErrClosed", rep, err)
	}
	if st := m.Stats(); st.Sessions != 0 || st.Opened != 0 {
		t.Fatalf("closed manager holds %d sessions (%d opened)", st.Sessions, st.Opened)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines %d → %d", before, after)
	}
}

// TestSessionShardCount pins the shard rule: short lists stay in one
// session, long ones take every CPU the runtime may use.
func TestSessionShardCount(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, tc := range []struct{ n, want int }{
		{0, 1},
		{minShardFaults - 1, 1},
		{2 * minShardFaults, min(procs, 2)},
		{1000 * minShardFaults, procs},
	} {
		if got := sessionShards(tc.n); got != tc.want {
			t.Errorf("sessionShards(%d) = %d, want %d (GOMAXPROCS %d)", tc.n, got, tc.want, procs)
		}
	}
}

// TestSessionATPGIsolation checks the retire mechanism: after a full
// run, re-running the same fault list in the SAME manager (new session)
// still yields the same verdicts — i.e. one run's retirement units never
// leak into another session. A run asking for the structural layer,
// which sessions cannot host, is refused without opening a session.
func TestSessionATPGIsolation(t *testing.T) {
	c := circuit.C17()
	faults := Collapse(c, FaultUniverse(c))
	m := session.NewManager(session.Config{})
	defer m.Close()

	first, err := GenerateTestsSessionFor(context.Background(), m, c, faults, Options{})
	if err != nil {
		t.Fatal(err)
	}
	second, err := GenerateTestsSessionFor(context.Background(), m, c, faults, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if first.Detected != second.Detected || first.Redundant != second.Redundant {
		t.Fatalf("run 1 %d/%d vs run 2 %d/%d", first.Detected, first.Redundant, second.Detected, second.Redundant)
	}

	opened := m.Stats().Opened
	if rep, err := GenerateTestsSessionFor(context.Background(), m, c, faults, Options{Structural: true}); err == nil || rep != nil {
		t.Fatalf("structural session run: report %v, err %v; want an error", rep, err)
	}
	if st := m.Stats(); st.Opened != opened || st.Sessions != 0 {
		t.Fatalf("refused run opened %d sessions, %d registered", st.Opened-opened, st.Sessions)
	}
}

// TestFaultsContextCancel: a cancelled context aborts the remaining
// faults without SAT calls, on the one-shot path and the session path.
func TestFaultsContextCancel(t *testing.T) {
	c := circuit.RandomDAG(8, 40, 3, 7)
	faults := Collapse(c, FaultUniverse(c))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	rep := TestFaultsContext(ctx, c, faults, Options{})
	if rep.Aborted != rep.Total || rep.Detected != 0 {
		t.Fatalf("cancelled run aborted %d of %d, detected %d", rep.Aborted, rep.Total, rep.Detected)
	}
	if len(rep.Results) != rep.Total {
		t.Fatalf("cancelled run lost results: %d of %d", len(rep.Results), rep.Total)
	}

	m := session.NewManager(session.Config{})
	defer m.Close()
	rep, err := GenerateTestsSessionFor(ctx, m, c, faults, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Aborted != rep.Total {
		t.Fatalf("cancelled session run aborted %d of %d", rep.Aborted, rep.Total)
	}
}

// coneSolver runs site and head queries on one in-process solver the
// way a session runs them: add a site's guarded cone when the site
// changes (retiring the previous one with the unit ¬actSite), add the
// fault's guarded head, solve under [actSite, actFault], and retire the
// head with the unit ¬actFault.
type coneSolver struct {
	cones *coneEncoder
	s     *solver.Solver
	site  siteCone
}

// testFault returns the fault's verdict and the conflicts and decisions
// its query took.
func (cs *coneSolver) testFault(flt Fault) (Status, solver.Stats) {
	ce := cs.cones
	ce.begin(cs.s.NumVars())
	if cs.site.act == 0 || cs.site.node != flt.Node {
		if cs.site.act != 0 {
			ce.retire(cs.site.act)
		}
		site, ok := ce.buildSite(flt.Node)
		if !ok {
			return Redundant, solver.Stats{}
		}
		cs.site = site
	}
	head := ce.buildHead(flt, cs.site.f)
	for _, cl := range ce.add {
		cs.s.AddClause(cl)
	}
	before := cs.s.Stats
	verdict := cs.s.Solve(cnf.PosLit(cs.site.act), cnf.PosLit(head))
	cs.s.AddClause(cnf.Clause{cnf.NegLit(head)})
	delta := solver.Stats{Conflicts: cs.s.Stats.Conflicts - before.Conflicts, Decisions: cs.s.Stats.Decisions - before.Decisions}
	switch verdict {
	case solver.Sat:
		return Detected, delta
	case solver.Unsat:
		return Redundant, delta
	}
	return Aborted, delta
}

// TestConeQueriesCloneMidFaultList forks a solver running site and head
// queries halfway down a fault list grouped by site — after hundreds of
// level-0 sweeps, inside a site's run of faults — and runs the rest of
// the list on the original and on two forks of the same checkpoint,
// which carry on with the original's live cone. The retired-variable
// flags and the sweep trigger travel with the image: the forks agree
// with the original on every verdict, with each other on every search
// count, and a checkpoint of a fork is as large as the one it came
// from. Run under -race (the forks solve concurrently).
func TestConeQueriesCloneMidFaultList(t *testing.T) {
	c := circuit.RippleCarryAdder(16)
	list := Collapse(c, FaultUniverse(c))
	var faults []Fault
	for _, i := range dealBySite(list, 1)[0] {
		faults = append(faults, list[i])
	}
	enc := circuit.Encode(c)
	orig := &coneSolver{cones: newConeEncoder(c, enc), s: solver.FromFormula(enc.F, solver.Options{MaxConflicts: defaultMaxConflicts})}
	half := len(faults) / 2
	for faults[half-1].Node != faults[half].Node {
		half++ // split inside a site's run, so the forks reuse a live cone
	}
	for _, flt := range faults[:half] {
		orig.testFault(flt)
	}
	if orig.s.Stats.Sweeps == 0 || orig.s.Stats.RetiredVars == 0 {
		t.Fatalf("no sweep in the first half of the list: %+v", orig.s.Stats)
	}
	ck, err := orig.s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	forks := make([]*coneSolver, 2)
	for i := range forks {
		s := ck.Restore()
		if s.NumLiveVars() != orig.s.NumLiveVars() || s.NumClauses() != orig.s.NumClauses() {
			t.Fatalf("fork holds %d live vars / %d clauses, original %d / %d",
				s.NumLiveVars(), s.NumClauses(), orig.s.NumLiveVars(), orig.s.NumClauses())
		}
		forks[i] = &coneSolver{cones: newConeEncoder(c, enc), s: s, site: orig.site}
	}
	if ck2, err := forks[0].s.Checkpoint(); err != nil || ck2.Bytes() != ck.Bytes() {
		t.Fatalf("image of a fork: %d bytes (err %v), original image %d", ck2.Bytes(), err, ck.Bytes())
	}

	type outcome struct {
		status Status
		stats  solver.Stats
	}
	rest := faults[half:]
	results := make([][]outcome, len(forks))
	var wg sync.WaitGroup
	for i, f := range forks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, flt := range rest {
				st, delta := f.testFault(flt)
				results[i] = append(results[i], outcome{st, delta})
			}
		}()
	}
	var want []Status
	for _, flt := range rest {
		st, _ := orig.testFault(flt)
		want = append(want, st)
	}
	wg.Wait()
	for j, flt := range rest {
		a, b := results[0][j], results[1][j]
		if a.status != want[j] || b.status != want[j] {
			t.Fatalf("fault %s: forks %s / %s, original %s", flt, a.status, b.status, want[j])
		}
		if a.stats != b.stats {
			t.Fatalf("fault %s: forks of one image diverged: %+v vs %+v", flt, a.stats, b.stats)
		}
	}
	if a, b := forks[0].s.Stats, forks[1].s.Stats; a != b {
		t.Fatalf("fork totals differ:\n%+v\n%+v", a, b)
	}
}

// BenchmarkSessionATPG runs the collapsed fault lists of alu8, mult5
// and rca32 (the lists satbench's atpg_session workload times) through
// one Manager and reports faults/s. The lists are sharded as
// GenerateTestsSessionFor deals them, so -cpu 1 gives the one-session
// loop and the default the parallel one.
func BenchmarkSessionATPG(b *testing.B) {
	var lists []sessionBenchList
	for _, c := range []*circuit.Circuit{circuit.ALU(8), circuit.ArrayMultiplier(5), circuit.RippleCarryAdder(32)} {
		lists = append(lists, sessionBenchList{c, Collapse(c, FaultUniverse(c))})
	}
	m := session.NewManager(session.Config{})
	defer m.Close()
	faults := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, l := range lists {
			rep, err := GenerateTestsSessionFor(context.Background(), m, l.c, l.faults, Options{})
			if err != nil {
				b.Fatal(err)
			}
			faults += rep.Total
		}
	}
	b.ReportMetric(float64(faults)/b.Elapsed().Seconds(), "faults/s")
}

type sessionBenchList struct {
	c      *circuit.Circuit
	faults []Fault
}
