package workload

import (
	"context"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/atpg"
	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/session"

	"repro/bench/report"
)

// atpgRun is the incremental workload: test generation for every
// collapsed stuck-at fault of three circuits through one
// session.Manager, one resident solver per circuit pass and one
// assumption query per fault. An operation is one fault query.
type atpgRun struct {
	o        *Options
	circuits []atpgCircuit
	genS     float64
	mgr      *session.Manager
	gate     *timingGate
	pass     int // next circuit pass, rotating over circuits

	// redundant memoizes the independent check of a Redundant verdict.
	redundant map[string]bool
	// passes collects finished passes for the coverage comparison.
	passes []atpgPass
	stats0 session.Stats
}

type atpgCircuit struct {
	name   string
	c      *circuit.Circuit
	faults []atpg.Fault
}

type atpgPass struct {
	circuit int
	report  *atpg.Report
}

// timingGate implements session.Gate. The manager acquires it just
// before a query touches the resident solver and releases it when the
// query has finished, which makes it a clock on every query that needs
// no change to the session layer.
type timingGate struct {
	mu     sync.Mutex
	events []gateEvent
}

type gateEvent struct{ acquired, released time.Time }

func (g *timingGate) Acquire() func() {
	start := time.Now()
	return func() {
		end := time.Now()
		g.mu.Lock()
		g.events = append(g.events, gateEvent{start, end})
		g.mu.Unlock()
	}
}

// drain returns the events recorded since the last drain.
func (g *timingGate) drain() []gateEvent {
	g.mu.Lock()
	defer g.mu.Unlock()
	ev := g.events
	g.events = nil
	return ev
}

func newATPG(o *Options) *atpgRun { return &atpgRun{o: o, redundant: map[string]bool{}} }

func (a *atpgRun) setup() error {
	start := time.Now()
	specs := []atpgCircuit{
		{name: "alu8", c: circuit.ALU(8)},
		{name: "mult5", c: circuit.ArrayMultiplier(5)},
		{name: "rca32", c: circuit.RippleCarryAdder(32)},
	}
	if a.o.Smoke {
		specs = []atpgCircuit{
			{name: "alu2", c: circuit.ALU(2)},
			{name: "mult2", c: circuit.ArrayMultiplier(2)},
			{name: "rca4", c: circuit.RippleCarryAdder(4)},
		}
	}
	for i := range specs {
		sp := &specs[i]
		sp.faults = atpg.Collapse(sp.c, atpg.FaultUniverse(sp.c))
		// The seed orders the faults: the set of queries is fixed, the
		// learnt clauses each query inherits are not.
		rng := stream(a.o.Seed, "faults/"+sp.name)
		rng.Shuffle(len(sp.faults), func(x, y int) { sp.faults[x], sp.faults[y] = sp.faults[y], sp.faults[x] })
	}
	a.circuits = specs
	a.genS = time.Since(start).Seconds()
	a.gate = &timingGate{}
	a.mgr = session.NewManager(session.Config{Gate: a.gate})
	a.pass = 0
	a.passes = nil
	// Part of set-up: one full pass over the first circuit, which pages
	// in the session and ATPG paths and gives setup_s something a
	// session-layer change can move (building three netlists takes
	// under a millisecond).
	first := a.circuits[0]
	if _, err := atpg.GenerateTestsSessionFor(context.Background(), a.mgr, first.c, first.faults, atpg.Options{Seed: a.o.Seed}); err != nil {
		return err
	}
	return nil
}

func (a *atpgRun) teardown() {
	if a.mgr != nil {
		a.mgr.Close()
		a.mgr = nil
	}
}

func (a *atpgRun) instances() (int, float64) {
	n := 0
	for _, c := range a.circuits {
		n += len(c.faults)
	}
	return n, a.genS
}

func (a *atpgRun) validate(*window) []string { return nil }

// runPass runs one pass over the next circuit under ctx. With w set,
// the queries that finished become samples and the pass is checked.
func (a *atpgRun) runPass(ctx context.Context, w *window) error {
	ci := a.pass % len(a.circuits)
	a.pass++
	cir := a.circuits[ci]
	a.gate.drain()
	start := time.Now()
	rep, err := atpg.GenerateTestsSessionFor(ctx, a.mgr, cir.c, cir.faults, atpg.Options{Seed: a.o.Seed})
	end := time.Now()
	if err != nil {
		return fmt.Errorf("session pass over %s: %w", cir.name, err)
	}
	if w == nil {
		return nil
	}
	a.passes = append(a.passes, atpgPass{ci, rep})
	prev := start
	for _, ev := range a.gate.drain() {
		if ev.acquired.Before(start) {
			continue // the tail of a warm-up query its cancelled pass did not wait for
		}
		w.samples = append(w.samples, sample{
			kind: "atpg", family: cir.name, latMS: ms(ev.released.Sub(prev)),
			phases: map[string]float64{"wait": ms(ev.acquired.Sub(prev)), "query": ms(ev.released.Sub(ev.acquired))},
		})
		prev = ev.released
	}
	a.o.rec.Add(0, a.pass, "atpg.session_pass", start, end, float64(rep.SATCalls))
	a.check(cir, rep, w)
	return nil
}

// check judges a pass's per-fault outcomes. A detected fault must come
// with a pattern that fault simulation confirms; a redundant one is
// checked by exhaustive simulation where the circuit is small enough
// and against the one-shot engine otherwise; an abort is an undecided
// operation.
func (a *atpgRun) check(cir atpgCircuit, rep *atpg.Report, w *window) {
	in := &Instance{Kind: "atpg", Family: cir.name}
	bad := 0
	for _, fr := range rep.Results {
		switch fr.Status {
		case atpg.Detected:
			words := make([]uint64, len(fr.Pattern))
			for i, v := range fr.Pattern {
				if v == cnf.True {
					words[i] = ^uint64(0)
				}
			}
			if len(words) != len(cir.c.Inputs) || atpg.Detects(cir.c, fr.Fault, words) == 0 {
				a.o.Oracle.fail(in, "pattern for fault %v does not detect it", fr.Fault)
				bad++
			}
		case atpg.Redundant:
			if !a.isRedundant(cir, fr.Fault) {
				a.o.Oracle.fail(in, "fault %v reported redundant but is testable", fr.Fault)
				bad++
			}
		default:
			w.samples = append(w.samples, sample{kind: "atpg", family: cir.name, outcome: Undecided})
		}
	}
	// Wrong verdicts are charged to the pass's last samples: which query
	// produced which result is not observable from outside.
	for i := len(w.samples) - 1; i >= 0 && bad > 0; i-- {
		if w.samples[i].outcome == OK {
			w.samples[i].outcome = Wrong
			bad--
		}
	}
}

// isRedundant decides, without the session path, whether no input
// pattern detects flt.
func (a *atpgRun) isRedundant(cir atpgCircuit, flt atpg.Fault) bool {
	key := cir.name + "/" + flt.String()
	if v, ok := a.redundant[key]; ok {
		return v
	}
	n := len(cir.c.Inputs)
	var red bool
	if n <= 20 {
		// All 2^n patterns, 64 per simulation: input i toggles with
		// period 2^i across the pattern index.
		red = true
		words := make([]uint64, n)
		for base := uint64(0); base < 1<<uint(n) && red; base += 64 {
			for i := range words {
				var wd uint64
				for lane := uint64(0); lane < 64; lane++ {
					wd |= ((base + lane) >> uint(i) & 1) << lane
				}
				words[i] = wd
			}
			red = atpg.Detects(cir.c, flt, words) == 0
		}
	} else {
		red = atpg.TestFault(cir.c, flt, atpg.Options{}).Status == atpg.Redundant
	}
	a.redundant[key] = red
	return red
}

func (a *atpgRun) warm(d time.Duration) {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	for ctx.Err() == nil {
		if a.runPass(ctx, nil) != nil {
			break
		}
	}
	a.pass = 0
}

// measure runs whole cycles — one pass over each circuit — and starts
// another only while one more is expected to end inside the window. A
// window cut at the deadline would end somewhere inside a pass, and
// because a query on the 32-bit adder costs five times one on the ALU,
// where it ended would decide the mix of operations and with it every
// percentile. Whole cycles hold the mix fixed.
func (a *atpgRun) measure(d time.Duration) (*window, error) {
	w := &window{}
	a.stats0 = a.mgr.Stats()
	cpu0 := sampleCPU(nil)
	start := time.Now()
	deadline := start.Add(d)
	for cycle := time.Duration(0); !time.Now().Add(cycle).After(deadline); {
		t0 := time.Now()
		for range a.circuits {
			if err := a.runPass(context.Background(), w); err != nil {
				return nil, err
			}
		}
		cycle = time.Since(t0)
	}
	w.elapsed = time.Since(start).Seconds()
	w.cpu = sampleCPU(nil).since(cpu0)
	w.clientS = w.elapsed
	return w, nil
}

func (a *atpgRun) layers(w *window, m map[string]float64) []string {
	var invalid []string
	m["proc.peak_rss_mb"] = procPeakRSS(os.Getpid())
	st := a.mgr.Stats()
	m["session.queries"] = float64(st.Queries - a.stats0.Queries)
	m["session.evictions"] = float64(st.Evictions - a.stats0.Evictions)
	m["session.revivals"] = float64(st.Revivals - a.stats0.Revivals)
	m["session.checkpoint_kb"] = float64(st.CheckpointBytes) / 1024

	var query, wait []float64
	for i := range w.samples {
		if p := w.samples[i].phases; p != nil {
			query = append(query, p["query"])
			wait = append(wait, p["wait"])
		}
	}
	m["session.query_ms_p50"] = report.Median(query)
	m["session.query_ms_p90"] = report.Percentile(query, 90)
	m["session.wait_ms_p50"] = report.Median(wait)

	// Opening a session loads the good circuit's CNF into a solver.
	var open []float64
	for _, cir := range a.circuits {
		f := circuit.Encode(cir.c).F
		t0 := time.Now()
		ss, err := a.mgr.Open(f)
		t1 := time.Now()
		if err != nil {
			continue
		}
		a.mgr.Delete(ss.ID)
		a.o.rec.Add(0, 0, "session.open", t0, t1, float64(f.NumClauses()))
		open = append(open, ms(t1.Sub(t0)))
	}
	m["session.open_ms"] = report.Median(open)

	// Per-pass totals, and the one-shot engine over the same fault
	// lists as the reference row and the coverage to match.
	var faults, aborted, conflicts, decisions float64
	coverage := map[int]float64{}
	for _, p := range a.passes {
		conflicts += float64(p.report.Conflicts)
		decisions += float64(p.report.Decisions)
		faults += float64(p.report.Total)
		aborted += float64(p.report.Aborted)
		coverage[p.circuit] = p.report.Coverage()
	}
	m["atpg.faults"], m["atpg.aborted"] = faults, aborted
	m["solver.conflicts"], m["solver.decisions"] = conflicts, decisions
	var refFaults, refS, covSum float64
	for ci, cir := range a.circuits {
		t0 := time.Now()
		ref := atpg.GenerateTestsFor(cir.c, cir.faults, atpg.Options{Seed: a.o.Seed})
		t1 := time.Now()
		a.o.rec.Add(0, 0, "atpg.oneshot_pass", t0, t1, float64(ref.SATCalls))
		refFaults += float64(ref.Total)
		refS += t1.Sub(t0).Seconds()
		if cov, ok := coverage[ci]; ok {
			covSum += cov
			if cov != ref.Coverage() {
				invalid = append(invalid, fmt.Sprintf("%s: session coverage %.4f differs from the one-shot engine's %.4f", cir.name, cov, ref.Coverage()))
			}
		}
	}
	if len(coverage) > 0 {
		m["atpg.coverage"] = covSum / float64(len(coverage))
	}
	if refS > 0 {
		m["atpg.oneshot_faults_per_s"] = refFaults / refS
	}
	return invalid
}
