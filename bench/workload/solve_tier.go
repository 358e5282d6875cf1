package workload

import (
	"context"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/portfolio"
	"repro/internal/solver"

	"repro/bench/report"
)

// solveStats is what the solver reported for one in-process solve.
type solveStats struct {
	verdict             solver.Status
	stats               solver.Stats
	busyS               float64 // wall time inside core.SolveContext
	phaseNS             map[string]int64
	mallocs, allocBytes uint64
}

// solveTier is the in-process workload: one goroutine takes DIMACS text
// through cnf.ParseDIMACS and core.SolveContext with zero Options (the
// satsolve default: one sequential worker) and checks the verdict.
type solveTier struct {
	o    *Options
	pool []*Instance
	genS float64
	next int
}

func newSolveTier(o *Options) *solveTier { return &solveTier{o: o} }

// solveTierMix is the tier list. The sizes are the issue's, narrowed:
// the window is measured across seeds, and percentiles only repeat from
// seed to seed where many instances of similar cost surround them, so
// each tier is a family whose solve times cluster, and the heavy tiers
// (over-constrained random, pigeonhole 7, multiplier miters) carry
// enough instances to hold p90 between them. rand200+, php8-9 and
// mult6 run for 0.3-20 s each on a 2-vCPU sandbox; they stay out of
// the gated run (see README, known pathologies).
func solveTierMix(smoke bool) []slot {
	if smoke {
		return []slot{
			{3, func(r *rand.Rand) *Instance { return rand3(40, 4.26, r) }},
			{1, func(r *rand.Rand) *Instance { return php(4, r) }},
			{1, func(r *rand.Rand) *Instance { return queens(6, r) }},
			{1, func(r *rand.Rand) *Instance {
				return miter(circuit.RippleCarryAdder(4), circuit.CarrySkipAdder(4, 2), r)
			}},
			{1, func(r *rand.Rand) *Instance { return buggyMiter(circuit.RippleCarryAdder(4), r) }},
		}
	}
	adder := func(n, block int) func(*rand.Rand) *Instance {
		return func(r *rand.Rand) *Instance {
			return miter(circuit.RippleCarryAdder(n), circuit.CarrySkipAdder(n, block), r)
		}
	}
	queensN, nodes := cyc(10, 12, 14), cyc(100, 125, 150)
	return []slot{
		// Light: threshold random (mixed SAT/UNSAT), structured SAT,
		// small miters.
		{9, func(r *rand.Rand) *Instance { return rand3(100, 4.26, r) }},
		{5, func(r *rand.Rand) *Instance { return rand3(120, 4.26, r) }},
		{3, func(r *rand.Rand) *Instance { return queens(queensN(), r) }},
		{2, func(r *rand.Rand) *Instance { return colouring(nodes(), r) }},
		{3, func(r *rand.Rand) *Instance { return buggyMiter(circuit.ALU(8), r) }},
		{2, func(r *rand.Rand) *Instance { return miter(circuit.ALU(8), circuit.Strash(circuit.ALU(8)), r) }},
		// Medium: the median sits inside the over-constrained n=150 and
		// 32-bit adder cluster; threshold n=150 spreads around it.
		{4, adder(32, 4)},
		{20, func(r *rand.Rand) *Instance { return rand3(150, 5.0, r) }},
		{3, func(r *rand.Rand) *Instance { return rand3(150, 4.26, r) }},
		// Heavy: where learnt-clause databases grow. p90 sits inside the
		// 64-bit adder / over-constrained n=180 cluster, with pigeonhole
		// 7 and the multiplier miter above it.
		{4, adder(64, 4)},
		{6, func(r *rand.Rand) *Instance { return rand3(180, 5.0, r) }},
		{2, func(r *rand.Rand) *Instance { return php(7, r) }},
		{2, func(r *rand.Rand) *Instance {
			return miter(circuit.ArrayMultiplier(5), circuit.ArrayMultiplier(5), r)
		}},
	}
}

// solveTierPool is how many instances set-up generates: more than any
// window on the reference sandbox consumes, so the loop never wraps.
const solveTierPool = 1200

func (t *solveTier) setup() error {
	start := time.Now()
	n := solveTierPool
	if t.o.Smoke {
		n = 150
	}
	t.pool = generate(solveTierMix(t.o.Smoke), n, stream(t.o.Seed, "instances"))
	for _, in := range t.pool {
		t0 := time.Now()
		in.Text = cnf.DIMACSString(in.F)
		t.o.rec.Add(0, 0, "cnf.serialize", t0, time.Now(), float64(len(in.Text)))
	}
	t.genS = time.Since(start).Seconds()
	t.next = 0
	return nil
}

func (t *solveTier) teardown()                   { t.pool = nil }
func (t *solveTier) instances() (int, float64)   { return len(t.pool), t.genS }
func (t *solveTier) validate(w *window) []string { return nil }

// solveOne runs one operation and returns its sample. op numbers the
// operation's spans.
func (t *solveTier) solveOne(in *Instance, op int, traced bool) sample {
	rec := t.o.rec
	if !traced {
		rec = nil
	}
	start := time.Now()
	f, err := cnf.ParseDIMACS(strings.NewReader(in.Text))
	parsed := time.Now()
	if err != nil {
		return sample{kind: in.Kind, family: in.Family, status: httpFailed}
	}
	var opts core.Options
	var mon *portfolio.Monitor
	var before runtime.MemStats
	if traced {
		// A private monitor exposes the solver's per-phase time; the
		// search stays the sequential one (one worker, same decisions).
		mon = portfolio.NewMonitor()
		opts.PortfolioMonitor = mon
		runtime.ReadMemStats(&before)
	}
	solveStart := time.Now()
	ans := core.SolveContext(context.Background(), f, opts)
	done := time.Now()

	s := sample{kind: in.Kind, family: in.Family, latMS: ms(done.Sub(start))}
	verdict := "UNKNOWN"
	switch ans.Status {
	case solver.Sat:
		verdict = "SAT"
	case solver.Unsat:
		verdict = "UNSAT"
	}
	s.outcome = t.o.Oracle.CheckDIMACS(in, verdict, modelFromAssignment(ans.Model))
	if traced {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		st := &solveStats{verdict: ans.Status, busyS: done.Sub(solveStart).Seconds(),
			mallocs: after.Mallocs - before.Mallocs, allocBytes: after.TotalAlloc - before.TotalAlloc}
		if ans.SolverStats != nil {
			st.stats = *ans.SolverStats
		}
		snap := mon.Snapshot()
		st.phaseNS = snap.PhaseTotals()
		s.solve = st
		checked := time.Now()
		root := rec.Add(0, op, "op", start, checked, 0)
		rec.Add(root, op, "cnf.parse", start, parsed, float64(len(in.Text)))
		rec.Add(root, op, "core.solve", solveStart, done, float64(st.stats.Conflicts))
		rec.Add(root, op, "oracle.check", done, checked, 0)
		// Loading the formula into a solver is part of the solve span
		// above and cannot be seen from outside it; time it on its own.
		l0 := time.Now()
		_ = solver.FromFormula(f, solver.Options{})
		rec.Add(root, op, "solver.load", l0, time.Now(), float64(f.NumClauses()))
	}
	return s
}

func (t *solveTier) take() *Instance {
	in := t.pool[t.next%len(t.pool)]
	t.next++
	return in
}

func (t *solveTier) warm(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		t.solveOne(t.take(), 0, false)
	}
	// The window always starts at the head of the pool, so its
	// operations — and the solver's exact counts — do not depend on
	// how far the warm-up got.
	t.next = 0
}

func (t *solveTier) measure(d time.Duration) (*window, error) {
	w := &window{}
	cpu0 := sampleCPU(nil)
	start := time.Now()
	for end := start.Add(d); time.Now().Before(end); {
		w.samples = append(w.samples, t.solveOne(t.take(), len(w.samples)+1, t.o.Traced))
	}
	w.elapsed = time.Since(start).Seconds()
	w.cpu = sampleCPU(nil).since(cpu0)
	w.clientS = w.elapsed
	return w, nil
}

// countedOps is how many operations, from the head of the window, the
// exact solver counts cover. The window is timed, so a faster machine
// completes more operations; a count over all of them would not repeat.
// Every window on the reference sandbox completes more than this.
const countedOps = 400

func (t *solveTier) layers(w *window, m map[string]float64) []string {
	var invalid []string
	m["proc.peak_rss_mb"] = procPeakRSS(os.Getpid())
	_, _, loads := spansNamed(t.o.rec.Spans(), "solver.load")
	m["solver.load_ms"] = report.Median(loads)

	counted := min(countedOps, len(w.samples))
	if t.o.Smoke {
		counted = min(40, len(w.samples))
	} else if counted < countedOps {
		invalid = append(invalid, "window completed fewer operations than the exact solver counts cover")
	}
	crc := crc32.NewIEEE()
	var busy float64
	var props, conflicts int64
	var mallocs, allocBytes uint64
	phase := map[string]int64{}
	fam := map[string][]float64{}
	verdicts := 0
	for i := range w.samples {
		s := &w.samples[i]
		if s.solve == nil {
			continue
		}
		st := s.solve
		if i < counted {
			m["solver.conflicts"] += float64(st.stats.Conflicts)
			m["solver.decisions"] += float64(st.stats.Decisions)
			m["solver.propagations"] += float64(st.stats.Propagations)
			m["solver.restarts"] += float64(st.stats.Restarts)
			m["solver.learned"] += float64(st.stats.Learned)
			m["solver.deleted"] += float64(st.stats.Deleted)
			m["solver.arena_gcs"] += float64(st.stats.ArenaGCs)
			var b [24]byte
			binary.LittleEndian.PutUint64(b[0:], uint64(st.stats.Decisions))
			binary.LittleEndian.PutUint64(b[8:], uint64(st.stats.Conflicts))
			binary.LittleEndian.PutUint64(b[16:], uint64(st.stats.Learned))
			crc.Write(b[:])
		}
		busy += st.busyS
		props += st.stats.Propagations
		conflicts += st.stats.Conflicts
		mallocs += st.mallocs
		allocBytes += st.allocBytes
		for k, ns := range st.phaseNS {
			phase[k] += ns
		}
		if s.verdict() {
			verdicts++
		}
		family := s.family
		if family == "rand" {
			family = "rand_unsat"
			if st.verdict == solver.Sat {
				family = "rand_sat"
			}
		}
		fam[family] = append(fam[family], st.busyS*1000)
	}
	m["solver.signature_crc"] = float64(crc.Sum32())
	m["solver.busy_s"] = busy
	if busy > 0 {
		m["solver.props_per_s"] = float64(props) / busy
		other := busy
		for _, name := range solver.PhaseNames {
			share := float64(phase[name]) / 1e9 / busy
			m["solver.share_"+name] = share
			other -= float64(phase[name]) / 1e9
		}
		m["solver.share_other"] = max(other, 0) / busy
	}
	if conflicts > 0 {
		m["solver.ns_per_conflict"] = busy * 1e9 / float64(conflicts)
	}
	if verdicts > 0 {
		m["solver.allocs_per_verdict"] = float64(mallocs) / float64(verdicts)
		m["solver.alloc_kb_per_verdict"] = float64(allocBytes) / 1024 / float64(verdicts)
		m["portfolio.conflicts_per_verdict"] = float64(conflicts) / float64(verdicts)
		m["portfolio.workers_mean"] = 1
	}
	for _, f := range []string{"rand_sat", "rand_unsat", "php", "miter", "structured_sat"} {
		m["solver."+f+"_ms"] = report.Median(fam[f])
	}
	return invalid
}

// ms converts a duration to milliseconds at full clock resolution.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
