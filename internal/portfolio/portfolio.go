// Package portfolio races diversified configurations of the CDCL solver
// over the same formula on separate goroutines, answering with the first
// definitive verdict (algorithm portfolio parallelism). The paper's §6
// observation — that restart policy, randomization and decision
// heuristics dramatically change solver behavior on the same EDA
// instance — is exactly the variance a portfolio exploits: on SAT
// instances some lucky configuration finds a model quickly, on UNSAT
// instances workers cooperate by exchanging short learned clauses
// through a shared pool, so every worker prunes with lemmas its siblings
// derived.
//
// With Options.Adaptive the portfolio stops being a static recipe table:
// a supervisor samples every worker's progress (conflict rate and
// learnt-clause LBD quality, via the solver's race-free Snapshot hook),
// kills recipes that are clearly losing once a grace period has passed,
// and respawns the freed slot with a fresh-seeded recipe drawn from an
// explore/exploit schedule. Result.Workers then records the full
// lineage: every worker that ever ran, its slot, generation and reason
// for death.
//
// Typical use:
//
//	p := portfolio.New(f, portfolio.Options{Workers: 4, Adaptive: true})
//	res := p.Solve(context.Background())
//	if res.Status == solver.Sat { use(res.Model) }
//
// Determinism: worker 0 always runs the base configuration unchanged,
// so Options{Workers: 1} reproduces the sequential solver bit for bit
// (the supervisor and the sharing pool are disabled for a single
// worker, Adaptive or not). Adaptive kill timing depends on wall
// clock, so run-to-run lineages differ; each individual respawn draw,
// however, is a pure function of its inputs (global spawn index,
// generation, exploit hint and the seeds), so a recorded lineage
// identifies every recipe and seed it ran exactly.
package portfolio

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/cnf"
	"repro/internal/solver"
)

// Options configures a Portfolio. The zero value is usable: GOMAXPROCS
// workers, clause sharing on, default diversification, static
// scheduling.
type Options struct {
	// Workers is the number of racing solver goroutines (0 = GOMAXPROCS,
	// 1 = the sequential base configuration).
	Workers int

	// NoShare disables learned-clause exchange between workers.
	NoShare bool

	// ShareMaxLen / ShareMaxLBD bound which learned clauses each worker
	// offers to the shared pool (0 = the solver defaults, 8 and 4).
	// Final admission is the pool's dynamic LBD threshold; see
	// PoolQuantile.
	ShareMaxLen int
	ShareMaxLBD int

	// PoolCap bounds the shared pool (0 = 4096 clauses). Once full, an
	// admission evicts the oldest entry.
	PoolCap int

	// PoolQuantile tunes the pool's dynamic admission: at low pressure
	// a clause is admitted when its LBD is at or below this quantile of
	// recently admitted LBDs, and the effective quantile tightens
	// toward 0 as the unread backlog approaches PoolCap (0 = 0.5).
	// 1 disables the dynamic threshold: everything the solver-side
	// caps let through is admitted, with eviction the only
	// backpressure (the pre-adaptive fixed-cap behavior).
	PoolQuantile float64

	// Adaptive enables the scheduling supervisor: worker progress is
	// sampled (solver.Snapshot), clearly-losing recipes are killed
	// after Grace and their slots respawned with fresh-seeded recipes
	// from an explore/exploit schedule. Ignored with a single worker —
	// Workers: 1 stays bit-for-bit the sequential solver.
	Adaptive bool

	// Grace is the minimum age of a worker (since its spawn or respawn)
	// before the supervisor may kill it (0 = 2s). The sampling period
	// is derived from it (Grace/8, clamped to [1ms, 250ms]).
	Grace time.Duration

	// KillBelow is the relative-progress threshold: a worker past its
	// grace period is killed when its progress score — conflicts/s plus
	// a credit for clauses the shared pool admitted from it, scaled by
	// learnt-LBD quality — falls below KillBelow times the best live
	// worker's score (0 = 0.25). The pool credit keeps a low-conflict
	// worker alive while it is feeding the fleet lemmas the pool judges
	// competitive. Values ≥ 1 kill everything but the leader at every
	// sample, the respawn-churn stress configuration. The last live
	// worker is never killed.
	KillBelow float64

	// MaxRespawns bounds respawns per slot (0 = 4). A slot killed with
	// its budget spent retires instead: its CPU share falls to the
	// surviving workers. Negative disables respawning entirely — every
	// kill retires its slot, shrinking the portfolio toward the
	// leaders, the natural configuration on CPU-starved hosts where a
	// fresh recipe would only steal cycles from the winner.
	MaxRespawns int

	// Base is the configuration worker 0 runs verbatim and later workers
	// diversify from.
	//
	// A proof-carrying Base (a Base.Proof sink) runs exactly one
	// worker, whatever Workers says: a DRAT stream is one search's log,
	// so a racing sibling could only waste CPU when it loses and leave
	// the stream incomplete when it wins. Result.Proved then reports
	// whether that worker refuted the formula.
	Base solver.Options

	// Seed perturbs the per-worker PRNG seeds (combined with Base.Seed),
	// so distinct portfolio runs can be made to explore differently
	// while each remains deterministic.
	Seed int64

	// PreferRecipe names a recipe family (see RecipeFamily) that a
	// cross-run memory expects to win this instance class. When set and
	// valid, worker 1's initial draw runs that family and the adaptive
	// respawn schedule's explore arm alternates toward it. Unknown
	// names — and "base", which worker 0 permanently runs anyway — are
	// ignored. Worker 0 is never affected, so a one-worker portfolio
	// stays bit-identical to the sequential solver.
	PreferRecipe string

	// Monitor, when non-nil, receives every spawned worker for live
	// progress sampling (conflicts/s, glue share) plus the supervisor's
	// kill/respawn events — the probe a serving layer's status
	// endpoint reads while the job runs. The Monitor must be private
	// to this run.
	Monitor *Monitor
}

// WorkerReport is one worker's outcome and search statistics. Reports
// are value copies taken after every worker has stopped; holding them
// keeps no solver alive. Under adaptive scheduling there is one report
// per worker that EVER ran — the lineage — not one per slot.
type WorkerReport struct {
	// ID is the spawn-order index (0 = the undiversified base
	// configuration) and equals this report's index in Result.Workers.
	ID int
	// Slot is the scheduling slot the worker occupied; Gen counts
	// respawns into that slot (0 = the original recipe). Static runs
	// have Gen 0 and Slot == ID.
	Slot int
	Gen  int
	// Recipe names the diversification applied to this worker.
	Recipe string
	// Status is this worker's own verdict (Unknown for interrupted
	// losers, killed workers and exhausted budgets).
	Status solver.Status
	// Reason records why the worker stopped: "winner" for the worker
	// whose verdict was adopted, "killed-slow" for a supervisor kill
	// that respawned the slot, "retired" for a kill after the slot's
	// respawn budget was spent, "interrupted" for workers cancelled
	// because a sibling won or the context was cancelled, and "" for a
	// worker that stopped on its own (a second definitive finisher or
	// an exhausted per-worker budget).
	Reason string
	// Stats is the worker's final search statistics, including clauses
	// imported/exported through the shared pool and the learn-time LBD
	// histogram.
	Stats solver.Stats
}

// Result aggregates a portfolio run. All fields are owned by the
// caller: Model and Core are copies, and no field aliases a worker's
// internal state.
type Result struct {
	// Status is the winning verdict (Unknown if every worker was
	// interrupted or exhausted its budget).
	Status solver.Status
	// Model is the winner's satisfying assignment when Status is Sat.
	Model cnf.Assignment
	// Core is the winner's inconsistent assumption subset when Status is
	// Unsat and assumptions were given.
	Core []cnf.Lit
	// Winner is the index into Workers of the first worker to answer
	// (-1 if none).
	Winner int
	// Proved reports that Options.Base carried a proof sink and the
	// verdict is Unsat: the sink holds the lone worker's complete DRAT
	// refutation. False for proofless runs and for Sat verdicts, which
	// are certified by the model instead.
	Proved bool
	// Warm is the winning worker's branching warm-start profile (its
	// top variables by VSIDS activity with their saved phases), captured
	// after every worker has stopped. A cross-run memory can feed it to
	// the next same-class solve via Options.Base.WarmStart. Empty when no
	// worker answered.
	Warm []solver.WarmVar
	// Recipe names the winner's configuration ("" if none).
	Recipe string
	// Workers reports every worker that ever ran, in spawn order —
	// under adaptive scheduling this is the full kill/respawn lineage.
	Workers []WorkerReport
	// Kills counts supervisor kill decisions; Respawns counts the
	// replacements actually spawned (a kill past the slot's respawn
	// budget retires the slot instead).
	Kills, Respawns int
	// Pool reports the shared pool's dynamic-admission counters.
	Pool PoolStats
	// SharedExported / SharedDropped are legacy aliases: clauses
	// admitted into the shared pool, and offers that did not make it
	// (dynamic-admission rejections plus duplicates).
	SharedExported, SharedDropped int64
}

// Portfolio is a reusable parallel solving harness over one formula.
type Portfolio struct {
	f    *cnf.Formula
	opts Options
}

// New creates a portfolio over f. The formula is read, never mutated;
// each worker builds its own private clause database from it.
func New(f *cnf.Formula, opts Options) *Portfolio {
	return &Portfolio{f: f, opts: opts}
}

// runningWorker is the scheduling loop's bookkeeping for one spawned
// solver. Only the loop goroutine touches it (the solver itself is
// reached through race-safe methods: Interrupt, Snapshot).
type runningWorker struct {
	id        int // spawn order; index into Result.Workers
	slot, gen int
	name      string
	recipeIdx int // index into the recipe table (for exploit cloning)
	s         *solver.Solver
	spawned   time.Time
	stopWatch func() bool         // cancels the ctx→Interrupt watcher
	detach    func(reason string) // removes the worker from the run's Monitor
	killed    bool                // the supervisor decided to kill it
	respawn   bool                // ...and the slot's budget allows a successor
	reason    string              // reason-for-death recorded at kill time
}

// exportCredit is how many of a worker's own conflicts one pool-admitted
// export is worth in the supervisor's progress score. Admissions are
// pool-filtered for LBD quality, so each one is evidence the worker is
// producing lemmas the whole fleet prunes with — worth more than a
// private conflict, but bounded so a sharing hub that finds nothing
// itself cannot shadow a worker that is actually closing the search.
const exportCredit = 4

// warmProfileSize is how many top-activity variables the winner's
// warm-start profile records. Big enough to seed the first restarts'
// worth of branching, small enough that a stale profile is overruled
// within a few conflicts of bumping.
const warmProfileSize = 16

// progressScore rates a worker from a progress snapshot, the number of
// its clauses the shared pool admitted, and its age in seconds:
// (conflicts + exportCredit·admitted) per second, scaled by
// learnt-clause quality (0.5 + glue share of the LBD histogram, so a
// worker learning mostly glue counts up to 1.5×, one learning only
// junk 0.5×). Pure function; the supervisor kill test exercises it
// directly.
func progressScore(snap solver.Progress, admitted int64, age float64) float64 {
	if age <= 0 {
		return 0
	}
	return (float64(snap.Conflicts) + exportCredit*float64(admitted)) / age * (0.5 + snap.GlueShare())
}

// score rates a live worker for the supervisor, crediting the clauses
// the shared pool admitted from it on top of its own conflict rate.
func (w *runningWorker) score(now time.Time, shared *pool) float64 {
	return progressScore(w.s.Snapshot(), shared.slotAdmitted(w.slot, w.gen), now.Sub(w.spawned).Seconds())
}

// bestLive returns the live worker with the highest progress score.
func bestLive(running []*runningWorker, now time.Time, shared *pool) (*runningWorker, float64) {
	var best *runningWorker
	bestScore := 0.0
	for _, w := range running {
		if w == nil {
			continue
		}
		if sc := w.score(now, shared); best == nil || sc > bestScore {
			best, bestScore = w, sc
		}
	}
	return best, bestScore
}

// Solve races the workers under ctx and returns the first definitive
// answer, interrupting the losers. Cancelling ctx interrupts everyone
// and yields Status Unknown. Solve returns only after every spawned
// worker goroutine has exited.
func (p *Portfolio) Solve(ctx context.Context, assumptions ...cnf.Lit) *Result {
	if ctx == nil {
		ctx = context.Background()
	}
	n := p.opts.Workers
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	proof := p.opts.Base.Proof != nil
	if proof {
		n = 1 // a proof is one solver's log (Options.Base)
	}
	adaptive := p.opts.Adaptive && n > 1
	grace := p.opts.Grace
	if grace <= 0 {
		grace = 2 * time.Second
	}
	killBelow := p.opts.KillBelow
	if killBelow <= 0 {
		killBelow = 0.25
	}
	maxRespawns := p.opts.MaxRespawns
	if maxRespawns == 0 {
		maxRespawns = 4
	}
	// Cross-run memory hint: resolve the preferred recipe family once;
	// -1 (unknown or unset) leaves every draw on the plain schedule.
	// The base family is worker 0's permanent configuration, so
	// preferring it is inherently satisfied — treating it as a hint
	// would only make explore draws duplicate worker 0.
	preferIdx := recipeIndex(RecipeFamily(p.opts.PreferRecipe))
	if preferIdx == 0 {
		preferIdx = -1
	}
	share := !p.opts.NoShare && n > 1
	shared := newPool(p.opts.PoolCap, n, p.opts.PoolQuantile)

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	type outcome struct {
		w  *runningWorker
		st solver.Status
	}
	ch := make(chan outcome, n)

	res := &Result{Status: solver.Unknown, Winner: -1}
	running := make([]*runningWorker, n) // live worker per slot (nil = free/closed)
	respawnsUsed := make([]int, n)
	spawnIdx := 0
	live := 0
	var wg sync.WaitGroup

	spawn := func(slot, gen int, o solver.Options, name string, recipeIdx int) {
		if share {
			shared.openSlot(slot, gen)
			var fpBuf []cnf.Lit // per-worker fingerprint scratch: hash outside the pool lock
			o.ExportClause = func(lits []cnf.Lit, lbd int) bool {
				var fp uint64
				fp, fpBuf = fingerprint(lits, fpBuf)
				return shared.add(slot, gen, lits, lbd, fp)
			}
			o.ImportClauses = func() []cnf.Clause { return shared.drain(slot, gen) }
			if p.opts.ShareMaxLen > 0 {
				o.ShareMaxLen = p.opts.ShareMaxLen
			}
			if p.opts.ShareMaxLBD > 0 {
				o.ShareMaxLBD = p.opts.ShareMaxLBD
			}
		}
		w := &runningWorker{
			id: spawnIdx, slot: slot, gen: gen, name: name, recipeIdx: recipeIdx,
			s: solver.FromFormula(p.f, o), spawned: time.Now(),
		}
		w.detach = p.opts.Monitor.Attach(slot, gen, name, w.s)
		spawnIdx++
		// Interrupt only touches an atomic flag, so the watcher may
		// safely overlap the solve and the final stats copy.
		w.stopWatch = context.AfterFunc(ctx, w.s.Interrupt)
		running[slot] = w
		live++
		wg.Add(1)
		go func() {
			defer wg.Done()
			ch <- outcome{w, w.s.Solve(assumptions...)}
		}()
	}

	for i := 0; i < n; i++ {
		o, name, idx := diversifyPrefer(i, p.opts.Base, p.opts.Seed, preferIdx)
		spawn(i, 0, o, name, idx)
	}

	var tickC <-chan time.Time
	scores := make([]float64, n) // per-tick score vector, reused across ticks
	if adaptive {
		tick := grace / 8
		if tick < time.Millisecond {
			tick = time.Millisecond
		}
		if tick > 250*time.Millisecond {
			tick = 250 * time.Millisecond
		}
		ticker := time.NewTicker(tick)
		defer ticker.Stop()
		tickC = ticker.C
	}

	var winner *runningWorker
	for live > 0 {
		select {
		case oc := <-ch:
			live--
			w := oc.w
			w.stopWatch()
			if running[w.slot] == w {
				running[w.slot] = nil
				shared.closeSlot(w.slot)
			}
			reason := w.reason
			if oc.st != solver.Unknown {
				// A definitive answer always stands, even when the
				// supervisor had just decided to kill this worker: a
				// kill/respawn-heavy schedule can never lose a winner.
				reason = ""
				if winner == nil {
					winner = w
					res.Status = oc.st
					res.Recipe = w.name
					switch oc.st {
					case solver.Sat:
						res.Model = w.s.Model()
					case solver.Unsat:
						if len(assumptions) > 0 {
							res.Core = w.s.Core()
						}
					}
					cancel() // first definitive answer wins; interrupt the losers
				}
				if winner == w {
					reason = "winner"
				}
			} else if reason == "" && (winner != nil || ctx.Err() != nil) {
				reason = "interrupted"
			}
			// Supervisor kills were already recorded by NoteKill at
			// decision time; passing the reason again would duplicate
			// the event in the Monitor's bounded history.
			if w.killed {
				w.detach("")
			} else {
				w.detach(reason)
			}
			res.Workers = append(res.Workers, WorkerReport{
				ID: w.id, Slot: w.slot, Gen: w.gen, Recipe: w.name,
				Status: oc.st, Reason: reason, Stats: w.s.Stats,
			})
			if w.killed && w.respawn && winner == nil && ctx.Err() == nil {
				// The slot is free (its goroutine just exited): respawn
				// it with a fresh-seeded recipe from the explore/exploit
				// schedule, exploiting the current best live recipe and
				// biasing the explore arm toward the remembered family.
				exploitIdx := -1
				if best, sc := bestLive(running, time.Now(), shared); best != nil && sc > 0 {
					exploitIdx = best.recipeIdx
				}
				o, name, idx := respawnPrefer(spawnIdx, w.slot, w.gen+1, p.opts.Base, p.opts.Seed, exploitIdx, preferIdx)
				p.opts.Monitor.NoteRespawn(name)
				spawn(w.slot, w.gen+1, o, name, idx)
				res.Respawns++
			}

		case <-tickC:
			if winner != nil || ctx.Err() != nil {
				continue // already cancelled; just draining outcomes
			}
			// One scoring pass per tick: each score costs a solver
			// snapshot and a pool-mutex acquisition (slotAdmitted), and
			// the pool mutex is contended by every worker's per-conflict
			// exports — don't pay it twice per worker.
			now := time.Now()
			var best *runningWorker
			bestScore := 0.0
			liveNow := 0
			for slot, w := range running {
				if w == nil {
					continue
				}
				liveNow++
				scores[slot] = w.score(now, shared)
				if best == nil || scores[slot] > bestScore {
					best, bestScore = w, scores[slot]
				}
			}
			if best == nil || bestScore <= 0 {
				continue // no measurable progress anywhere yet
			}
			for slot, w := range running {
				if w == nil || w == best || liveNow <= 1 {
					continue // never kill the last live worker or the leader
				}
				if now.Sub(w.spawned) < grace {
					continue
				}
				if scores[slot] >= killBelow*bestScore {
					continue
				}
				// Kill: close the pool slot first so the dying worker's
				// in-flight exports/imports bounce off the teardown
				// guard, then interrupt. The respawn (or retirement)
				// happens when its outcome arrives.
				w.killed = true
				if respawnsUsed[w.slot] < maxRespawns { // maxRespawns < 0: retire-only
					respawnsUsed[w.slot]++
					w.respawn = true
					w.reason = "killed-slow"
				} else {
					w.reason = "retired"
				}
				res.Kills++
				p.opts.Monitor.NoteKill(w.name)
				running[w.slot] = nil
				shared.closeSlot(w.slot)
				w.s.Interrupt()
				liveNow--
			}
		}
	}
	wg.Wait()

	// Reports were appended in completion order; lineage and the Winner
	// index are by spawn order.
	sort.Slice(res.Workers, func(i, j int) bool { return res.Workers[i].ID < res.Workers[j].ID })
	if winner != nil {
		res.Winner = winner.id
		res.Proved = proof && res.Status == solver.Unsat
		// Every worker goroutine has exited (wg.Wait above), so reading
		// the winner's heuristic state is race-free here.
		res.Warm = winner.s.WarmProfile(warmProfileSize)
	}
	ps := shared.stats()
	res.Pool = ps
	res.SharedExported = ps.Admitted
	res.SharedDropped = ps.Rejected + ps.Duplicates
	return res
}

// Solve is a one-shot convenience: build a portfolio over f and race it.
func Solve(ctx context.Context, f *cnf.Formula, opts Options, assumptions ...cnf.Lit) *Result {
	return New(f, opts).Solve(ctx, assumptions...)
}
