package workload

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/gen"
	"repro/internal/solver"

	"repro/bench/report"
)

// serveConfig holds a served workload's calibrated constants. They were
// fixed once on the 2-vCPU reference sandbox (README, calibration) and
// are never tuned at run time.
type serveConfig struct {
	// replicas is the fleet size; every replica runs default flags plus
	// a fresh -store-dir.
	replicas int
	// rate > 0 makes the loop open: that many jobs per second, at most
	// conns in flight, goodput counted within limitMS. rate == 0 makes
	// it closed with that many clients.
	rate    float64
	limitMS float64
	conns   int
	clients int
	// proof submits every job with "proof": true.
	proof bool
	// traceStride fetches the daemon's trace for every n-th job of a
	// traced window. 1 everywhere except where a fetch per job would
	// itself be a large share of the work.
	traceStride int
	// solveShareMin/Max is the band serve.solve_share must stay in for
	// the workload to be measuring what it claims.
	solveShareMin, solveShareMax float64
	// hitShareMin/Max is the same for serve.cache_hit_share.
	hitShareMin, hitShareMax float64
}

var serveConfigs = map[string]serveConfig{
	"serve_heavy": {
		replicas: 1, rate: 25, limitMS: 500, conns: 32, traceStride: 1,
		solveShareMin: 0.85, solveShareMax: 1, hitShareMax: 0,
	},
	"serve_certified": {
		replicas: 1, rate: 25, limitMS: 1000, conns: 32, proof: true, traceStride: 1,
		solveShareMin: 0, solveShareMax: 1, hitShareMax: 0,
	},
	"serve_light": {
		// One client, not nproc: two keep both vCPUs about 90 % busy
		// across three processes, and every hiccup of the host is then
		// amplified into the loop (throughput ranged 80-135 ops/s over
		// ten seeds against 67-69 with one client).
		replicas: 2, clients: 1, traceStride: 8,
		solveShareMin: 0, solveShareMax: 0.10, hitShareMin: 0.8, hitShareMax: 1,
	},
}

// Serve-light shape: lightFormulas cached formulas drawn Zipf(1.2),
// each pre-encoded in lightVariants clause/literal permutations; every
// lightBatchEvery-th operation is an NDJSON batch of lightBatchSize
// fresh small formulas.
const (
	lightFormulas   = 64
	lightVariants   = 2
	lightVars       = 2000
	lightClauses    = 6000
	lightBatchEvery = 10
	lightBatchSize  = 8
	lightBatches    = 200
)

func serveHeavyMix(smoke bool) []slot {
	if smoke {
		return []slot{
			{2, func(r *rand.Rand) *Instance { return rand3(40, 4.26, r) }},
			{1, func(r *rand.Rand) *Instance { return adderPair(4, 2) }},
			{1, func(r *rand.Rand) *Instance { return buggyAdderPair(4, r) }},
			{1, func(r *rand.Rand) *Instance { return counterJob(3, 5, r.Intn(2) == 0) }},
			{1, func(r *rand.Rand) *Instance { return lfsrJob(5, 6, r.Intn(2) == 0) }},
		}
	}
	adderN, adderBlock := cyc(40, 56, 48, 64), cyc(2, 4, 6, 3, 5)
	dagGates, bugN := cyc(220, 260, 240, 280), cyc(48, 64, 56)
	target, safe := cyc(44, 52, 58, 48, 55), cyc(0, 0, 1)
	steps := cyc(100, 160, 130, 190)
	return []slot{
		// 50 % dimacs.
		{2, func(r *rand.Rand) *Instance { return rand3(150, 4.26, r) }},
		{2, func(r *rand.Rand) *Instance { return rand3(150, 5.0, r) }},
		{3, func(r *rand.Rand) *Instance { return rand3(165, 4.8, r) }},
		{3, func(r *rand.Rand) *Instance { return rand3(180, 5.0, r) }},
		// 30 % cec: adders of varied width and block size, multiplier
		// self-miters, a random DAG against its strashed copy, and a
		// bugged adder for the NOT_EQUIVALENT path.
		{2, func(r *rand.Rand) *Instance { return adderPair(adderN(), adderBlock()) }},
		{1, func(r *rand.Rand) *Instance { return multPair(5) }},
		{2, func(r *rand.Rand) *Instance { return dagPair(dagGates(), r) }},
		{1, func(r *rand.Rand) *Instance { return buggyAdderPair(bugN(), r) }},
		// 20 % bmc at varied depth, a third of them SAFE.
		{3, func(r *rand.Rand) *Instance { return counterJob(6, target(), safe() == 1) }},
		{1, func(r *rand.Rand) *Instance { return lfsrJob(8, steps(), safe() == 1) }},
	}
}

func serveCertifiedMix(smoke bool) []slot {
	if smoke {
		return []slot{
			{2, func(r *rand.Rand) *Instance { return rand3(40, 4.8, r) }},
			{1, func(r *rand.Rand) *Instance { return php(4, r) }},
			{1, func(r *rand.Rand) *Instance {
				return miter(circuit.RippleCarryAdder(4), circuit.CarrySkipAdder(4, 2), r)
			}},
		}
	}
	n426, n50, phpN, adderN := cyc(100, 110, 120), cyc(120, 130, 140), cyc(5, 6), cyc(12, 16, 20)
	return []slot{
		{3, func(r *rand.Rand) *Instance { return rand3(n426(), 4.26, r) }},
		{4, func(r *rand.Rand) *Instance { return rand3(n50(), 5.0, r) }},
		{1, func(r *rand.Rand) *Instance { return php(phpN(), r) }},
		{1, func(r *rand.Rand) *Instance {
			n := adderN()
			return miter(circuit.RippleCarryAdder(n), circuit.CarrySkipAdder(n, 4), r)
		}},
		{1, func(r *rand.Rand) *Instance {
			return miter(circuit.ArrayMultiplier(4), circuit.ArrayMultiplier(4), r)
		}},
	}
}

// serve drives satserved children over HTTP.
type serve struct {
	name string
	cfg  serveConfig
	o    *Options

	daemons []*Daemon
	client  *http.Client
	ops     []*Instance // open loops and batches: one per operation
	// serve_light: the cached formulas' variants, the Zipf draw order
	// (popularity ranks) and which formula holds each rank.
	variants [][]*Instance
	draws    []int
	byRank   []int
	genS     float64
	nInst    int

	next    atomic.Int64 // next operation index
	used    []int        // serve_light: next variant per formula
	usedMu  sync.Mutex
	batches atomic.Int64 // serve_light: next batch

	before, after map[string]float64
	// proofIDs remembers every certified job for the post-window check.
	proofMu  sync.Mutex
	proofIDs []proofRef
}

type proofRef struct {
	id string
	in *Instance
}

func newServe(name string, o *Options) *serve {
	cfg := serveConfigs[name]
	if o.Smoke && cfg.rate > 0 {
		cfg.rate = 40
	}
	if o.RateScale > 0 {
		cfg.rate *= o.RateScale
	}
	return &serve{name: name, cfg: cfg, o: o}
}

func (s *serve) instances() (int, float64) { return s.nInst, s.genS }

func (s *serve) setup() error {
	s.generate()
	ds, err := StartFleet(s.o.Satserved, s.o.WorkDir, s.cfg.replicas)
	if err != nil {
		return err
	}
	s.daemons = ds
	s.client = newHTTPClient(max(s.cfg.conns, s.cfg.clients))
	return nil
}

// generate builds and encodes the workload's inputs from the seed.
func (s *serve) generate() {
	start := time.Now()
	s.next.Store(0)
	s.batches.Store(0)
	s.proofIDs = nil
	rng := stream(s.o.Seed, "instances")
	if s.name == "serve_light" {
		s.generateLight(rng)
	} else {
		// One instance per scheduled operation, warm-up included, plus
		// slack for timer rounding.
		n := int(s.cfg.rate*(s.o.Seconds+warmup.Seconds())) + 8
		mix := serveHeavyMix(s.o.Smoke)
		if s.name == "serve_certified" {
			mix = serveCertifiedMix(s.o.Smoke)
		}
		s.ops = generate(mix, n, rng)
		for i, in := range s.ops {
			s.encode(in, fmt.Sprintf("%d-%d", s.o.Seed, i))
		}
		s.nInst = n
	}
	s.genS = time.Since(start).Seconds()
}

func (s *serve) teardown() {
	StopAll(s.daemons)
	s.daemons = nil
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	s.ops, s.variants = nil, nil
}

// encode renders an instance's request body, recording the CNF
// serialization as a span.
func (s *serve) encode(in *Instance, nonce string) {
	if in.Kind == "dimacs" {
		t0 := time.Now()
		in.Text = cnf.DIMACSString(in.F)
		s.o.rec.Add(0, 0, "cnf.serialize", t0, time.Now(), float64(len(in.Text)))
	}
	in.encode(s.cfg.proof, nonce)
}

// generateLight builds serve_light's inputs: the cached formulas in
// several textual variants, the Zipf draw order, and the batches.
func (s *serve) generateLight(rng *rand.Rand) {
	formulas, variants, vars, clauses, batches := lightFormulas, lightVariants, lightVars, lightClauses, lightBatches
	if s.o.Smoke {
		formulas, variants, vars, clauses, batches = 8, 2, 200, 600, 40
	}
	s.variants = make([][]*Instance, formulas)
	s.used = make([]int, formulas)
	for i := range s.variants {
		base := gen.RandomKSAT(vars, clauses, 3, rng.Int63())
		for v := 0; v < variants; v++ {
			in := dimacs("rand", WantAny, permute(base, rng))
			s.encode(in, "")
			s.variants[i] = append(s.variants[i], in)
			// The variants must be one cache line: check a sample with
			// the daemon's own canonical fingerprint, through the parser.
			if v == 0 && i%4 == 0 {
				t0 := time.Now()
				f, err := cnf.ParseDIMACS(strings.NewReader(in.Text))
				t1 := time.Now()
				s.o.rec.Add(0, 0, "cnf.parse", t0, t1, float64(len(in.Text)))
				if err != nil {
					panic(err) // the text was written by cnf.DIMACSString
				}
				got := cnf.FormulaFingerprint(f)
				s.o.rec.Add(0, 0, "cnf.fingerprint", t1, time.Now(), float64(len(in.Text)))
				if got != cnf.FormulaFingerprint(base) {
					panic("permuted variant changed the canonical fingerprint")
				}
			}
		}
	}
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(formulas-1))
	s.draws = make([]int, 1<<14)
	for i := range s.draws {
		s.draws[i] = int(zipf.Uint64())
	}
	s.ops = make([]*Instance, batches)
	for b := range s.ops {
		batch := &Instance{Kind: "batch", Family: "batch"}
		for k := 0; k < lightBatchSize; k++ {
			batch.Items = append(batch.Items, dimacs("rand", WantAny, gen.RandomKSAT(40, 160, 3, rng.Int63())))
		}
		batch.encode(false, "")
		s.ops[b] = batch
	}
	s.nInst = formulas*variants + batches*lightBatchSize
}

// pick returns operation i's instance and entry replica.
func (s *serve) pick(i int) (*Instance, *Daemon) {
	entry := s.daemons[i%len(s.daemons)]
	if s.name != "serve_light" {
		return s.ops[i%len(s.ops)], entry
	}
	if i%lightBatchEvery == lightBatchEvery-1 {
		// A loop that outruns the pool wraps. By then the batch's items
		// have long left the 256-entry result cache (1600 fresh items
		// passed through in between), so they are solved again as fresh.
		return s.ops[int(s.batches.Add(1)-1)%len(s.ops)], entry
	}
	f := s.byRank[s.draws[i%len(s.draws)]]
	s.usedMu.Lock()
	v := s.used[f]
	s.used[f] = (v + 1) % len(s.variants[f])
	s.usedMu.Unlock()
	return s.variants[f][v], entry
}

// do runs operation i, due at due, and returns its sample, the
// schedule lag and the client time spent fetching the daemon's trace.
func (s *serve) do(i int, due time.Time, traced bool) (smp sample, lagMS, fetchS float64) {
	in, entry := s.pick(i)
	url := entry.URL + "/v1/jobs"
	if in.Kind == "batch" {
		url += "/batch"
	}
	sent := time.Now()
	body, owner, status := post(s.client, url, in.Body)
	done := time.Now()
	smp = sample{kind: in.Kind, family: in.Family, latMS: ms(done.Sub(due)), rtMS: ms(done.Sub(sent)), status: status}
	lagMS = ms(sent.Sub(due))
	if status != httpOK {
		return smp, lagMS, 0
	}
	smp.forwarded = owner != "" && owner != entry.URL

	if in.Kind == "batch" {
		views, err := readBatch(body, len(in.Items))
		if err != nil {
			smp.status = httpFailed
			return smp, lagMS, 0
		}
		for k, v := range views {
			if out := s.judge(in.Items[k], v, &smp); out > smp.outcome {
				smp.outcome = out // the batch is as good as its worst item
			}
		}
		smp.cached = false
		return smp, lagMS, 0
	}

	var v jobView
	if err := json.Unmarshal(body, &v); err != nil {
		smp.status = httpFailed
		return smp, lagMS, 0
	}
	smp.outcome = s.judge(in, &v, &smp)
	if s.cfg.proof {
		s.proofMu.Lock()
		s.proofIDs = append(s.proofIDs, proofRef{v.ID, in})
		s.proofMu.Unlock()
	}
	if !traced {
		return smp, lagMS, 0
	}
	rec := s.o.rec
	root := rec.Add(0, i+1, "op", due, done, 0)
	rt := rec.Add(root, i+1, "http_roundtrip", sent, done, float64(len(in.Body)))
	if i%s.cfg.traceStride != 0 {
		return smp, lagMS, 0
	}
	// The job lives on the replica that ran it: the owner when the
	// entry replica forwarded it.
	home := entry.URL
	if smp.forwarded {
		home = owner
	}
	f0 := time.Now()
	var rt1 remoteTrace
	if err := getJSON(s.client, home+"/v1/jobs/"+v.ID+"/trace", &rt1); err == nil && rt1.DurUS >= 0 {
		smp.traced = true
		smp.serverMS = float64(rt1.DurUS) / 1000
		smp.phases, smp.certifyMS = rt1.phases()
		smp.solverCPU = rt1.solverCPU()
		rec.Stitch(rt, i+1, time.UnixMicro(rt1.StartUnixUS), rt1.remoteSpans())
	}
	fetchS = time.Since(f0).Seconds()
	rec.Add(root, i+1, "trace.fetch", f0, time.Now(), 0)
	return smp, lagMS, fetchS
}

// judge checks one job view against its instance and copies what the
// per-layer metrics need into smp.
func (s *serve) judge(in *Instance, v *jobView, smp *sample) Outcome {
	if v.Result == nil || v.Status != "done" {
		smp.status = httpFailed
		return Undecided
	}
	r := v.Result
	smp.cached = r.Cached
	smp.workers += v.Workers
	smp.conflicts += r.Conflicts
	var out Outcome
	switch in.Kind {
	case "dimacs":
		out = s.o.Oracle.CheckDIMACS(in, r.Verdict, modelFromLits(in.F.NumVars(), r.Model))
	case "cec":
		out = s.o.Oracle.CheckCEC(in, r.Verdict, r.Counterexample)
	case "bmc":
		out = s.o.Oracle.CheckBMC(in, r.Verdict, r.Depth)
	}
	if s.cfg.proof && out != Wrong {
		p := r.Proof
		if p == nil || p.Checker != "verified" {
			return Undecided // a verdict without its certificate is not a certified verdict
		}
		smp.proved = true
		smp.dratBytes = len(p.DRAT)
		smp.lemmas = strings.Count(p.DRAT, "\n")
		smp.deletions = p.Deletions
	}
	return out
}

func (s *serve) warm(d time.Duration) {
	if s.name == "serve_light" {
		s.prime()
	}
	s.run(d, false, nil)
}

// prime submits every cached formula once, so the window measures hits
// and not first solves, and deals out the popularity ranks so that
// consecutive ranks belong to different replicas. Ring positions hash
// the members' URLs, whose ports are new on every run: left alone, the
// two or three formulas that draw half the traffic land on one replica
// in some runs and on both in others, and throughput follows. Every
// formula is the same size, so which of them is popular is immaterial.
func (s *serve) prime() {
	owned := make(map[string][]int)
	var owners []string
	for f := range s.variants {
		_, owner, _ := post(s.client, s.daemons[0].URL+"/v1/jobs", s.variants[f][0].Body)
		if _, seen := owned[owner]; !seen {
			owners = append(owners, owner)
		}
		owned[owner] = append(owned[owner], f)
	}
	s.byRank = s.byRank[:0]
	for len(s.byRank) < len(s.variants) {
		for _, o := range owners {
			if fs := owned[o]; len(fs) > 0 {
				s.byRank = append(s.byRank, fs[0])
				owned[o] = fs[1:]
			}
		}
	}
}

func (s *serve) measure(d time.Duration) (*window, error) {
	w := &window{limitMS: s.cfg.limitMS}
	if s.o.Traced {
		m, err := scrape(s.client, s.daemons)
		if err != nil {
			return nil, err
		}
		s.before = m
	}
	s.proofMu.Lock()
	s.proofIDs = nil
	s.proofMu.Unlock()
	cpu0 := sampleCPU(s.daemons)
	start := time.Now()
	s.run(d, s.o.Traced, w)
	w.elapsed = time.Since(start).Seconds()
	if s.cfg.rate > 0 {
		// Most of an open loop's connections idle; the client time the
		// window offered is the time its operations were in flight.
		for i := range w.samples {
			w.clientS += w.samples[i].rtMS / 1000
		}
	} else {
		w.clientS = w.elapsed * float64(s.cfg.clients)
	}
	w.cpu = sampleCPU(s.daemons).since(cpu0)
	if s.o.Traced {
		m, err := scrape(s.client, s.daemons)
		if err != nil {
			return nil, err
		}
		s.after = m
	}
	if s.cfg.proof {
		s.recheckProofs()
	}
	return w, nil
}

// run drives the loop for d. With w == nil nothing is recorded.
func (s *serve) run(d time.Duration, traced bool, w *window) {
	var mu sync.Mutex
	record := func(smp sample, lag, fetch float64) {
		if w == nil {
			return
		}
		mu.Lock()
		w.samples = append(w.samples, smp)
		w.fetchS += fetch
		if s.cfg.rate > 0 {
			w.lagMS = append(w.lagMS, lag)
		}
		mu.Unlock()
	}
	if s.cfg.rate > 0 {
		n := int(s.cfg.rate * d.Seconds())
		first := int(s.next.Add(int64(n))) - n
		openLoop(time.Now(), s.cfg.rate, first, n, s.cfg.conns, func(i int, due time.Time) {
			record(s.do(i, due, traced))
		})
		return
	}
	closedLoop(s.cfg.clients, &s.next, time.Now().Add(d), func(_, i int) {
		record(s.do(i, time.Now(), traced))
	})
}

// recheckProofs fetches the certificate of every tenth certified job
// from the daemon and checks it again against the benchmark's own copy
// of the formula.
func (s *serve) recheckProofs() {
	for k := 0; k < len(s.proofIDs); k += 10 {
		ref := s.proofIDs[k]
		var body struct {
			Verdict string `json:"verdict"`
			Proof   struct {
				Checker string `json:"checker"`
				DRAT    string `json:"drat"`
			} `json:"proof"`
		}
		if err := getJSON(s.client, s.daemons[0].URL+"/v1/jobs/"+ref.id+"/proof", &body); err != nil {
			s.o.Oracle.fail(ref.in, "certificate of job %s not retrievable: %v", ref.id, err)
			continue
		}
		if body.Verdict != "UNSAT" || body.Proof.Checker != "verified" {
			continue // SAT models were checked when the answer arrived
		}
		if err := solver.VerifyDRAT(ref.in.F, strings.NewReader(body.Proof.DRAT)); err != nil {
			s.o.Oracle.fail(ref.in, "served DRAT certificate of job %s does not check: %v", ref.id, err)
		}
	}
}

func (s *serve) validate(w *window) []string {
	var invalid []string
	hits := 0
	for i := range w.samples {
		if w.samples[i].cached {
			hits++
		}
	}
	if len(w.samples) > 0 {
		share := float64(hits) / float64(len(w.samples))
		if share < s.cfg.hitShareMin || share > s.cfg.hitShareMax {
			invalid = append(invalid, fmt.Sprintf("cache-hit share %.3f outside [%.2f, %.2f]", share, s.cfg.hitShareMin, s.cfg.hitShareMax))
		}
	}
	return invalid
}

func (s *serve) layers(w *window, m map[string]float64) []string {
	var invalid []string
	delta := func(series string) float64 { return s.after[series] - s.before[series] }

	var boot float64
	for _, d := range s.daemons {
		boot += d.BootMS
	}
	m["client.boot_ms"] = boot / float64(len(s.daemons))
	m["proc.peak_rss_mb"] = peakRSS(s.daemons)

	// Client-observed shares.
	var ops, hits, forwarded, singles, verdicts, multi float64
	var workers, conflicts float64
	var hitDirect, hitForwarded []float64
	for i := range w.samples {
		smp := &w.samples[i]
		ops++
		if smp.cached {
			hits++
		}
		if smp.kind != "batch" {
			singles++
			if smp.forwarded {
				forwarded++
			}
			if smp.cached && smp.verdict() {
				if smp.forwarded {
					hitForwarded = append(hitForwarded, smp.latMS)
				} else {
					hitDirect = append(hitDirect, smp.latMS)
				}
			}
		}
		if smp.verdict() {
			verdicts++
			conflicts += float64(smp.conflicts)
			if smp.kind != "batch" && !smp.cached {
				workers += float64(smp.workers)
				if smp.workers > 1 {
					multi++
				}
			}
		}
	}
	if ops > 0 {
		m["serve.cache_hit_share"] = hits / ops
	}
	if singles > 0 {
		m["fleet.forward_share"] = forwarded / singles
	}
	if len(hitDirect) > 0 && len(hitForwarded) > 0 {
		m["fleet.forward_overhead_ms"] = report.Median(hitForwarded) - report.Median(hitDirect)
	}
	m["solver.conflicts"] = conflicts
	if solved := singles - hits; solved > 0 && verdicts > 0 {
		m["portfolio.workers_mean"] = workers / solved
		m["portfolio.multi_worker_share"] = multi / solved
		m["portfolio.conflicts_per_verdict"] = conflicts / verdicts
	}

	// Daemon-side counters over the window.
	m["serve.submitted"] = delta("satserved_jobs_submitted_total")
	m["serve.completed"] = delta("satserved_jobs_completed_total")
	m["serve.shed"] = delta("satserved_jobs_shed_total")
	m["serve.solves"] = delta("satserved_solves_total")
	m["serve.cache_evictions"] = delta("satserved_cache_evictions_total")
	if sub := m["serve.submitted"]; sub > 0 {
		m["serve.coalesced_share"] = delta("satserved_coalesced_total") / sub
	}
	m["fleet.forward_errors"] = delta("satserved_fleet_forward_errors_total")
	m["fleet.local_fallbacks"] = delta("satserved_fleet_local_fallbacks_total")
	m["store.writes"] = delta("satserved_store_writes_total")
	m["store.wal_kb"] = s.after["satserved_store_wal_bytes"] / 1024
	m["store.compactions"] = delta("satserved_store_compactions_total")
	m["store.dropped"] = delta("satserved_store_dropped_total")
	m["store.errors"] = delta("satserved_store_errors_total")
	m["store.replay_ms"] = s.after["satserved_store_replay_seconds"] * 1000
	m["proof.replays"] = delta("satserved_proof_replays_total")
	m["proof.failures"] = delta("satserved_proof_check_failures_total")
	m["audit.records"] = delta("satserved_audit_records")

	// Daemon traces of the sampled jobs.
	phase := map[string][]float64{}
	var server, solve, certify float64
	var overhead []float64
	cpu := map[string]float64{}
	var busyCPU, tracedConflicts float64 // solver CPU-seconds available: solve wall × workers
	for i := range w.samples {
		smp := &w.samples[i]
		if !smp.traced {
			continue
		}
		for name, v := range smp.phases {
			phase[name] = append(phase[name], v)
		}
		server += smp.serverMS
		solve += smp.phases["solve"]
		certify += smp.certifyMS
		overhead = append(overhead, smp.rtMS-smp.serverMS)
		for name, v := range smp.solverCPU {
			cpu[name] += v
		}
		busyCPU += (smp.phases["solve"] - smp.certifyMS) / 1000 * float64(max(smp.workers, 1))
		tracedConflicts += float64(smp.conflicts)
	}
	for _, name := range []string{"parse", "queue", "admit", "solve", "persist", "respond", "coalesce_wait"} {
		m["serve."+name+"_ms_p50"] = report.Median(phase[name])
	}
	m["serve.queue_ms_p90"] = report.Percentile(phase["queue"], 90)
	m["serve.overhead_ms_p50"] = report.Median(overhead)
	if server > 0 {
		m["serve.solve_share"] = solve / server
		m["proof.certify_share"] = certify / server
		if share := solve / server; share < s.cfg.solveShareMin || share > s.cfg.solveShareMax {
			invalid = append(invalid, fmt.Sprintf("serve.solve_share %.3f outside [%.2f, %.2f]", share, s.cfg.solveShareMin, s.cfg.solveShareMax))
		}
	}
	m["solver.busy_s"] = (solve - certify) / 1000
	if busyCPU > 0 {
		other := busyCPU
		for _, name := range solver.PhaseNames {
			m["solver.share_"+name] = cpu[name] / 1000 / busyCPU
			other -= cpu[name] / 1000
		}
		m["solver.share_other"] = max(other, 0) / busyCPU
		if tracedConflicts > 0 {
			m["solver.ns_per_conflict"] = busyCPU * 1e9 / tracedConflicts
		}
	}

	if s.cfg.proof {
		var drat, lemmas, dels, proved float64
		for i := range w.samples {
			if smp := &w.samples[i]; smp.proved {
				proved++
				drat += float64(smp.dratBytes)
				lemmas += float64(smp.lemmas)
				dels += float64(smp.deletions)
			}
		}
		if proved > 0 {
			m["proof.drat_kb_per_verdict"] = drat / 1024 / proved
		}
		if lemmas > 0 {
			m["proof.deletion_share"] = dels / lemmas
		}
		proofProbe(s.o, m)
	}
	if s.name == "serve_light" {
		storeProbe(s.o, m)
	}
	return invalid
}
