// Package workload generates satbench's five workloads from a seed,
// runs them against the repository's layers from outside (direct calls
// into public functions, HTTP against real satserved children), checks
// every answer with an oracle that does not trust the solver under
// test, and turns the samples and spans into the metrics BENCHMARK.json
// names.
package workload

import (
	"fmt"
	"os"
	"time"

	"repro/bench/report"
	"repro/bench/trace"
)

// Names lists the workloads in their canonical order.
var Names = []string{"solve_tier", "serve_heavy", "serve_light", "serve_certified", "atpg_session"}

// Options configures one run of one workload: set-up, warm-up and one
// measured window.
type Options struct {
	// WorkDir is a directory inside the checkout that the run may fill
	// with store directories and remove again.
	WorkDir string
	// Satserved is the built daemon binary; BuildS what building it
	// cost (reported as client.build_s).
	Satserved string
	BuildS    float64
	// Seed generates every input. Seconds is the measured window.
	Seed    int64
	Seconds float64
	// Traced selects the per-layer window: spans are recorded and the
	// daemon's job traces fetched. Untraced windows yield the
	// end-to-end metrics.
	Traced bool
	// Smoke shrinks every tier and rate so a window of about a second
	// exercises each code path (tests only; the numbers mean nothing).
	Smoke bool
	// Oracle judges answers; nil makes one without a verdict list.
	Oracle *Oracle
	// RateScale multiplies an open loop's calibrated arrival rate. Only
	// the non-gated sweep sets it; 0 means 1.
	RateScale float64

	// rec is the run's span recorder (nil when untraced). It exists
	// before set-up so the spans of input generation are kept too.
	rec *trace.Recorder
}

// Result is what one run measured.
type Result struct {
	report.Window
	// Families summarizes verdict latency per instance family
	// (kind/family), the view used to calibrate a mix: it shows which
	// family sits at which percentile.
	Families map[string]report.Summary
	// Trace is the recorder of a traced run.
	Trace *trace.Recorder
}

// sample is one measured operation.
type sample struct {
	kind, family string
	// latMS runs from when the operation was due to its answer; rtMS
	// from when it was actually sent.
	latMS, rtMS float64
	outcome     Outcome
	status      httpStatus
	// Serve workloads.
	cached, forwarded bool
	workers           int
	conflicts         int64
	// Traced serve jobs whose daemon trace was fetched.
	traced    bool
	serverMS  float64
	phases    map[string]float64
	certifyMS float64
	solverCPU map[string]float64
	// Certified jobs.
	proved                       bool
	dratBytes, lemmas, deletions int
	// In-process solves.
	solve *solveStats
}

func (s *sample) failed() bool {
	return s.status != httpOK || s.outcome == Wrong || s.outcome == Undecided
}

// window is the raw material of one measured window.
type window struct {
	elapsed float64 // seconds
	samples []sample
	// limitMS is the open-loop latency limit (0 = closed loop: every
	// verdict counts); lagMS how late each request left.
	limitMS float64
	lagMS   []float64
	cpu     cpuSample // CPU spent during the window
	// fetchS is client time spent fetching daemon traces and proofs.
	fetchS float64
	// clientS is the client time the window offered: elapsed × clients
	// in a closed loop, the operations' time in flight in an open one.
	clientS float64
}

// runner is one workload.
type runner interface {
	// setup generates the inputs and boots what the workload talks to;
	// teardown undoes it. A run sets up several times to take the
	// median, so each setup starts from nothing.
	setup() error
	teardown()
	// instances reports how many inputs setup generated and how long
	// generation and encoding took.
	instances() (n int, genS float64)
	// warm runs unmeasured operations for d; measure runs the window.
	warm(d time.Duration)
	measure(d time.Duration) (*window, error)
	// layers adds the workload's own per-layer metrics and validity
	// findings after a traced window.
	layers(w *window, m map[string]float64) []string
	// validate returns violated workload contracts observable without
	// tracing.
	validate(w *window) []string
}

func newRunner(name string, o *Options) (runner, error) {
	switch name {
	case "solve_tier":
		return newSolveTier(o), nil
	case "serve_heavy", "serve_light", "serve_certified":
		if o.Satserved == "" {
			return nil, fmt.Errorf("%s needs the satserved binary", name)
		}
		return newServe(name, o), nil
	case "atpg_session":
		return newATPG(o), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, Names)
}

// setups is how many times a run sets up; setup_s is their median.
const setups = 3

// warmup is the unmeasured lead-in before the window.
const warmup = 1500 * time.Millisecond

// Run executes one workload once.
func Run(name string, o Options) (*Result, error) {
	if o.Oracle == nil {
		o.Oracle, _ = NewOracle("")
	}
	o.Oracle = o.Oracle.fork()
	if o.Seconds <= 0 {
		return nil, fmt.Errorf("window of %v seconds", o.Seconds)
	}
	seed := o.Seed
	o.Seed = deriveSeed(seed, name)
	dir, err := os.MkdirTemp(o.WorkDir, name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	o.WorkDir = dir
	if o.Traced {
		o.rec = trace.New()
	}

	r, err := newRunner(name, &o)
	if err != nil {
		return nil, err
	}
	var setupS []float64
	for i := 0; i < setups; i++ {
		if i > 0 {
			r.teardown()
		}
		start := time.Now()
		if err := r.setup(); err != nil {
			r.teardown()
			return nil, fmt.Errorf("%s: set-up: %w", name, err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer r.teardown()

	warm, win := warmup, time.Duration(o.Seconds*float64(time.Second))
	if o.Smoke {
		warm = 200 * time.Millisecond
	}
	r.warm(warm)
	w, err := r.measure(win)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}

	res := &Result{Trace: o.rec}
	res.Workload, res.Seed, res.Seconds, res.Traced = name, seed, o.Seconds, o.Traced
	res.Attempted = len(w.samples)
	for i := range w.samples {
		if smp := &w.samples[i]; smp.failed() {
			res.Failed++
		} else if w.limitMS > 0 && smp.latMS > w.limitMS {
			res.Late++
		}
	}
	res.Wrong = o.Oracle.WrongVerdicts()
	res.Correct = len(res.Wrong) == 0
	res.Invalid = r.validate(w)
	// Smoke inputs are too small for the workload contracts to mean
	// anything; only an empty window still counts.
	defer func() {
		if o.Smoke {
			res.Invalid = nil
		}
		if res.Attempted == 0 {
			res.Invalid = append(res.Invalid, "no operation completed in the window")
		}
	}()

	res.Families = map[string]report.Summary{}
	for fam, ms := range latenciesBy(w, func(s *sample) string { return s.kind + "/" + s.family }) {
		res.Families[fam] = report.Summarize(ms)
	}

	e2e := endToEnd(w, report.Median(setupS))
	if !o.Traced {
		res.Metrics = e2e
		if lag := report.Percentile(w.lagMS, 90); lag > 0.1*e2e["verdict_p50_ms"] {
			res.Invalid = append(res.Invalid, fmt.Sprintf("generator ran late: schedule lag p90 %.2f ms exceeds 10%% of verdict_p50_ms %.2f", lag, e2e["verdict_p50_ms"]))
		}
		return res, nil
	}

	m := map[string]float64{}
	n, genS := r.instances()
	m["gen.instances"] = float64(n)
	m["gen.build_s"] = genS
	m["client.build_s"] = o.BuildS
	m["client.verdicts_per_s"] = e2e["verdicts_per_s"]
	lat := latencies(w)
	sum := report.Summarize(lat)
	m["client.p95_ms"], m["client.p99_ms"] = sum.P95, sum.P99
	m["client.schedule_lag_ms_p90"] = report.Percentile(w.lagMS, 90)
	m["client.failed_share"] = float64(res.Failed) / float64(max(res.Attempted, 1))
	m["oracle.unchecked_unsat"] = float64(o.Oracle.Unchecked())
	m["proc.cpu_user_s"], m["proc.cpu_sys_s"] = w.cpu.user, w.cpu.sys
	spans := o.rec.Spans()
	if w.clientS > 0 {
		m["trace.overhead_share"] = (w.fetchS + float64(len(spans))*spanCostS) / w.clientS
	}
	for kind, ms := range latenciesBy(w, func(s *sample) string { return s.kind }) {
		m["kind."+kind+"_p50_ms"] = report.Median(ms)
	}
	cnfLayer(spans, m)
	res.Invalid = append(res.Invalid, r.layers(w, m)...)
	// Every per-layer metric is reported, 0 where the workload does not
	// exercise it, and nothing else.
	res.Metrics = make(map[string]float64, len(PerLayer))
	for _, name := range PerLayerNames() {
		res.Metrics[name] = m[name]
	}
	return res, nil
}

// spanCostS is the client time one recorded span costs: two clock
// reads and a locked append, measured at about 0.2 µs and charged at
// 1 µs so the tracing overhead is never understated.
const spanCostS = 1e-6

// verdict reports whether the sample is a correct, decided answer.
func (s *sample) verdict() bool { return !s.failed() }

// latencies lists the latency of every verdict in the window.
func latencies(w *window) []float64 {
	out := make([]float64, 0, len(w.samples))
	for i := range w.samples {
		if w.samples[i].verdict() {
			out = append(out, w.samples[i].latMS)
		}
	}
	return out
}

// latenciesBy groups the window's verdict latencies by key.
func latenciesBy(w *window, key func(*sample) string) map[string][]float64 {
	out := map[string][]float64{}
	for i := range w.samples {
		if s := &w.samples[i]; s.verdict() {
			out[key(s)] = append(out[key(s)], s.latMS)
		}
	}
	return out
}

// endToEnd computes the end-to-end metrics of a window.
func endToEnd(w *window, setupS float64) map[string]float64 {
	lat := latencies(w)
	good := 0
	for _, ms := range lat {
		if w.limitMS == 0 || ms <= w.limitMS {
			good++
		}
	}
	m := map[string]float64{
		"setup_s":        setupS,
		"verdict_p50_ms": report.Percentile(lat, 50),
		"verdict_p90_ms": report.Percentile(lat, 90),
	}
	if w.elapsed > 0 {
		m["verdicts_per_s"] = float64(good) / w.elapsed
	}
	if len(lat) > 0 {
		m["cpu_s_per_verdict"] = (w.cpu.user + w.cpu.sys) / float64(len(lat))
	}
	return m
}

// spansNamed returns the total duration (seconds), total work and
// per-span durations (ms) of the spans called name.
func spansNamed(spans []trace.Span, name string) (totalS, work float64, ms []float64) {
	for _, s := range spans {
		if s.Name == name {
			d := s.Dur().Seconds()
			totalS += d
			work += s.N
			ms = append(ms, d*1000)
		}
	}
	return totalS, work, ms
}

// cnfLayer derives the cnf layer's rates from whatever cnf.* spans the
// run recorded: the benchmark parses, serializes and fingerprints
// formulas itself while generating and checking inputs.
func cnfLayer(spans []trace.Span, m map[string]float64) {
	const mb = 1 << 20
	if s, bytes, _ := spansNamed(spans, "cnf.parse"); s > 0 {
		m["cnf.parse_mb_per_s"] = bytes / mb / s
	}
	if s, bytes, _ := spansNamed(spans, "cnf.serialize"); s > 0 {
		m["cnf.serialize_mb_per_s"] = bytes / mb / s
	}
	if s, bytes, _ := spansNamed(spans, "cnf.fingerprint"); bytes > 0 {
		m["cnf.fingerprint_ms_per_mb"] = s * 1000 / (bytes / mb)
	}
}
