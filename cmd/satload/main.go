// Command satload is the SLO load harness: it drives a satserved
// instance (or fleet) with a scenario of mixed job kinds at a
// controlled arrival rate, measures client-observed latency per kind,
// harvests per-phase attribution from each job's trace
// (/v1/jobs/{id}/trace), and writes a slogate.Report (BENCH_serve.json
// in CI) that cmd/slogate gates against the committed SLOs.
//
// Usage:
//
//	satload -addr http://127.0.0.1:8080[,http://127.0.0.1:8081] \
//	        -scenario mixed -rate 20 -duration 30s -out BENCH_serve.json
//
// Scenarios: mixed (default), dimacs, cec, bmc, session, batch.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/obs/slogate"
)

// counterBench is a 3-bit binary counter whose bad output first fires
// at depth 7 — a small but non-trivial BMC workload.
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

// spec mirrors the serve.Spec JSON shape (the harness speaks the wire
// format, not the server's internal types).
type spec struct {
	Kind   string `json:"kind"`
	DIMACS string `json:"dimacs,omitempty"`
	Left   string `json:"left,omitempty"`
	Right  string `json:"right,omitempty"`
	Model  string `json:"model,omitempty"`
	Depth  int    `json:"depth,omitempty"`
}

type jobView struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	Result *struct {
		Verdict string `json:"verdict"`
		Decided bool   `json:"decided"`
	} `json:"result"`
}

// collector accumulates thread-safe latency samples and op outcomes.
type collector struct {
	mu     sync.Mutex
	ops    slogate.Ops
	kinds  map[string][]float64
	phases map[string][]float64
}

func newCollector() *collector {
	return &collector{kinds: map[string][]float64{}, phases: map[string][]float64{}}
}

func (c *collector) submitted() { c.mu.Lock(); c.ops.Submitted++; c.mu.Unlock() }

func (c *collector) completed(kind string, latMS float64) {
	c.mu.Lock()
	c.ops.Completed++
	c.kinds[kind] = append(c.kinds[kind], latMS)
	c.mu.Unlock()
}

func (c *collector) shed()    { c.mu.Lock(); c.ops.Shed++; c.mu.Unlock() }
func (c *collector) failed()  { c.mu.Lock(); c.ops.Failed++; c.mu.Unlock() }
func (c *collector) errored() { c.mu.Lock(); c.ops.Errors++; c.mu.Unlock() }

func (c *collector) phase(name string, ms float64) {
	c.mu.Lock()
	c.phases[name] = append(c.phases[name], ms)
	c.mu.Unlock()
}

func (c *collector) report(scenario string, durationS, rate float64) *slogate.Report {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := &slogate.Report{
		Scenario: scenario, DurationS: durationS, TargetRate: rate,
		Ops:   c.ops,
		Kinds: map[string]slogate.Dist{}, Phases: map[string]slogate.Dist{},
	}
	for k, v := range c.kinds {
		r.Kinds[k] = slogate.Summarize(v)
	}
	for k, v := range c.phases {
		r.Phases[k] = slogate.Summarize(v)
	}
	return r
}

// loader owns the HTTP side of one run.
type loader struct {
	client *http.Client
	addrs  []string
	next   atomic.Int64
	col    *collector
	seed   atomic.Int64

	// sessions maps a base URL to its pre-created session ID (session
	// scenario only).
	sessions map[string]string
}

func (l *loader) addr() string {
	return l.addrs[int(l.next.Add(1))%len(l.addrs)]
}

func (l *loader) nextSeed() int64 { return l.seed.Add(1) }

// post sends one JSON body and returns the response with its body read.
func (l *loader) post(url string, body any) (int, []byte, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return 0, nil, err
	}
	resp, err := l.client.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// runJob submits one job synchronously, records its latency under
// kind, and harvests the per-phase attribution from its trace.
func (l *loader) runJob(kind string, sp spec) {
	l.col.submitted()
	base := l.addr()
	start := time.Now()
	code, body, err := l.post(base+"/v1/jobs", sp) // spec fields inline: submitRequest embeds Spec
	latMS := float64(time.Since(start).Microseconds()) / 1000
	switch {
	case err != nil:
		l.col.errored()
		return
	case code == http.StatusTooManyRequests:
		l.col.shed()
		return
	case code != http.StatusOK:
		l.col.failed()
		return
	}
	var v jobView
	if json.Unmarshal(body, &v) != nil || v.Result == nil || !v.Result.Decided {
		l.col.failed()
		return
	}
	l.col.completed(kind, latMS)
	l.harvestTrace(base, v.ID)
}

// harvestTrace attributes one completed job's latency to its lifecycle
// phases via the trace endpoint.
func (l *loader) harvestTrace(base, id string) {
	resp, err := l.client.Get(base + "/v1/jobs/" + id + "/trace")
	if err != nil {
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return
	}
	var tv obs.View
	if json.NewDecoder(resp.Body).Decode(&tv) != nil {
		return
	}
	for name, us := range tv.PhaseTotals() {
		l.col.phase(name, float64(us)/1000)
	}
}

func (l *loader) dimacsOp(rng *rand.Rand) {
	var f *cnf.Formula
	switch rng.Intn(3) {
	case 0:
		f = gen.RandomKSAT(40, 160, 3, l.nextSeed()) // under-constrained, SAT
	case 1:
		f = gen.XorChain(14, true, l.nextSeed()) // UNSAT xor chain
	default:
		f = gen.Pigeonhole(5) // small UNSAT with real search
	}
	l.runJob("dimacs", spec{Kind: "dimacs", DIMACS: cnf.DIMACSString(f)})
}

func (l *loader) cecOp(rng *rand.Rand) {
	n := 3 + rng.Intn(3)
	left, err1 := circuit.BenchString(circuit.RippleCarryAdder(n), nil)
	right, err2 := circuit.BenchString(circuit.CarrySkipAdder(n, 2), nil)
	if err1 != nil || err2 != nil {
		l.col.errored()
		return
	}
	l.runJob("cec", spec{Kind: "cec", Left: left, Right: right})
}

func (l *loader) bmcOp(rng *rand.Rand) {
	l.runJob("bmc", spec{Kind: "bmc", Model: counterBench, Depth: 5 + rng.Intn(4)})
}

func (l *loader) batchOp(rng *rand.Rand) {
	l.col.submitted()
	items := make([]spec, 0, 4)
	for i := 0; i < 4; i++ {
		f := gen.RandomKSAT(30, 120, 3, l.nextSeed())
		items = append(items, spec{Kind: "dimacs", DIMACS: cnf.DIMACSString(f)})
	}
	buf, _ := json.Marshal(map[string]any{"items": items})
	start := time.Now()
	resp, err := l.client.Post(l.addr()+"/v1/jobs/batch", "application/json", bytes.NewReader(buf))
	if err != nil {
		l.col.errored()
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests {
		io.Copy(io.Discard, resp.Body)
		l.col.shed()
		return
	}
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		l.col.failed()
		return
	}
	// Drain the NDJSON stream; the batch completes when the last item
	// line arrives.
	lines := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			lines++
		}
	}
	latMS := float64(time.Since(start).Microseconds()) / 1000
	if sc.Err() != nil || lines < len(items) {
		l.col.failed()
		return
	}
	l.col.completed("batch", latMS)
}

// ensureSession lazily creates one resident session per base URL.
func (l *loader) ensureSession(base string) (string, error) {
	if id, ok := l.sessions[base]; ok {
		return id, nil
	}
	f := gen.RandomKSAT(50, 180, 3, 42)
	code, body, err := l.post(base+"/v1/sessions", map[string]string{"dimacs": cnf.DIMACSString(f)})
	if err != nil {
		return "", err
	}
	if code != http.StatusCreated && code != http.StatusOK {
		return "", fmt.Errorf("session create: status %d", code)
	}
	var info struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &info); err != nil || info.ID == "" {
		return "", fmt.Errorf("session create: bad body %q", body)
	}
	l.sessions[base] = info.ID
	return info.ID, nil
}

func (l *loader) sessionOp(rng *rand.Rand, mu *sync.Mutex) {
	l.col.submitted()
	base := l.addr()
	mu.Lock()
	id, err := l.ensureSession(base)
	mu.Unlock()
	if err != nil {
		l.col.errored()
		return
	}
	assume := []int{}
	for v := 1 + rng.Intn(45); len(assume) < 3; v = 1 + rng.Intn(45) {
		lit := v
		if rng.Intn(2) == 0 {
			lit = -v
		}
		assume = append(assume, lit)
	}
	start := time.Now()
	code, body, err := l.post(base+"/v1/sessions/"+id+"/query",
		map[string]any{"assume": assume, "max_conflicts": 20000})
	latMS := float64(time.Since(start).Microseconds()) / 1000
	switch {
	case err != nil:
		l.col.errored()
	case code == http.StatusTooManyRequests:
		l.col.shed()
	case code != http.StatusOK:
		l.col.failed()
	default:
		var res struct {
			Verdict string `json:"verdict"`
		}
		if json.Unmarshal(body, &res) != nil || res.Verdict == "" {
			l.col.failed()
			return
		}
		l.col.completed("session", latMS)
		l.col.phase("session_query", latMS)
	}
}

func main() {
	var (
		addrFlag = flag.String("addr", "http://127.0.0.1:8080", "comma-separated satserved base URLs")
		scenario = flag.String("scenario", "mixed", "workload: mixed|dimacs|cec|bmc|session|batch")
		rate     = flag.Float64("rate", 20, "target arrival rate (ops/sec)")
		duration = flag.Duration("duration", 30*time.Second, "run length")
		seed     = flag.Int64("seed", 1, "workload seed")
		out      = flag.String("out", "", "report path (empty = stdout)")
	)
	flag.Parse()

	addrs := []string{}
	for _, a := range strings.Split(*addrFlag, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, strings.TrimRight(a, "/"))
		}
	}
	if len(addrs) == 0 || *rate <= 0 {
		fmt.Fprintln(os.Stderr, "satload: need at least one -addr and a positive -rate")
		os.Exit(2)
	}

	l := &loader{
		client:   &http.Client{Timeout: 60 * time.Second},
		addrs:    addrs,
		col:      newCollector(),
		sessions: map[string]string{},
	}
	l.seed.Store(*seed << 20)

	rng := rand.New(rand.NewSource(*seed))
	var sessMu sync.Mutex
	dispatch := func(op string, r *rand.Rand) {
		switch op {
		case "dimacs":
			l.dimacsOp(r)
		case "cec":
			l.cecOp(r)
		case "bmc":
			l.bmcOp(r)
		case "session":
			l.sessionOp(r, &sessMu)
		case "batch":
			l.batchOp(r)
		}
	}
	// The mixed scenario leans on dimacs (the dominant production
	// kind) with the other kinds riding along.
	mixed := []string{"dimacs", "dimacs", "dimacs", "cec", "bmc", "session", "dimacs", "batch"}

	interval := time.Duration(float64(time.Second) / *rate)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	stop := time.After(*duration)
	var wg sync.WaitGroup
	sem := make(chan struct{}, 64) // bound in-flight ops so a stall sheds client-side instead of leaking goroutines
	start := time.Now()
	i := 0
loop:
	for {
		select {
		case <-stop:
			break loop
		case <-ticker.C:
			op := *scenario
			if op == "mixed" {
				op = mixed[i%len(mixed)]
			}
			i++
			opSeed := rng.Int63()
			select {
			case sem <- struct{}{}:
			default:
				l.col.submitted()
				l.col.shed() // client-side backpressure counts as shed load
				continue
			}
			wg.Add(1)
			go func(op string, s int64) {
				defer wg.Done()
				defer func() { <-sem }()
				dispatch(op, rand.New(rand.NewSource(s)))
			}(op, opSeed)
		}
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	r := l.col.report(*scenario, elapsed, *rate)
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "satload:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if *out == "" || *out == "-" {
		os.Stdout.Write(buf)
	} else if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "satload:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr,
		"satload: scenario=%s %.1fs submitted=%d completed=%d failed=%d shed=%d errors=%d\n",
		r.Scenario, r.DurationS, r.Ops.Submitted, r.Ops.Completed, r.Ops.Failed, r.Ops.Shed, r.Ops.Errors)
	for name, d := range r.Kinds {
		fmt.Fprintf(os.Stderr, "  kind %-8s n=%-4d p50=%.1fms p95=%.1fms p99=%.1fms\n",
			name, d.Count, d.P50MS, d.P95MS, d.P99MS)
	}
}
