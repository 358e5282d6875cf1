package workload

import (
	"path/filepath"
	"testing"
)

// The smoke run drives every workload end to end on tiny inputs: real
// satserved children, real sessions, the oracle and the metric
// assembly. The numbers mean nothing; what is checked is that every
// operation is answered correctly and every metric comes out.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("boots satserved")
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	bin, took, err := BuildSatserved(root, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := NewOracle(filepath.Join(root, "bench", "testdata", "verdicts.json"))
	if err != nil {
		t.Fatal(err)
	}
	run := func(name string, traced bool) *Result {
		res, err := Run(name, Options{
			WorkDir: t.TempDir(), Satserved: bin, BuildS: took.Seconds(),
			Seed: 1, Seconds: 0.5, Traced: traced, Smoke: true, Oracle: oracle,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s traced=%v: attempted=%d failed=%d wrong=%v", name, traced, res.Attempted, res.Failed, res.Wrong)
		}
		return res
	}

	e2e := run("solve_tier", false)
	for _, d := range EndToEnd {
		if v, ok := e2e.Metrics[d.Name]; !ok || v <= 0 {
			t.Errorf("solve_tier: end-to-end metric %s = %v", d.Name, v)
		}
	}
	if len(e2e.Metrics) != len(EndToEnd) {
		t.Errorf("untraced window reports %d metrics, want the %d end-to-end ones", len(e2e.Metrics), len(EndToEnd))
	}

	// Per workload, the per-layer metrics that must be live there.
	live := map[string][]string{
		"solve_tier": {"cnf.parse_mb_per_s", "cnf.serialize_mb_per_s", "solver.conflicts", "solver.propagations",
			"solver.signature_crc", "solver.props_per_s", "solver.share_propagate", "solver.allocs_per_verdict",
			"solver.load_ms", "solver.php_ms", "solver.miter_ms", "solver.structured_sat_ms", "gen.instances"},
		"serve_heavy": {"serve.solve_share", "serve.parse_ms_p50", "serve.solve_ms_p50", "serve.submitted", "serve.solves",
			"kind.dimacs_p50_ms", "kind.cec_p50_ms", "kind.bmc_p50_ms", "portfolio.workers_mean", "store.writes",
			"client.boot_ms", "proc.peak_rss_mb", "serve.overhead_ms_p50"},
		"serve_light": {"serve.cache_hit_share", "fleet.forward_share", "kind.batch_p50_ms", "cnf.fingerprint_ms_per_mb",
			"store.put_us_sync1", "store.put_us_sync16", "store.put_us_nosync", "store.wal_kb"},
		"serve_certified": {"proof.certify_share", "proof.drat_kb_per_verdict", "proof.verify_ms_p50",
			"proof.verify_lemmas_per_s", "audit.records"},
		"atpg_session": {"session.queries", "session.query_ms_p50", "session.open_ms", "atpg.faults", "atpg.coverage",
			"atpg.oneshot_faults_per_s"},
	}
	for _, name := range Names {
		res := run(name, true)
		if len(res.Metrics) != len(PerLayer) {
			t.Errorf("%s: traced window reports %d metrics, want all %d per-layer ones", name, len(res.Metrics), len(PerLayer))
		}
		for _, m := range live[name] {
			if res.Metrics[m] <= 0 {
				t.Errorf("%s: per-layer metric %s = %v, want > 0", name, m, res.Metrics[m])
			}
		}
		if res.Trace == nil || len(res.Trace.Spans()) == 0 {
			t.Errorf("%s: traced window recorded no spans", name)
		}
		if name == "serve_heavy" && res.Metrics["serve.cache_hit_share"] != 0 {
			t.Errorf("serve_heavy: unique jobs hit the cache (share %v)", res.Metrics["serve.cache_hit_share"])
		}
		if name == "serve_light" && res.Metrics["serve.cache_hit_share"] < 0.8 {
			t.Errorf("serve_light: cache-hit share %v < 0.8", res.Metrics["serve.cache_hit_share"])
		}
	}
}
