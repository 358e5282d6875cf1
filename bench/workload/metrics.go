package workload

import "repro/bench/report"

// Def names one metric as BENCHMARK.json lists it.
type Def = report.Def

// EndToEnd lists the end-to-end metrics. Bounds live in BENCHMARK.json,
// which a test holds equal to this table in names, units and direction.
var EndToEnd = []Def{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "verdicts_per_s", Unit: "1/s", Better: "higher"},
	{Name: "verdict_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "verdict_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "cpu_s_per_verdict", Unit: "s", Better: "lower"},
}

// PerLayer lists the per-layer metrics, grouped by the module they
// attribute to. A metric a workload does not exercise reads 0 there.
var PerLayer = []Def{
	// cnf
	{Name: "cnf.parse_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "cnf.fingerprint_ms_per_mb", Unit: "ms/MB", Better: "lower"},
	{Name: "cnf.serialize_mb_per_s", Unit: "MB/s", Better: "higher"},
	// gen / circuit (set-up)
	{Name: "gen.instances", Unit: "count", Better: "higher"},
	{Name: "gen.build_s", Unit: "s", Better: "lower"},
	// solver: exact counts
	{Name: "solver.conflicts", Unit: "count", Better: "lower"},
	{Name: "solver.decisions", Unit: "count", Better: "lower"},
	{Name: "solver.propagations", Unit: "count", Better: "lower"},
	{Name: "solver.restarts", Unit: "count", Better: "lower"},
	{Name: "solver.learned", Unit: "count", Better: "lower"},
	{Name: "solver.deleted", Unit: "count", Better: "lower"},
	{Name: "solver.arena_gcs", Unit: "count", Better: "lower"},
	{Name: "solver.signature_crc", Unit: "crc32", Better: "lower"},
	// solver: rates, shares, memory, families
	{Name: "solver.props_per_s", Unit: "1/s", Better: "higher"},
	{Name: "solver.ns_per_conflict", Unit: "ns", Better: "lower"},
	{Name: "solver.busy_s", Unit: "s", Better: "lower"},
	{Name: "solver.load_ms", Unit: "ms", Better: "lower"},
	{Name: "solver.share_propagate", Unit: "ratio", Better: "lower"},
	{Name: "solver.share_analyze", Unit: "ratio", Better: "lower"},
	{Name: "solver.share_reduce_db", Unit: "ratio", Better: "lower"},
	{Name: "solver.share_inprocess", Unit: "ratio", Better: "lower"},
	{Name: "solver.share_arena_gc", Unit: "ratio", Better: "lower"},
	{Name: "solver.share_other", Unit: "ratio", Better: "lower"},
	{Name: "solver.allocs_per_verdict", Unit: "count", Better: "lower"},
	{Name: "solver.alloc_kb_per_verdict", Unit: "KB", Better: "lower"},
	{Name: "solver.rand_sat_ms", Unit: "ms", Better: "lower"},
	{Name: "solver.rand_unsat_ms", Unit: "ms", Better: "lower"},
	{Name: "solver.php_ms", Unit: "ms", Better: "lower"},
	{Name: "solver.miter_ms", Unit: "ms", Better: "lower"},
	{Name: "solver.structured_sat_ms", Unit: "ms", Better: "lower"},
	// proof
	{Name: "proof.verify_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "proof.verify_lemmas_per_s", Unit: "1/s", Better: "higher"},
	{Name: "proof.certify_share", Unit: "ratio", Better: "lower"},
	{Name: "proof.drat_kb_per_verdict", Unit: "KB", Better: "lower"},
	{Name: "proof.deletion_share", Unit: "ratio", Better: "higher"},
	{Name: "proof.replays", Unit: "count", Better: "lower"},
	{Name: "proof.failures", Unit: "count", Better: "lower"},
	{Name: "audit.records", Unit: "count", Better: "higher"},
	// portfolio
	{Name: "portfolio.workers_mean", Unit: "count", Better: "lower"},
	{Name: "portfolio.conflicts_per_verdict", Unit: "count", Better: "lower"},
	{Name: "portfolio.multi_worker_share", Unit: "ratio", Better: "lower"},
	// job kinds
	{Name: "kind.dimacs_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "kind.cec_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "kind.bmc_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "kind.batch_p50_ms", Unit: "ms", Better: "lower"},
	// serve
	{Name: "serve.parse_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.queue_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.queue_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "serve.admit_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.solve_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.solve_share", Unit: "ratio", Better: "higher"},
	{Name: "serve.persist_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.respond_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.coalesce_wait_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.overhead_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.submitted", Unit: "count", Better: "higher"},
	{Name: "serve.completed", Unit: "count", Better: "higher"},
	{Name: "serve.shed", Unit: "count", Better: "lower"},
	{Name: "serve.solves", Unit: "count", Better: "lower"},
	{Name: "serve.cache_hit_share", Unit: "ratio", Better: "higher"},
	{Name: "serve.coalesced_share", Unit: "ratio", Better: "higher"},
	{Name: "serve.cache_evictions", Unit: "count", Better: "lower"},
	// fleet
	{Name: "fleet.forward_share", Unit: "ratio", Better: "lower"},
	{Name: "fleet.forward_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "fleet.forward_errors", Unit: "count", Better: "lower"},
	{Name: "fleet.local_fallbacks", Unit: "count", Better: "lower"},
	// store
	{Name: "store.writes", Unit: "count", Better: "lower"},
	{Name: "store.wal_kb", Unit: "KB", Better: "lower"},
	{Name: "store.compactions", Unit: "count", Better: "lower"},
	{Name: "store.dropped", Unit: "count", Better: "lower"},
	{Name: "store.errors", Unit: "count", Better: "lower"},
	{Name: "store.replay_ms", Unit: "ms", Better: "lower"},
	{Name: "store.put_us_sync1", Unit: "us", Better: "lower"},
	{Name: "store.put_us_sync16", Unit: "us", Better: "lower"},
	{Name: "store.put_us_nosync", Unit: "us", Better: "lower"},
	// session / atpg
	{Name: "session.open_ms", Unit: "ms", Better: "lower"},
	{Name: "session.query_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "session.query_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "session.wait_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "session.queries", Unit: "count", Better: "higher"},
	{Name: "session.evictions", Unit: "count", Better: "lower"},
	{Name: "session.revivals", Unit: "count", Better: "lower"},
	{Name: "session.checkpoint_kb", Unit: "KB", Better: "lower"},
	{Name: "atpg.faults", Unit: "count", Better: "higher"},
	{Name: "atpg.coverage", Unit: "ratio", Better: "higher"},
	{Name: "atpg.aborted", Unit: "count", Better: "lower"},
	{Name: "atpg.oneshot_faults_per_s", Unit: "1/s", Better: "higher"},
	// client / process / tracing / oracle
	{Name: "client.schedule_lag_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "client.p95_ms", Unit: "ms", Better: "lower"},
	{Name: "client.p99_ms", Unit: "ms", Better: "lower"},
	{Name: "client.verdicts_per_s", Unit: "1/s", Better: "higher"},
	{Name: "client.failed_share", Unit: "ratio", Better: "lower"},
	{Name: "client.build_s", Unit: "s", Better: "lower"},
	{Name: "client.boot_ms", Unit: "ms", Better: "lower"},
	{Name: "proc.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "proc.cpu_user_s", Unit: "s", Better: "lower"},
	{Name: "proc.cpu_sys_s", Unit: "s", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "oracle.unchecked_unsat", Unit: "count", Better: "lower"},
}

// PerLayerNames lists the per-layer metric names in table order.
func PerLayerNames() []string {
	out := make([]string, len(PerLayer))
	for i, d := range PerLayer {
		out[i] = d.Name
	}
	return out
}

// Unit returns the unit of the named metric ("" when unknown).
func Unit(name string) string {
	for _, tbl := range [][]Def{EndToEnd, PerLayer} {
		for _, d := range tbl {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	return ""
}
