package workload

import (
	"os"
	"strings"
	"testing"
)

// The scrape in testdata was captured from a two-replica serve_light
// run at this commit; every series the per-layer metrics read must
// parse out of it.
func TestParseMetricsAgainstCapturedScrape(t *testing.T) {
	f, err := os.Open("../testdata/metrics_scrape.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	m := ParseMetrics(f)
	for _, series := range []string{
		"satserved_jobs_submitted_total", "satserved_jobs_completed_total", "satserved_jobs_shed_total",
		"satserved_solves_total", "satserved_cache_hits_total", "satserved_coalesced_total",
		"satserved_cache_evictions_total", "satserved_proof_replays_total", "satserved_proof_check_failures_total",
		"satserved_audit_records", "satserved_store_writes_total", "satserved_store_wal_bytes",
		"satserved_store_compactions_total", "satserved_store_dropped_total", "satserved_store_errors_total",
		"satserved_store_replay_seconds", "satserved_fleet_forwards_total",
		"satserved_fleet_forward_errors_total", "satserved_fleet_local_fallbacks_total",
	} {
		if _, ok := m[series]; !ok {
			t.Errorf("series %s not parsed from the scrape", series)
		}
	}
	if m["satserved_jobs_submitted_total"] <= 0 || m["satserved_cache_hits_total"] <= 0 {
		t.Errorf("counters read %v submitted, %v hits: the capture was of a busy replica",
			m["satserved_jobs_submitted_total"], m["satserved_cache_hits_total"])
	}
	if m["satserved_fleet_members"] != 2 {
		t.Errorf("fleet members = %v, want 2", m["satserved_fleet_members"])
	}
	// Labelled series keep their labels in the key; histogram buckets
	// are cumulative, so +Inf equals the count.
	inf := m[`satserved_job_seconds_bucket{kind="dimacs",le="+Inf"}`]
	if inf <= 0 || inf != m[`satserved_job_seconds_count{kind="dimacs"}`] {
		t.Errorf("dimacs latency histogram: +Inf bucket %v, count %v", inf, m[`satserved_job_seconds_count{kind="dimacs"}`])
	}
}

func TestParseMetricsSkipsWhatIsNotASample(t *testing.T) {
	m := ParseMetrics(strings.NewReader(`# HELP x_total things
# TYPE x_total counter
x_total 3
# exemplar x_seconds_bucket{le="0.5"} trace_id="j9" 0.25
y{a="b c",d="e"} 1.5e-3

malformed
z{unterminated 4
nan_value NaN
`))
	if len(m) != 2 || m["x_total"] != 3 || m[`y{a="b c",d="e"}`] != 0.0015 {
		t.Errorf("parsed %v", m)
	}
}
