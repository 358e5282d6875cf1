package workload

import (
	"regexp"
	"testing"

	"repro/bench/report"
)

// BENCHMARK.json is what the driver reads and these tables are what
// satbench prints; they must name the same metrics with the same units
// and directions, within the limits the driver's contract sets.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	bm, err := report.LoadBenchmark("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []report.Def, want []Def, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the table %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the table %+v", kind, i, g, w)
			}
			if bounded && (g.Bound <= 0 || g.Bound > 0.25) {
				t.Errorf("%s: bound %v outside (0, 0.25]", g.Name, g.Bound)
			}
			if !bounded && g.Bound != 0 {
				t.Errorf("%s: a per-layer metric carries no bound", g.Name)
			}
		}
	}
	check("end_to_end", bm.EndToEnd, EndToEnd, true)
	check("per_layer", bm.PerLayer, PerLayer, false)
	if len(bm.PerLayer) > 128 || len(bm.EndToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed the contract's 128 and 16", len(bm.PerLayer), len(bm.EndToEnd))
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]Def(nil), EndToEnd...), PerLayer...) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) {
			t.Errorf("metric %q unit %q breaks the naming rules", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
		if seen[d.Name] {
			t.Errorf("metric %s named twice", d.Name)
		}
		seen[d.Name] = true
	}
	if len(bm.Workloads) != len(Names) {
		t.Fatalf("BENCHMARK.json has %d workloads, satbench %d", len(bm.Workloads), len(Names))
	}
	for i, w := range bm.Workloads {
		if w.Name != Names[i] || len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %d: %q with a %d-character why", i, w.Name, len(w.Why))
		}
		if seen[w.Name] {
			t.Errorf("workload name %s is also a metric name", w.Name)
		}
	}
	if bm.RunSeconds < 1 || bm.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bm.RunSeconds)
	}
}
