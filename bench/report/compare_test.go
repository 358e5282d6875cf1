package report

import (
	"bytes"
	"strings"
	"testing"
)

func file(workload string, metric string, traced bool, vals ...float64) *File {
	f := &File{}
	for _, v := range vals {
		f.Runs = append(f.Runs, Run{Windows: []Window{{Workload: workload, Traced: traced, Metrics: map[string]float64{metric: v}}}})
	}
	return f
}

func TestJudge(t *testing.T) {
	lower := Def{Name: "verdict_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := Def{Name: "verdicts_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		name string
		d    Def
		a, b []float64
		want Verdict
	}{
		{"within bound", lower, []float64{100, 101, 99}, []float64{105, 106, 104}, Pass},
		{"better", lower, []float64{100, 101, 99}, []float64{50, 51, 49}, Pass},
		{"worse than bound", lower, []float64{100, 101, 99}, []float64{115, 116, 114}, Regressed},
		{"throughput fell", higher, []float64{100, 101, 99}, []float64{85, 86, 84}, Regressed},
		{"throughput rose", higher, []float64{100, 101, 99}, []float64{130, 131, 129}, Pass},
		{"noisy baseline", lower, []float64{100, 130, 80}, []float64{150, 151, 149}, Unresolved},
		{"noisy candidate", lower, []float64{100, 101, 99}, []float64{100, 140, 90}, Unresolved},
		{"one side empty", lower, nil, []float64{1}, Missing},
	} {
		if got := judge(c.d, c.a, c.b).Verdict; got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareTablesAndCounts(t *testing.T) {
	bm := &Benchmark{EndToEnd: []Def{{Name: "verdict_p50_ms", Unit: "ms", Better: "lower", Bound: 0.1}}}
	a := file("solve_tier", "verdict_p50_ms", false, 10, 10.1, 9.9)
	b := file("solve_tier", "verdict_p50_ms", false, 12, 12.1, 11.9)
	// Traced windows carry the exact counts: equal on A, one differs on B.
	for _, f := range []*File{a, b} {
		f.Runs = append(f.Runs, file("solve_tier", "solver.conflicts", true, 500, 500).Runs...)
	}
	b.Runs = append(b.Runs, file("solve_tier", "solver.decisions", true, 7, 8).Runs...)
	a.Runs = append(a.Runs, file("solve_tier", "solver.decisions", true, 7, 7).Runs...)

	rows, counts := Compare(bm, a, b)
	if len(rows) != 1 || rows[0].Verdict != Regressed {
		t.Fatalf("rows = %+v, want one REGRESSED", rows)
	}
	var buf bytes.Buffer
	regressed, differ := PrintComparison(&buf, rows, counts)
	if !regressed || !differ {
		t.Errorf("regressed=%v differ=%v, want both", regressed, differ)
	}
	out := buf.String()
	for _, want := range []string{"REGRESSED", "solver.conflicts", "IDENTICAL", "DIFFERS", "MISSING"} {
		if !strings.Contains(out, want) {
			t.Errorf("comparison output lacks %q:\n%s", want, out)
		}
	}
}
