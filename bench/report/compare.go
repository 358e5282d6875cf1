package report

import (
	"fmt"
	"io"
	"math"
	"text/tabwriter"
)

// Verdict is the outcome of comparing one metric on one workload.
type Verdict string

// Comparison verdicts.
const (
	// Pass: B's median is no worse than A's by more than the bound.
	Pass Verdict = "PASS"
	// Regressed: it is worse by more than the bound.
	Regressed Verdict = "REGRESSED"
	// Unresolved: the run-to-run spread of either side exceeds the
	// bound, so a difference of that size cannot be told from noise.
	Unresolved Verdict = "UNRESOLVED"
	// Missing: one side has no value.
	Missing Verdict = "MISSING"
)

// Row is one workload × metric comparison.
type Row struct {
	Workload, Metric, Unit string
	A, B                   float64 // medians
	SpreadA, SpreadB       float64
	// Worse is how much worse B's median is than A's, as a share of A's
	// (negative = better), taking the metric's direction into account.
	Worse   float64
	Bound   float64
	Verdict Verdict
}

// judge compares the samples of one metric.
func judge(d Def, a, b []float64) Row {
	r := Row{Metric: d.Name, Unit: d.Unit, Bound: d.Bound}
	if len(a) == 0 || len(b) == 0 {
		r.Verdict = Missing
		return r
	}
	r.A, r.B = Median(a), Median(b)
	r.SpreadA, r.SpreadB = Spread(a), Spread(b)
	if r.A != 0 {
		r.Worse = (r.B - r.A) / math.Abs(r.A)
		if d.Better == "higher" {
			r.Worse = -r.Worse
		}
	}
	switch {
	case r.SpreadA > d.Bound || r.SpreadB > d.Bound:
		r.Verdict = Unresolved
	case r.Worse > d.Bound:
		r.Verdict = Regressed
	default:
		r.Verdict = Pass
	}
	return r
}

// ExactCounts are the solver counters that must repeat exactly on
// solve_tier: the search is deterministic, so any difference between
// two runs of one commit is a bug, and between two commits it shows
// the change altered the search.
var ExactCounts = []string{
	"solver.conflicts", "solver.decisions", "solver.propagations", "solver.restarts",
	"solver.learned", "solver.deleted", "solver.arena_gcs", "solver.signature_crc",
}

// CountRow is one exact-count comparison.
type CountRow struct {
	Metric string
	A, B   []float64 // distinct values seen on each side
	Same   bool
}

func distinct(vs []float64) []float64 {
	var out []float64
	for _, v := range vs {
		dup := false
		for _, o := range out {
			dup = dup || o == v
		}
		if !dup {
			out = append(out, v)
		}
	}
	return out
}

// Compare judges report b against report a with the bounds of bm: every
// workload × end-to-end metric from the untraced windows, and the exact
// solver counts from solve_tier's traced windows.
func Compare(bm *Benchmark, a, b *File) ([]Row, []CountRow) {
	var rows []Row
	for _, wl := range a.Workloads() {
		for _, d := range bm.EndToEnd {
			r := judge(d, a.values(wl, d.Name, false), b.values(wl, d.Name, false))
			r.Workload = wl
			rows = append(rows, r)
		}
	}
	var counts []CountRow
	for _, name := range ExactCounts {
		c := CountRow{Metric: name,
			A: distinct(a.values("solve_tier", name, true)),
			B: distinct(b.values("solve_tier", name, true))}
		c.Same = len(c.A) == 1 && len(c.B) == 1 && c.A[0] == c.B[0]
		counts = append(counts, c)
	}
	return rows, counts
}

// PrintComparison renders rows and counts as tables and reports
// whether any metric regressed and whether any exact count differs (a
// bug between two runs of one commit; between two commits, the sign
// that the change altered the search).
func PrintComparison(w io.Writer, rows []Row, counts []CountRow) (regressed, countsDiffer bool) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median\tB median\tB worse by\tbound\tspread A\tspread B\tverdict")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%+.1f%%\t%.0f%%\t%.1f%%\t%.1f%%\t%s\n",
			r.Workload, r.Metric, r.Unit, r.A, r.B, 100*r.Worse, 100*r.Bound, 100*r.SpreadA, 100*r.SpreadB, r.Verdict)
		regressed = regressed || r.Verdict == Regressed
	}
	tw.Flush()
	fmt.Fprintln(w)
	tw = tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "solve_tier exact count\tA\tB\tverdict")
	for _, c := range counts {
		v := "IDENTICAL"
		if !c.Same {
			v = "DIFFERS"
			countsDiffer = true
		}
		if len(c.A) == 0 || len(c.B) == 0 {
			v = "MISSING"
		}
		fmt.Fprintf(tw, "%s\t%.0f\t%.0f\t%s\n", c.Metric, c.A, c.B, v)
	}
	tw.Flush()
	return regressed, countsDiffer
}
