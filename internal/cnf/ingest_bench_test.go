package cnf

import (
	"io"
	"math/rand/v2"
	"strings"
	"testing"
)

// servedFormula is a random 3-SAT formula the size of the cached
// formulas in the benchmark's serve_light workload: 2 000 variables,
// 6 000 clauses, about 100 KB of DIMACS.
func servedFormula() *Formula {
	r := rand.New(rand.NewPCG(61, 3))
	f := New(2000)
	for range 6000 {
		var c Clause
		for len(c) < 3 {
			v := Var(1 + r.IntN(f.NumVars()))
			if !c.Has(PosLit(v)) && !c.Has(NegLit(v)) {
				c = append(c, NewLit(v, r.IntN(2) == 1))
			}
		}
		f.AddClause(c)
	}
	return f
}

func BenchmarkParseDIMACS(b *testing.B) {
	text := DIMACSString(servedFormula())
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := ParseDIMACSString(text); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFormulaFingerprint(b *testing.B) {
	f := servedFormula()
	b.SetBytes(int64(len(DIMACSString(f))))
	b.ReportAllocs()
	for b.Loop() {
		FormulaFingerprint(f)
	}
}

func BenchmarkWriteDIMACS(b *testing.B) {
	f := servedFormula()
	b.SetBytes(int64(len(DIMACSString(f))))
	b.ReportAllocs()
	for b.Loop() {
		if err := WriteDIMACS(io.Discard, f); err != nil {
			b.Fatal(err)
		}
	}
}

// TestParseDIMACSLongLine: the longest accepted line is the one the
// line-based reference parser could buffer, and one byte more fails the
// same way in both.
func TestParseDIMACSLongLine(t *testing.T) {
	for _, n := range []int{maxDIMACSLine - 1, maxDIMACSLine} {
		ln := "1" + strings.Repeat(" ", n-3) + " 0"
		got, err := ParseDIMACSString(ln + "\n")
		want, werr := parseDIMACSReference(strings.NewReader(ln + "\n"))
		if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
			t.Fatalf("line of %d bytes: error %v, reference error %v", n, err, werr)
		}
		if err == nil && (got.NumClauses() != 1 || want.NumClauses() != 1) {
			t.Fatalf("line of %d bytes: %d clauses, reference %d", n, got.NumClauses(), want.NumClauses())
		}
		if (err == nil) != (n < maxDIMACSLine) {
			t.Fatalf("line of %d bytes: error %v", n, err)
		}
	}
}
