package cnf

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

// FuzzDIMACS feeds arbitrary bytes to the DIMACS parser. The properties
// pinned down:
//
//  1. ParseDIMACS never panics — malformed input is rejected with an
//     error, nothing else.
//  2. Anything the parser accepts round-trips: serializing the parsed
//     formula with WriteDIMACS and reparsing yields the identical
//     formula (clauses are stored as given, no normalization).
//
// The seed corpus under testdata/fuzz/FuzzDIMACS covers headers,
// comments, clauses split across lines, empty clauses and the
// MaxDIMACSVar overflow guard.
func FuzzDIMACS(f *testing.F) {
	for _, s := range []string{
		"p cnf 3 2\n1 -2 0\n2 3 0\n",
		"c comment line\np cnf 2 1\n1 2 0\n",
		"1 -1 0\n",                         // no header: vars grown from literals
		"p cnf 0 0\n",                      // empty formula
		"p cnf 4 2\n1 2\n3 0 4 -1 0\n",     // clause split across lines, two clauses on one
		"% terminator style\n0\n",          // empty clause
		"p cnf 536870911 1\n536870911 0\n", // exactly MaxDIMACSVar
		"p cnf 2 1\n536870912 0\n",         // one past the bound: must be rejected
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			t.Skip("oversized input")
		}
		f1, err := ParseDIMACS(bytes.NewReader(data))
		if err != nil {
			return // rejecting malformed input is the correct outcome
		}
		for _, c := range f1.Clauses {
			for _, l := range c {
				if l.IsUndef() || l.Var() <= 0 || int(l.Var()) > f1.NumVars() {
					t.Fatalf("parser accepted out-of-range literal %v (numVars %d)", l, f1.NumVars())
				}
			}
		}
		out := DIMACSString(f1)
		f2, err := ParseDIMACSString(out)
		if err != nil {
			t.Fatalf("round-trip reparse failed: %v\nserialized:\n%s", err, out)
		}
		if f2.NumVars() != f1.NumVars() {
			t.Fatalf("round-trip changed NumVars: %d -> %d", f1.NumVars(), f2.NumVars())
		}
		if f2.NumClauses() != f1.NumClauses() {
			t.Fatalf("round-trip changed NumClauses: %d -> %d", f1.NumClauses(), f2.NumClauses())
		}
		for i := range f1.Clauses {
			a, b := f1.Clauses[i], f2.Clauses[i]
			if len(a) != len(b) {
				t.Fatalf("round-trip changed clause %d length: %v -> %v", i, a, b)
			}
			for j := range a {
				if a[j] != b[j] {
					t.Fatalf("round-trip changed clause %d: %v -> %v", i, a, b)
				}
			}
		}
	})
}

// FuzzParseDIMACSReference checks the byte-level scanner against the
// line-based reference parser it replaced (reference_test.go): the same
// error text, the same formula — clause order, literal order, variable
// count — and the same fingerprint and serialization from the current
// code as from the reference algorithms. Inputs that hit the one
// documented difference, a byte outside ASCII on a non-comment line,
// are skipped.
func FuzzParseDIMACSReference(f *testing.F) {
	for _, s := range []string{
		"p cnf 3 2\n1 -2 0\n2 3 0\n",
		"c comment line\np cnf 2 1\n1 2 0\n",
		"c caf\xc3\xa9 \xff comments may hold any bytes\n1 0\n",
		"p cnf 4 2\r\n1 2\r\n3 0 4 -1 0\r\n",
		"\t\v\f 1\t-2 \r0\n  % tail\n",
		"+1 -0 00 0007 -0008 0\n",
		"p  cnf\t3   -7\n1 0\n",
		"p cnf 3\n",
		"pcnf 3 2\n",
		"p cnf 3 99999999999999999999\n",
		"p cnf -1 0\n",
		"1 2 c\n",
		"1 - 2 0\n",
		"1-2 0\n",
		"99999999999999999999 0\n",
		"0000000000000000000000000001 0\n",
		"536870911 -536870911 0\n",
		"-536870912 0\n",
		"1 2",
		"0 0 0\n\n\n0",
		"1 \xc2\xa02 0\n",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			t.Skip("oversized input")
		}
		got, err := ParseDIMACS(bytes.NewReader(data))
		if err != nil && strings.Contains(err.Error(), "non-ASCII byte") {
			t.Skip("non-ASCII byte outside a comment: rejected by design")
		}
		want, werr := parseDIMACSReference(bytes.NewReader(data))
		if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
			t.Fatalf("error %v, reference error %v", err, werr)
		}
		fromString, serr := ParseDIMACSString(string(data))
		if (err == nil) != (serr == nil) || (err != nil && err.Error() != serr.Error()) {
			t.Fatalf("ParseDIMACS error %v, ParseDIMACSString error %v", err, serr)
		}
		if err != nil {
			return
		}
		for _, g := range []*Formula{got, fromString} {
			if g.NumVars() != want.NumVars() || len(g.Clauses) != len(want.Clauses) {
				t.Fatalf("%s, reference %s", g, want)
			}
			for i, c := range g.Clauses {
				if !slices.Equal(c, want.Clauses[i]) || (c == nil) != (want.Clauses[i] == nil) {
					t.Fatalf("clause %d is %v, reference %v", i, c, want.Clauses[i])
				}
				if cap(c) != len(c) {
					t.Fatalf("clause %d has capacity %d past its length %d", i, cap(c), len(c))
				}
			}
		}
		if fp, ref := FormulaFingerprint(got), fingerprintReference(want); fp != ref {
			t.Fatalf("fingerprint %s, reference %s", fp, ref)
		}
		var ref bytes.Buffer
		if err := writeDIMACSReference(&ref, want); err != nil {
			t.Fatal(err)
		}
		if out := DIMACSString(got); out != ref.String() {
			t.Fatalf("serialized %q, reference %q", out, ref.String())
		}
	})
}
