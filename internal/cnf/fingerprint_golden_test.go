package cnf

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// randomFormula draws nc clauses of 0..maxLen literals over nv
// variables from a fixed PCG stream: the same seed gives the same
// formula on every platform and Go release.
func randomFormula(seed uint64, nv, nc, maxLen int) *Formula {
	r := rand.New(rand.NewPCG(seed, 0x5eed))
	f := New(nv)
	for range nc {
		c := make(Clause, r.IntN(maxLen+1))
		for i := range c {
			c[i] = NewLit(Var(1+r.IntN(nv)), r.IntN(2) == 1)
		}
		f.AddClause(c)
	}
	return f
}

// fingerprintGolden pins FormulaFingerprint's value. The store's
// persisted results and the benchmark oracle's known-UNSAT table are
// keyed by it, so any change to the hashed bytes — order, framing,
// normalization — breaks every existing key. The hex values were
// recorded with the clause-sorting implementation (fingerprintReference).
var fingerprintGolden = []struct {
	name string
	f    func() *Formula
	want string
}{
	{"empty formula", func() *Formula { return New(0) }, "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc"},
	{"variables only", func() *Formula { return New(3) }, "35be322d094f9d154a8aba4733b8497f180353bd7ae7b0a15f90b586b549f28b"},
	{"empty clause", dimacs("p cnf 1 1\n0\n"), "4cbbd8ca5215b8d161aec181a74b694f4e24b001d5b081dc0030ed797a8973e0"},
	{"empty clause among others", dimacs("p cnf 3 3\n1 2 0\n0\n-3 0\n"), "2b8b2e57480f36a1e116bd30ccafe94979e68f11fda28e761264b9f8b6d1b268"},
	{"tautology only", dimacs("p cnf 1 1\n1 -1 0\n"), "7c9fa136d4413fa6173637e883b6998d32e1d675f88cddff9dcbcf331820f4b8"},
	{"tautologies dropped", dimacs("p cnf 3 3\n1 -1 0\n2 3 0\n3 -2 -3 0\n"), "d26c2e37abeccae23f37d403f2d213eae44b04a5c55321ac3138ffa81d5f8422"},
	{"duplicate literals and clauses", dimacs("p cnf 3 4\n1 1 2 0\n2 1 0\n3 0\n3 3 0\n"), "a922776649884a2205b625745f40b5235041aa6d30246d2443a50db98168f74f"},
	{"unit clauses", dimacs("p cnf 3 3\n1 0\n-2 0\n3 0\n"), "8cdb07d863db192baa29aea85e0b824e96ed5d172d9058edc57755dfa74bdeb0"},
	{"var count 5", dimacs("p cnf 5 1\n1 2 0\n"), "2b4d97e7b16d731a26da6d9f1d1acec191ae22b5e4d548e0ccf1465a4f321298"},
	{"var count 6", dimacs("p cnf 6 1\n1 2 0\n"), "79b4cbda6e7befc3dcda4325f6ed468c41e943ec9a3e9e103d967ddab5d4d3e7"},
	{"max var", dimacs("p cnf 536870911 2\n536870911 -1 0\n-536870911 0\n"), "1d62dd7ecc98b572be4460c7a187b965159c52aabf54095a7210954e2b5fc6e0"},
	{"shared prefixes", dimacs("p cnf 4 5\n1 2 3 0\n1 2 0\n1 2 -4 0\n1 0\n-1 2 0\n"), "394946b37c4c1775f85e78db2ebafaa70afdede482ff5749a0173db7c5e9e455"},
	{"random small", func() *Formula { return randomFormula(1, 20, 80, 4) }, "336c9140ef21d3a6165952e250e8546e8abb01a3fd7e784c883f88292a196d37"},
	{"random wide", func() *Formula { return randomFormula(2, 300, 900, 9) }, "7a4cd6338cbf6ebf2e4a0c565546540cff582f206c97470adbab2e241f512318"},
	{"random serve_light size", func() *Formula { return randomFormula(3, 2000, 6000, 3) }, "f78d814b73d7786b07c0c8d38d65948eee3cec1e90eb84254fa6d06ae3825009"},
}

func dimacs(s string) func() *Formula {
	return func() *Formula {
		f, err := ParseDIMACSString(s)
		if err != nil {
			panic(err)
		}
		return f
	}
}

func TestFingerprintGolden(t *testing.T) {
	for _, tc := range fingerprintGolden {
		if got := FormulaFingerprint(tc.f()).String(); got != tc.want {
			t.Errorf("%s: fingerprint %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestFingerprintPermutations: shuffling the clause list and the
// literals inside every clause, and repeating clauses, never moves the
// fingerprint.
func TestFingerprintPermutations(t *testing.T) {
	for seed := range uint64(20) {
		f := randomFormula(100+seed, 40, 150, 6)
		want := FormulaFingerprint(f)
		r := rand.New(rand.NewPCG(seed, 7))
		g := f.Clone()
		for _, c := range g.Clauses {
			r.Shuffle(len(c), func(i, j int) { c[i], c[j] = c[j], c[i] })
		}
		r.Shuffle(len(g.Clauses), func(i, j int) { g.Clauses[i], g.Clauses[j] = g.Clauses[j], g.Clauses[i] })
		g.Clauses = append(g.Clauses, slices.Clone(g.Clauses[:len(g.Clauses)/3])...)
		if got := FormulaFingerprint(g); got != want {
			t.Fatalf("seed %d: permuted formula fingerprints %s, want %s", seed, got, want)
		}
	}
}

// TestFingerprintMatchesReference compares FormulaFingerprint with the
// clause-sorting reference on formulas the parser never builds: short
// and long clauses sharing prefixes, and literal values anywhere in the
// int32 range, negative and LitUndef included, so the key's sign flip
// and its padding for short clauses are both exercised.
func TestFingerprintMatchesReference(t *testing.T) {
	for seed := range uint64(200) {
		r := rand.New(rand.NewPCG(seed, 11))
		pool := []Lit{LitUndef, 1, 2, 3, -1, -2, -1 << 31, 1<<31 - 1, Lit(r.Int32()), -Lit(r.Int32())}
		f := New(r.IntN(50))
		for range r.IntN(40) {
			c := make(Clause, r.IntN(5))
			for i := range c {
				c[i] = pool[r.IntN(len(pool))]
			}
			f.Clauses = append(f.Clauses, c)
		}
		if got, want := FormulaFingerprint(f), fingerprintReference(f); got != want {
			t.Fatalf("seed %d: fingerprint %s, reference %s for %v", seed, got, want, f.Clauses)
		}
	}
}
