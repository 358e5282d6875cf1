// Package cnf provides the core propositional-logic data types used by the
// rest of the toolkit: variables, literals, clauses and CNF formulas, plus
// DIMACS serialization and evaluation helpers.
//
// A CNF formula on n binary variables x1..xn is the conjunction of m
// clauses, each of which is the disjunction of one or more literals, where
// a literal is the occurrence of a variable x or its complement ¬x
// (paper §2). Variables are 1-based, matching the DIMACS convention.
package cnf

import (
	"fmt"
	"strconv"
)

// Var identifies a propositional variable. Valid variables are >= 1;
// 0 is reserved as "undefined".
type Var int32

// Lit is a literal: a variable or its complement. Internally a literal is
// encoded as Var<<1 | sign, so literals of variable v are 2v (positive)
// and 2v+1 (negative). The zero value is LitUndef.
type Lit int32

// LitUndef is the undefined literal (zero value of Lit).
const LitUndef Lit = 0

// VarUndef is the undefined variable (zero value of Var).
const VarUndef Var = 0

// NewLit returns the literal of v, negated if neg is true.
func NewLit(v Var, neg bool) Lit {
	l := Lit(v) << 1
	if neg {
		l |= 1
	}
	return l
}

// PosLit returns the positive literal of v.
func PosLit(v Var) Lit { return Lit(v) << 1 }

// NegLit returns the negative literal of v.
func NegLit(v Var) Lit { return Lit(v)<<1 | 1 }

// Var returns the variable underlying the literal.
func (l Lit) Var() Var { return Var(l >> 1) }

// IsNeg reports whether the literal is a complemented variable.
func (l Lit) IsNeg() bool { return l&1 == 1 }

// Not returns the complement of the literal.
func (l Lit) Not() Lit { return l ^ 1 }

// IsUndef reports whether the literal is undefined.
func (l Lit) IsUndef() bool { return l == LitUndef }

// Index returns a dense non-negative index for the literal, suitable for
// indexing slices of length 2*(maxVar+1).
func (l Lit) Index() int { return int(l) }

// FromDIMACS converts a DIMACS-style signed integer (…,-2,-1,1,2,…) into
// a Lit. FromDIMACS(0) returns LitUndef.
func FromDIMACS(i int) Lit {
	if i == 0 {
		return LitUndef
	}
	if i < 0 {
		return NegLit(Var(-i))
	}
	return PosLit(Var(i))
}

// DIMACS returns the literal in DIMACS signed-integer form.
func (l Lit) DIMACS() int {
	v := int(l.Var())
	if l.IsNeg() {
		return -v
	}
	return v
}

// String renders the literal in DIMACS form ("3", "-7", "?").
func (l Lit) String() string {
	if l.IsUndef() {
		return "?"
	}
	return strconv.Itoa(l.DIMACS())
}

// Clause is a disjunction of literals. Clauses are value types; most
// operations treat them as read-only.
type Clause []Lit

// NewClause builds a clause from DIMACS-style signed integers.
func NewClause(dimacs ...int) Clause {
	c := make(Clause, len(dimacs))
	for i, d := range dimacs {
		if d == 0 {
			panic("cnf: literal 0 in clause")
		}
		c[i] = FromDIMACS(d)
	}
	return c
}

// Clone returns a copy of the clause.
func (c Clause) Clone() Clause {
	out := make(Clause, len(c))
	copy(out, c)
	return out
}

// Has reports whether the clause contains the literal l.
func (c Clause) Has(l Lit) bool {
	for _, x := range c {
		if x == l {
			return true
		}
	}
	return false
}

// IsTautology reports whether the clause contains a variable in both
// polarities, making it trivially true.
func (c Clause) IsTautology() bool {
	for i, l := range c {
		for _, m := range c[i+1:] {
			if l == m.Not() {
				return true
			}
		}
	}
	return false
}

// Normalize sorts literals, removes duplicates, and reports whether the
// clause is a tautology. The returned clause may alias c's backing array.
func (c Clause) Normalize() (Clause, bool) {
	if len(c) <= 1 {
		return c, false
	}
	return c.Clone().NormalizeInPlace()
}

// NormalizeInPlace is Normalize for a clause the caller owns: it sorts
// and deduplicates within c's backing array and allocates nothing.
func (c Clause) NormalizeInPlace() (Clause, bool) {
	if len(c) <= 1 {
		return c, false
	}
	// Insertion sort: clauses are short, and we avoid a sort dependency on
	// the hot path.
	for i := 1; i < len(c); i++ {
		for j := i; j > 0 && c[j] < c[j-1]; j-- {
			c[j], c[j-1] = c[j-1], c[j]
		}
	}
	w := 1
	for i := 1; i < len(c); i++ {
		if c[i] == c[w-1] {
			continue
		}
		if c[i] == c[w-1].Not() {
			return c, true
		}
		c[w] = c[i]
		w++
	}
	return c[:w], false
}

// MaxVar returns the largest variable mentioned in the clause.
func (c Clause) MaxVar() Var {
	var m Var
	for _, l := range c {
		if v := l.Var(); v > m {
			m = v
		}
	}
	return m
}

// String renders the clause as "(1 -2 3)".
func (c Clause) String() string {
	s := "("
	for i, l := range c {
		if i > 0 {
			s += " "
		}
		s += l.String()
	}
	return s + ")"
}

// Subsumes reports whether c subsumes d, i.e. every literal of c occurs
// in d. A subsumed clause is redundant. Both clauses are treated as sets.
func (c Clause) Subsumes(d Clause) bool {
	if len(c) > len(d) {
		return false
	}
	for _, l := range c {
		if !d.Has(l) {
			return false
		}
	}
	return true
}

// Signature returns a 64-bit set signature of the clause's variables,
// used to make subsumption checks cheap: if sig(c) &^ sig(d) != 0,
// c cannot subsume d.
func (c Clause) Signature() uint64 {
	var sig uint64
	for _, l := range c {
		sig |= 1 << (uint(l.Var()) % 64)
	}
	return sig
}

func litErr(format string, args ...any) error { return fmt.Errorf("cnf: "+format, args...) }
