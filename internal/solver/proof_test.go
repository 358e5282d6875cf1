package solver

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/cnf"
	"repro/internal/gen"
)

func TestProofVerifiesOnUnsatFamilies(t *testing.T) {
	workloads := map[string]*cnf.Formula{
		"php4":     gen.Pigeonhole(4),
		"php5":     gen.Pigeonhole(5),
		"xorcycle": gen.XorChain(10, true, 2),
	}
	for seed := int64(0); seed < 10; seed++ {
		f := gen.RandomKSAT(8, 45, 3, seed) // very overconstrained: likely UNSAT
		if sat, _ := cnf.BruteForce(f); !sat {
			workloads["rand"] = f
			break
		}
	}
	for name, f := range workloads {
		for cfg, opt := range map[string]Options{
			"default": {},
			"chrono":  {Chronological: true},
			"restart": {Restart: RestartFixed, RestartBase: 5},
			"reduce":  {MaxLearnts: 5},
		} {
			p := &Proof{}
			opt.Proof = p
			s := FromFormula(f, opt)
			if s.Solve() != Unsat {
				t.Fatalf("%s/%s: expected UNSAT", name, cfg)
			}
			if err := VerifyUnsat(f, p); err != nil {
				t.Fatalf("%s/%s: proof check failed: %v", name, cfg, err)
			}
		}
	}
}

func TestProofRejectsBogusLemma(t *testing.T) {
	f := gen.Pigeonhole(3)
	p := &Proof{}
	s := FromFormula(f, Options{Proof: p})
	if s.Solve() != Unsat {
		t.Fatal("expected UNSAT")
	}
	if p.NumLemmas() == 0 {
		t.Fatal("no lemmas logged")
	}
	// Corrupt the proof: insert a non-implied clause up front — a unit
	// over a fresh variable, which cannot be RUP for PHP.
	bogus := &Proof{Steps: append(
		[]ProofStep{{Clause: cnf.NewClause(f.NumVars() + 1)}}, p.Steps...)}
	if err := VerifyUnsat(f, bogus); err == nil {
		t.Fatal("corrupted proof must be rejected")
	}
}

// TestProofRecordsDeletions pins the DRUP-gap fix: a config that forces
// reduceDB must emit deletion steps, and the proof must still verify
// with the checker honoring them (the deleted lemmas really leave the
// checker's database).
func TestProofRecordsDeletions(t *testing.T) {
	f := gen.Pigeonhole(5)
	p := &Proof{}
	s := FromFormula(f, Options{Proof: p, MaxLearnts: 5})
	if s.Solve() != Unsat {
		t.Fatal("expected UNSAT")
	}
	if p.NumDeletions() == 0 {
		t.Fatalf("no deletion steps recorded (Stats.Deleted=%d)", s.Stats.Deleted)
	}
	if int64(p.NumDeletions()) != s.Stats.Deleted {
		t.Fatalf("deletion steps %d != Stats.Deleted %d", p.NumDeletions(), s.Stats.Deleted)
	}
	if err := VerifyUnsat(f, p); err != nil {
		t.Fatalf("proof with deletions failed to verify: %v", err)
	}
}

// TestDRATRoundTrip streams a solve through the textual DRAT encoder,
// re-parses it, and verifies it with the incremental checker — the
// exact path the serve layer and satsolve -drat use.
func TestDRATRoundTrip(t *testing.T) {
	f := gen.Pigeonhole(5)
	var buf bytes.Buffer
	w := NewDRATWriter(&buf)
	s := FromFormula(f, Options{Proof: w, MaxLearnts: 5})
	if s.Solve() != Unsat {
		t.Fatal("expected UNSAT")
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if !strings.Contains(text, "d ") {
		t.Fatal("DRAT stream has no deletion lines")
	}
	if err := VerifyDRAT(f, strings.NewReader(text)); err != nil {
		t.Fatalf("DRAT stream failed verification: %v", err)
	}
	// Truncation: dropping the tail must leave the database short of a
	// conflict (the final steps derive it).
	lines := strings.Split(strings.TrimSuffix(text, "\n"), "\n")
	half := strings.Join(lines[:len(lines)/2], "\n")
	if err := VerifyDRAT(f, strings.NewReader(half)); err == nil {
		t.Fatal("half a proof must not verify")
	}
}

// TestCheckerIncremental exercises the streaming Checker API directly:
// growTo widening via a wide lemma, unknown deletions as no-ops, and
// Conflict latching.
func TestCheckerIncremental(t *testing.T) {
	f, err := cnf.ParseDIMACSString("p cnf 2 2\n1 2 0\n-1 2 0\n")
	if err != nil {
		t.Fatal(err)
	}
	chk := NewChecker(f)
	if chk.Conflict() {
		t.Fatal("no conflict expected yet")
	}
	// (2) is RUP: assume -2, (1 2) propagates 1, (-1 2) conflicts.
	if err := chk.Learn(cnf.NewClause(2)); err != nil {
		t.Fatal(err)
	}
	// A unit over a fresh variable is not RUP; it must also widen the
	// checker rather than panic (the growTo audit).
	if err := chk.Learn(cnf.NewClause(7)); err == nil {
		t.Fatal("fresh-var unit must not be RUP")
	}
	// Deleting a clause the checker never saw is a no-op.
	chk.Delete(cnf.NewClause(5, 6))
	if err := chk.Done(); err == nil {
		t.Fatal("no refutation derived yet")
	}

	// A refutation completes when root propagation conflicts: here the
	// input units collide as soon as the chain is installed.
	f2, err := cnf.ParseDIMACSString("p cnf 2 3\n1 0\n-1 2 0\n-2 0\n")
	if err != nil {
		t.Fatal(err)
	}
	chk2 := NewChecker(f2)
	if !chk2.Conflict() {
		t.Fatal("root conflict expected at construction")
	}
	if err := chk2.Done(); err != nil {
		t.Fatal(err)
	}
	// Steps after the conflict are trivially accepted.
	if err := chk2.Learn(cnf.NewClause(2)); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkProofVerify pins the satellite fix for the quadratic
// checker: "rescan" is the algorithm the incremental Checker replaced —
// per lemma it rebuilt the assignment and re-scanned every clause in
// the database to seed unit propagation, so its cost per step grows
// with proof size. The incremental checker keeps persistent root
// assignment and counters and pays only for the propagation each step
// actually causes; the incremental/rescan gap must widen as proofs
// grow (the quadratic re-scan term is gone).
func BenchmarkProofVerify(b *testing.B) {
	for _, n := range []int{4, 5, 6} {
		f := gen.Pigeonhole(n)
		p := &Proof{}
		s := FromFormula(f, Options{Proof: p})
		if s.Solve() != Unsat {
			b.Fatal("expected UNSAT")
		}
		b.Run(fmt.Sprintf("php%d_steps%d/incremental", n, len(p.Steps)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := VerifyUnsat(f, p); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(p.Steps)), "ns/step")
		})
		b.Run(fmt.Sprintf("php%d_steps%d/rescan", n, len(p.Steps)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := rescanVerifyUnsat(f, p); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(p.Steps)), "ns/step")
		})
	}
}

// rescanVerifyUnsat is the pre-incremental checker algorithm, kept only
// as the benchmark baseline: every lemma check allocates a fresh
// assignment and scans the whole clause database for unit seeds.
func rescanVerifyUnsat(f *cnf.Formula, p *Proof) error {
	var clauses []cnf.Clause
	occ := map[int][]int{}
	numVars := f.NumVars()
	add := func(cl cnf.Clause) {
		norm, taut := cl.Normalize()
		if taut {
			return
		}
		if v := int(norm.MaxVar()); v > numVars {
			numVars = v
		}
		idx := len(clauses)
		clauses = append(clauses, norm)
		for _, l := range norm {
			occ[l.Not().Index()] = append(occ[l.Not().Index()], idx)
		}
	}
	propagate := func(initial []cnf.Lit) bool {
		assign := cnf.NewAssignment(numVars)
		var queue []cnf.Lit
		enqueue := func(l cnf.Lit) bool {
			switch assign.LitValue(l) {
			case cnf.True:
				return true
			case cnf.False:
				return false
			}
			assign.Assign(l)
			queue = append(queue, l)
			return true
		}
		for _, l := range initial {
			if !enqueue(l) {
				return true
			}
		}
		for _, cl := range clauses {
			if len(cl) == 1 && !enqueue(cl[0]) {
				return true
			}
			if len(cl) == 0 {
				return true
			}
		}
		for qi := 0; qi < len(queue); qi++ {
			for _, ci := range occ[queue[qi].Index()] {
				cl := clauses[ci]
				unit := cnf.LitUndef
				unassigned := 0
				sat := false
				for _, m := range cl {
					switch assign.LitValue(m) {
					case cnf.True:
						sat = true
					case cnf.Undef:
						unassigned++
						unit = m
					}
					if sat || unassigned > 1 {
						break
					}
				}
				if sat || unassigned > 1 {
					continue
				}
				if unassigned == 0 {
					return true
				}
				if !enqueue(unit) {
					return true
				}
			}
		}
		return false
	}
	for _, cl := range f.Clauses {
		add(cl)
	}
	for i, st := range p.Steps {
		if st.Del {
			continue // the rescan checker never honored deletions
		}
		neg := make([]cnf.Lit, len(st.Clause))
		for j, l := range st.Clause {
			neg[j] = l.Not()
		}
		if v := int(st.Clause.MaxVar()); v > numVars {
			numVars = v
		}
		if !propagate(neg) {
			return fmt.Errorf("solver: lemma %d is not RUP", i)
		}
		add(st.Clause)
	}
	if !propagate(nil) {
		return fmt.Errorf("solver: final database does not propagate to conflict")
	}
	return nil
}

func TestProofNilWithoutLogging(t *testing.T) {
	f := gen.Pigeonhole(3)
	s := FromFormula(f, Options{})
	s.Solve()
	if s.proof != nil {
		t.Fatal("no proof sink without Options.Proof")
	}
	if err := VerifyUnsat(f, nil); err == nil {
		t.Fatal("nil proof must not verify")
	}
}

func TestVerifyModelHelper(t *testing.T) {
	f := gen.RandomKSAT(10, 30, 3, 1)
	s := FromFormula(f, Options{})
	if s.Solve() == Sat {
		if err := VerifyModel(f, s.Model()); err != nil {
			t.Fatal(err)
		}
		bad := s.Model()
		// Flip everything; overwhelmingly likely to break a clause.
		for v := 1; v < len(bad); v++ {
			bad[v] = bad[v].Not()
		}
		if err := VerifyModel(f, bad); err == nil {
			t.Log("flipped model still satisfies (rare but possible)")
		}
	}
}
