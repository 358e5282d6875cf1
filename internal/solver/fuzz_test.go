package solver

import (
	"bytes"
	"testing"

	"repro/internal/cnf"
)

// fuzzConfigs is the configuration palette FuzzSolverVsBrute draws
// from: every individually-switchable technique, with no resource
// budgets (each configuration is a complete decision procedure, so
// Unknown is always a bug).
var fuzzConfigs = []Options{
	{},
	{Chronological: true},
	{NoLearning: true},
	{NoMinimize: true},
	{Deletion: DeleteByRelevance, RelevanceBound: 2, MaxLearnts: 10},
	{Deletion: DeleteNever},
	{Restart: RestartFixed, RestartBase: 4, RandomFreq: 0.3, Seed: 7},
	{Restart: RestartNone},
	{Decide: DecideDLIS},
	{Decide: DecideOrdered, Restart: RestartGeometric, RestartBase: 8},
	{Decide: DecideRandom, Seed: 3},
	{NoPhaseSaving: true, Restart: RestartLuby, RestartBase: 2},
	// A second temp-clause configuration, in the slot the deleted
	// slice-of-slices watcher store held: seed corpus bytes index this
	// slice, so slots are reused, never removed.
	{NoLearning: true, Decide: DecideDLIS, NoPhaseSaving: true},
	{Proof: logProof},
	{MaxLearnts: 1},
	// Inprocessing configurations (aggressive cadence so restart
	// boundaries — and therefore rounds — happen even on tiny
	// instances): every transform combination the engine supports.
	{Inprocess: true, InprocessEvery: 1, Restart: RestartFixed, RestartBase: 2},
	{Inprocess: true, InprocessNoSubsume: true, InprocessEvery: 1, Restart: RestartFixed, RestartBase: 2},
	{Inprocess: true, InprocessNoVivify: true, InprocessEvery: 1, Restart: RestartFixed, RestartBase: 2},
	{Inprocess: true, InprocessVarElim: true, InprocessEvery: 1, Restart: RestartFixed, RestartBase: 2},
	{Inprocess: true, InprocessVarElim: true, InprocessNoVivify: true, InprocessNoSubsume: true, InprocessEvery: 1, Restart: RestartFixed, RestartBase: 2},
	// Proof logging under deletion pressure: the tiny learnt cap plus a
	// fast restart cadence forces reduceDB, so the stream carries "d"
	// lines and the checker's deletion handling is exercised. Appended
	// after the older entries — seed corpus bytes index this slice.
	{Proof: logProof, MaxLearnts: 1, Restart: RestartFixed, RestartBase: 2},
	{Proof: logProof, NoLearning: true, Chronological: true},
}

// logProof marks a palette slot that records its proof. It is a typed
// nil: every run swaps in a fresh *Proof of its own (withFreshProof), and
// a run that did not would panic on its first lemma instead of sharing
// one log with every other run through the static table.
var logProof ProofWriter = (*Proof)(nil)

// withFreshProof gives opts a fresh in-memory proof log when its slot
// records one, and returns that log (nil otherwise).
func withFreshProof(opts Options) (Options, *Proof) {
	if opts.Proof == nil {
		return opts, nil
	}
	p := &Proof{}
	opts.Proof = p
	return opts, p
}

// decodeFuzzFormula interprets fuzz bytes as a bounded CNF instance
// plus a configuration pick:
//
//	data[0] → variable count in [1, 12]; bit 7 selects the targets'
//	          incremental modes (fuzzIncremental, FuzzProofVerify)
//	data[1] → index into fuzzConfigs
//	rest    → one literal per byte: 0 terminates a clause, otherwise
//	          bit 7 is the polarity and the low bits pick the variable
//
// Bounds (≤ 12 vars, ≤ 64 clauses, ≤ 8 literals per clause) keep the
// brute-force oracle instant while still reaching empty clauses,
// duplicate literals, tautologies and both verdicts.
func decodeFuzzFormula(data []byte) (*cnf.Formula, Options) {
	if len(data) < 3 {
		return nil, Options{}
	}
	nVars := int(data[0])%12 + 1
	opts := fuzzConfigs[int(data[1])%len(fuzzConfigs)]
	f := cnf.New(nVars)
	var cur cnf.Clause
	for _, b := range data[2:] {
		if f.NumClauses() >= 64 {
			break
		}
		if b == 0 {
			f.AddClause(cur) // may be empty: trivially unsat, still legal
			cur = nil
			continue
		}
		if len(cur) >= 8 {
			continue
		}
		v := cnf.Var(int(b&0x7f)%nVars + 1)
		cur = append(cur, cnf.NewLit(v, b&0x80 != 0))
	}
	// An unterminated trailing clause is dropped, mirroring DIMACS
	// strictness.
	if f.NumClauses() == 0 {
		return nil, Options{}
	}
	return f, opts
}

// FuzzSolverVsBrute generates small CNF instances from fuzz bytes,
// solves them with a fuzz-chosen CDCL configuration and checks the
// verdict against exhaustive enumeration (cnf.BruteForce). Sat models
// are verified clause by clause; Unsat answers from the proof-logging
// configuration are verified against the recorded DRUP-style proof.
// This is the ground-truth harness every scheduling or heuristic change
// must keep green: heuristics may change how the search walks, never
// what it answers.
// fuzzIncremental reports whether the input selects FuzzSolverVsBrute's
// incremental mode (bit 7 of the first byte) and, if so, which
// sweepConfigs entry the configuration byte picks. The mode runs the
// decoded clauses as guarded add/solve/retire rounds on one solver
// (guardedRun) instead of one Solve: the first quarter of the clauses
// is the permanent base, the rest come in groups of three, each retired
// before the next arrives, all over the same few variables.
func fuzzIncremental(data []byte) (Options, bool) {
	if data[0]&0x80 == 0 {
		return Options{}, false
	}
	return sweepConfigs[int(data[1])%len(sweepConfigs)], true
}

// proofFuzzConfigs is the palette FuzzProofVerify draws from: all log
// proofs, spanning no deletions, heavy reduceDB deletion pressure, and
// NoLearning temp clauses.
var proofFuzzConfigs = []Options{
	{Proof: logProof},
	{Proof: logProof, MaxLearnts: 1, Restart: RestartFixed, RestartBase: 2},
	{Proof: logProof, Deletion: DeleteByRelevance, RelevanceBound: 2, MaxLearnts: 4},
	{Proof: logProof, NoLearning: true},
}

// FuzzProofVerify is the proof-pipeline fuzzer: on every generated
// UNSAT instance the emitted DRAT stream (including deletion lines)
// must pass the incremental checker both in memory and through the
// textual encode/parse round trip; a fresh-variable lemma spliced in at
// any position before the conflict must be rejected, as must truncating
// the stream before the conflict; and no stream may ever pass against a
// brute-force-satisfiable formula (checker soundness: an accepted
// refutation implies UNSAT). With bit 7 of the first byte set the
// solver loads half of the clauses, solves, loads the rest and solves
// again: the level-0 sweep runs between the two, and its deletion lines
// are part of the stream that must verify against the whole formula.
func FuzzProofVerify(f *testing.F) {
	f.Add([]byte{1, 0, 1, 0, 0x81, 0}) // x ∧ ¬x
	f.Add([]byte{3, 1, 1, 2, 0, 0x81, 3, 0, 0x82, 0x83, 0})
	f.Add([]byte{2, 1, 1, 2, 0, 0x81, 2, 0, 1, 0x82, 0, 0x81, 0x82, 0}) // unsat 2-var square
	f.Add([]byte{4, 2, 1, 2, 0, 0x81, 0x82, 0, 3, 4, 0, 0x83, 0x84, 0, 1, 3, 0, 0x81, 0x83, 0})
	f.Add([]byte{5, 3, 0}) // single empty clause
	// Two solves with a sweep in between: units that satisfy earlier
	// clauses, then a contradiction among the rest.
	// (1 2)(1 3)(¬1 4)(1) | the four clauses over 2, 3 — 4 variables.
	f.Add([]byte{0x87, 0, 4, 1, 0, 4, 2, 0, 0x84, 3, 0, 4, 0, 1, 2, 0, 0x81, 2, 0, 1, 0x82, 0, 0x81, 0x82, 0})
	f.Add([]byte{0x89, 1, 6, 1, 2, 0, 6, 3, 0, 6, 4, 5, 0, 1, 3, 0, 6, 0, 1, 2, 0, 0x81, 2, 0, 1, 0x82, 0, 0x81, 0x82, 4, 0, 0x84, 5, 0, 0x84, 0x85, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<12 {
			t.Skip("oversized input")
		}
		formula, _ := decodeFuzzFormula(data)
		if formula == nil {
			t.Skip("undecodable")
		}
		opts, p := withFreshProof(proofFuzzConfigs[int(data[1])%len(proofFuzzConfigs)])
		s := New(formula.NumVars(), opts)
		for i, cl := range formula.Clauses {
			if i == len(formula.Clauses)/2 && data[0]&0x80 != 0 && s.Solve() == Unsat {
				break // the first half alone is refuted
			}
			s.AddClause(cl)
		}
		st := s.Solve()
		if st == Sat {
			// Soundness: no step stream may refute a satisfiable formula.
			if err := VerifyUnsat(formula, p); err == nil {
				t.Fatalf("checker accepted a refutation of a satisfiable formula %v", formula)
			}
			return
		}
		if st != Unsat {
			t.Fatalf("complete configuration returned Unknown on %v", formula)
		}
		if err := VerifyUnsat(formula, p); err != nil {
			t.Fatalf("emitted proof rejected: %v on %v (opts %+v)", err, formula, opts)
		}
		// Textual round trip: encode the same steps as DRAT, re-parse,
		// re-verify.
		var buf bytes.Buffer
		w := NewDRATWriter(&buf)
		for _, step := range p.Steps {
			if step.Del {
				w.Delete(step.Clause)
			} else {
				w.Learn(step.Clause)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := VerifyDRAT(formula, bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("DRAT round trip rejected: %v on %v", err, formula)
		}
		// Mutation and truncation: replay the stream on one incremental
		// checker. Before the database first conflicts, a unit over a
		// fresh variable can never be RUP — splicing one in at any such
		// position must be rejected — and the prefix so far must not
		// verify as a complete proof.
		chk := NewChecker(formula)
		firstConflict := -1
		for i, step := range p.Steps {
			if chk.Conflict() {
				firstConflict = i
				break
			}
			fresh := cnf.NewClause(formula.NumVars() + 2 + i)
			if err := chk.Learn(fresh); err == nil {
				t.Fatalf("fresh-variable lemma accepted at step %d on %v", i, formula)
			}
			if step.Del {
				chk.Delete(step.Clause)
				continue
			}
			if err := chk.Learn(step.Clause); err != nil {
				t.Fatalf("replay diverged at step %d: %v", i, err)
			}
		}
		if firstConflict < 0 {
			// The conflict arrived only with the very last step.
			firstConflict = len(p.Steps)
		}
		if firstConflict > 0 {
			trunc := &Proof{Steps: p.Steps[:firstConflict-1]}
			if err := VerifyUnsat(formula, trunc); err == nil {
				t.Fatalf("truncated proof (%d of %d steps) accepted on %v",
					firstConflict-1, len(p.Steps), formula)
			}
		}
	})
}

func FuzzSolverVsBrute(f *testing.F) {
	f.Add([]byte{3, 0, 1, 2, 0, 0x81, 3, 0, 0x82, 0x83, 0})
	f.Add([]byte{1, 1, 1, 0, 0x81, 0})          // x ∧ ¬x: unsat
	f.Add([]byte{7, 2, 1, 2, 3, 0, 4, 5, 0, 6}) // mixed, trailing garbage
	f.Add([]byte{11, 13, 1, 0, 2, 0, 3, 0, 0x81, 0x82, 0x83, 0})
	f.Add([]byte{5, 4, 0}) // a single empty clause
	// Inprocessing configurations over instances big enough to restart.
	f.Add([]byte{9, 15, 1, 2, 0, 0x81, 3, 0, 0x82, 4, 0, 0x83, 0x84, 0, 5, 6, 0, 0x85, 7, 0, 0x86, 0x87, 0, 8, 9, 0, 1, 0x89, 0})
	f.Add([]byte{10, 18, 1, 2, 3, 0, 0x81, 0x82, 0, 4, 5, 0, 0x84, 0x85, 0, 6, 7, 8, 0, 0x86, 0x88, 0, 9, 10, 0, 0x89, 0x8a, 0})
	f.Add([]byte{8, 19, 1, 2, 0, 0x81, 0x82, 0, 3, 4, 0, 0x83, 0x84, 0, 5, 6, 0, 0x85, 0x86, 0, 7, 8, 0, 0x87, 0x88, 0, 1, 3, 5, 7, 0})
	// Incremental mode: guarded groups over reused variables, with a
	// unit in the base, under every sweepConfigs entry.
	for i := range sweepConfigs {
		f.Add([]byte{0x89, byte(i), 6, 0, 1, 2, 0, 6, 3, 0, 0x83, 4, 0, 1, 0x84, 0, 2, 5, 0, 0x82, 0x85, 0,
			3, 0, 1, 4, 5, 0, 0x81, 0, 0x84, 0x85, 0, 2, 0, 0x82, 0})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<12 {
			t.Skip("oversized input")
		}
		formula, opts := decodeFuzzFormula(data)
		if formula == nil {
			t.Skip("undecodable")
		}
		if iopts, ok := fuzzIncremental(data); ok {
			g := newGuardedRun(t, formula.NumVars(), iopts)
			base := formula.NumClauses() / 4
			for _, cl := range formula.Clauses[:base] {
				g.addPermanent(cl)
			}
			for rest := formula.Clauses[base:]; len(rest) > 0; {
				n := min(3, len(rest))
				g.solveGroup(rest[:n])
				rest = rest[n:]
			}
			return
		}
		want, _ := cnf.BruteForce(formula)
		opts, proof := withFreshProof(opts)
		s := FromFormula(formula, opts)
		st := s.Solve()
		if st == Unknown {
			t.Fatalf("complete configuration %+v returned Unknown on %v", opts, formula)
		}
		if got := st == Sat; got != want {
			t.Fatalf("solver=%v brute=%v on %v (opts %+v)", st, want, formula, opts)
		}
		if st == Sat {
			// Model verified clause by clause against the formula.
			if err := VerifyModel(formula, s.Model()); err != nil {
				t.Fatalf("model rejected: %v on %v (opts %+v)", err, formula, opts)
			}
		} else if proof != nil {
			if err := VerifyUnsat(formula, proof); err != nil {
				t.Fatalf("proof rejected: %v on %v", err, formula)
			}
		}
	})
}
