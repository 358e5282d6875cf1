// Package cec implements SAT-based combinational equivalence checking
// (paper §3; [Gupta & Ashar], [Marques-Silva & Glass]). Two circuits are
// equivalent iff the miter — pairwise XORs of corresponding outputs, ORed
// together — is unsatisfiable when asked to produce 1.
//
// Two engines are provided: a plain one-shot miter check, and the
// simulation-guided internal-equivalence engine. The plain check
// structurally hashes the miter first (circuit.Strash), so the logic
// the two designs share merges before SAT sees it; when every output
// pair merges, the check answers without a SAT call. The internal
// engine works on the raw miter: random simulation
// proposes candidate equivalent internal node pairs, incremental SAT
// proves them front-to-back, and proven equivalences are added as
// constraints that dramatically simplify the final output check on
// structurally similar circuit pairs (the §6 incremental-SAT usage
// pattern combined with the §4.2 learning theme).
package cec

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/portfolio"
	"repro/internal/solver"
)

// Options configures an equivalence check.
type Options struct {
	// Internal enables the simulation-guided internal-equivalence
	// engine; otherwise the structurally hashed miter is decided by at
	// most one monolithic SAT call.
	Internal bool
	// SimWords is the number of 64-pattern words used to form candidate
	// classes (0 = 4).
	SimWords int
	// MaxConflicts bounds each SAT query (0 = unlimited).
	MaxConflicts int64
	// PortfolioWorkers, when greater than 1, decides the miter with a
	// parallel portfolio of diversified solvers instead of a single
	// sequential one — the right choice for large hard miters. Applies
	// to the monolithic check (the Internal engine's many incremental
	// queries stay sequential).
	PortfolioWorkers int
	// PreferRecipe seeds the portfolio's diversification toward a
	// recipe family a cross-run memory expects to win
	// (portfolio.Options.PreferRecipe); "" leaves it unbiased.
	PreferRecipe string
	// PortfolioAdaptive enables the portfolio's adaptive scheduling
	// supervisor for the miter race (portfolio.Options.Adaptive).
	PortfolioAdaptive bool
	// Solver carries base solver options.
	Solver solver.Options
	// Seed drives random simulation.
	Seed int64
	// Monitor, when non-nil, receives every solver this check spawns
	// (the monolithic miter solver or the Internal engine's incremental
	// solver, and each portfolio worker) for live progress sampling
	// while CheckContext runs. The Monitor must be private to this run.
	Monitor *portfolio.Monitor
}

// Result reports an equivalence check.
type Result struct {
	// Equivalent is valid only when Status is Sat/Unsat-decided (i.e.
	// Decided is true).
	Equivalent bool
	// Decided is false if a budget was exhausted.
	Decided bool
	// Counterexample is an input assignment (ordered like a.Inputs)
	// distinguishing the circuits, when not equivalent.
	Counterexample []bool
	// Candidates / Proven count internal equivalence candidates and how
	// many were proven (Internal mode only).
	Candidates, Proven int
	SATCalls           int
	Conflicts          int64
	// Recipe names the winning portfolio recipe when the miter was
	// decided by a portfolio ("" for the sequential engines).
	Recipe string
}

// BuildMiter combines two circuits over shared inputs and returns the
// miter circuit and its single output (1 iff some output pair differs).
// Inputs are matched by name when all names coincide, else by position;
// outputs are matched by position.
func BuildMiter(a, b *circuit.Circuit) (*circuit.Circuit, circuit.NodeID, error) {
	if len(a.Inputs) != len(b.Inputs) {
		return nil, 0, fmt.Errorf("cec: input counts differ (%d vs %d)", len(a.Inputs), len(b.Inputs))
	}
	if len(a.Outputs) != len(b.Outputs) {
		return nil, 0, fmt.Errorf("cec: output counts differ (%d vs %d)", len(a.Outputs), len(b.Outputs))
	}
	m := circuit.New()
	mapA := make([]circuit.NodeID, len(a.Nodes))
	mapB := make([]circuit.NodeID, len(b.Nodes))

	// Shared inputs.
	byName := true
	for _, in := range a.Inputs {
		if b.NodeByName(a.Name(in)) == circuit.NoNode {
			byName = false
			break
		}
	}
	for i, in := range a.Inputs {
		id := m.AddInput("in_" + a.Name(in))
		mapA[in] = id
		if byName {
			mapB[b.NodeByName(a.Name(in))] = id
		} else {
			mapB[b.Inputs[i]] = id
		}
	}
	copyGates := func(src *circuit.Circuit, mp []circuit.NodeID, tag string) {
		for i := range src.Nodes {
			n := &src.Nodes[i]
			switch n.Type {
			case circuit.Input:
				continue
			case circuit.Const0, circuit.Const1:
				mp[i] = m.AddConst(n.Type == circuit.Const1, tag+n.Name)
				continue
			}
			fanin := make([]circuit.NodeID, len(n.Fanin))
			for j, f := range n.Fanin {
				fanin[j] = mp[f]
			}
			mp[i] = m.AddGate(n.Type, tag+n.Name, fanin...)
		}
	}
	copyGates(a, mapA, "A_")
	copyGates(b, mapB, "B_")

	diffs := make([]circuit.NodeID, len(a.Outputs))
	for i := range a.Outputs {
		diffs[i] = m.AddGate(circuit.Xor, fmt.Sprintf("diff%d", i), mapA[a.Outputs[i]], mapB[b.Outputs[i]])
	}
	var out circuit.NodeID
	if len(diffs) == 1 {
		out = m.AddGate(circuit.Buf, "miter", diffs[0])
	} else {
		out = m.AddGate(circuit.Or, "miter", diffs...)
	}
	m.MarkOutput(out)
	return m, out, nil
}

// Check decides whether a and b are combinationally equivalent.
func Check(a, b *circuit.Circuit, opts Options) (*Result, error) {
	return CheckContext(context.Background(), a, b, opts)
}

// CheckContext is Check under a context: cancelling ctx interrupts the
// SAT queries cooperatively and the run returns with Decided false.
func CheckContext(ctx context.Context, a, b *circuit.Circuit, opts Options) (*Result, error) {
	if opts.Internal {
		return checkInternal(ctx, a, b, opts)
	}
	return checkPlain(ctx, a, b, opts)
}

func checkPlain(ctx context.Context, a, b *circuit.Circuit, opts Options) (*Result, error) {
	raw, _, err := BuildMiter(a, b)
	if err != nil {
		return nil, err
	}
	m := circuit.Strash(raw)
	out := m.Outputs[0]
	if outputsMerged(m) {
		return &Result{Equivalent: true, Decided: true}, nil
	}
	f, enc := circuit.EncodeProperty(m, out, true)
	sopts := opts.Solver
	sopts.MaxConflicts = opts.MaxConflicts
	res := &Result{SATCalls: 1}
	// Decide the miter with whichever engine is configured; the
	// verdict→Result mapping below is shared by both branches.
	var verdict solver.Status
	var model cnf.Assignment
	if opts.PortfolioWorkers > 1 {
		pres := portfolio.Solve(ctx, f, portfolio.Options{
			Workers:      opts.PortfolioWorkers,
			Base:         sopts,
			Seed:         opts.Seed,
			Monitor:      opts.Monitor,
			PreferRecipe: opts.PreferRecipe,
			Adaptive:     opts.PortfolioAdaptive,
		})
		verdict, model = pres.Status, pres.Model
		res.Recipe = pres.Recipe
		for _, w := range pres.Workers {
			res.Conflicts += w.Stats.Conflicts
		}
	} else {
		s := solver.FromFormula(f, sopts)
		stopWatch := context.AfterFunc(ctx, s.Interrupt)
		defer stopWatch()
		detach := opts.Monitor.Attach(0, 0, "cec-miter", s)
		defer detach("")
		verdict = s.Solve()
		model = s.Model()
		res.Conflicts = s.Stats.Conflicts
	}
	switch verdict {
	case solver.Unsat:
		res.Equivalent = true
		res.Decided = true
	case solver.Sat:
		res.Decided = true
		res.Counterexample = extractInputs(m, enc, model)
	}
	return res, nil
}

// outputsMerged reports whether structural hashing alone proved the
// strashed miter m: every output pair merged into one node, so each
// diff XOR has two identical fanins and the miter is constant 0. The
// miter's output is the single diff XOR (its buffer collapsed) or the
// OR over all of them.
func outputsMerged(m *circuit.Circuit) bool {
	diffs := m.Outputs
	if top := &m.Nodes[m.Outputs[0]]; top.Type == circuit.Or {
		diffs = top.Fanin
	}
	for _, d := range diffs {
		n := &m.Nodes[d]
		if n.Type != circuit.Xor || len(n.Fanin) != 2 || n.Fanin[0] != n.Fanin[1] {
			return false
		}
	}
	return true
}

func extractInputs(m *circuit.Circuit, enc *circuit.Encoding, model cnf.Assignment) []bool {
	out := make([]bool, len(m.Inputs))
	for i, id := range m.Inputs {
		out[i] = model.Value(enc.VarOf[id]) == cnf.True
	}
	return out
}

// checkInternal implements the simulation-guided engine.
func checkInternal(ctx context.Context, a, b *circuit.Circuit, opts Options) (*Result, error) {
	if opts.SimWords == 0 {
		opts.SimWords = 4
	}
	m, out, err := BuildMiter(a, b)
	if err != nil {
		return nil, err
	}
	res := &Result{}

	// Random simulation signatures over the combined circuit.
	rng := rand.New(rand.NewSource(opts.Seed))
	sigs := make([][]uint64, len(m.Nodes))
	for w := 0; w < opts.SimWords; w++ {
		in := make([]uint64, len(m.Inputs))
		for i := range in {
			in[i] = rng.Uint64()
		}
		vals := m.Simulate(in)
		for n, v := range vals {
			sigs[n] = append(sigs[n], v)
		}
	}
	key := func(n int) string {
		s := ""
		for _, w := range sigs[n] {
			s += fmt.Sprintf("%016x.", w)
		}
		return s
	}
	classes := make(map[string][]circuit.NodeID)
	levels := m.Levels()
	for n := range m.Nodes {
		if m.Nodes[n].Type == circuit.Input {
			continue
		}
		classes[key(n)] = append(classes[key(n)], circuit.NodeID(n))
	}

	// Candidate pairs: adjacent members of each signature class, proved
	// shallow-first so proven equivalences help deeper queries.
	type pair struct{ u, v circuit.NodeID }
	var pairs []pair
	for _, cls := range classes {
		if len(cls) < 2 {
			continue
		}
		sort.Slice(cls, func(i, j int) bool { return levels[cls[i]] < levels[cls[j]] })
		for i := 1; i < len(cls); i++ {
			pairs = append(pairs, pair{cls[0], cls[i]})
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		li := levels[pairs[i].u] + levels[pairs[i].v]
		lj := levels[pairs[j].u] + levels[pairs[j].v]
		if li != lj {
			return li < lj
		}
		return pairs[i].v < pairs[j].v
	})
	res.Candidates = len(pairs)

	enc := circuit.Encode(m)
	sopts := opts.Solver
	sopts.MaxConflicts = opts.MaxConflicts
	s := solver.FromFormula(enc.F, sopts)
	stopWatch := context.AfterFunc(ctx, s.Interrupt)
	defer stopWatch()
	detach := opts.Monitor.Attach(0, 0, "cec-internal", s)
	defer detach("")

	// Prove candidates: u≠v is queried by assuming a fresh XOR output.
	for _, p := range pairs {
		d := s.NewVar()
		scratch := cnf.New(s.NumVars())
		circuit.AppendGateCNF(scratch, circuit.Xor, d, []cnf.Var{enc.VarOf[p.u], enc.VarOf[p.v]})
		s.AddFormula(scratch)
		res.SATCalls++
		switch s.Solve(cnf.PosLit(d)) {
		case solver.Unsat:
			// Proven equivalent: assert it permanently.
			s.AddClause(cnf.Clause{cnf.NegLit(d)})
			res.Proven++
		case solver.Sat:
			// Not equivalent; leave d free.
		default:
			// Budget exhausted on a candidate: harmless, skip.
		}
	}

	// Final output check.
	res.SATCalls++
	switch s.Solve(cnf.PosLit(enc.VarOf[out])) {
	case solver.Unsat:
		res.Equivalent = true
		res.Decided = true
	case solver.Sat:
		res.Decided = true
		res.Counterexample = extractInputs(m, enc, s.Model())
	}
	res.Conflicts = s.Stats.Conflicts
	return res, nil
}

// VerifyCounterexample checks that the returned input vector really
// distinguishes the two circuits (inputs matched as in BuildMiter). A
// vector of the wrong length distinguishes nothing.
func VerifyCounterexample(a, b *circuit.Circuit, ce []bool) bool {
	if len(ce) != len(a.Inputs) || len(a.Inputs) != len(b.Inputs) || len(a.Outputs) != len(b.Outputs) {
		return false
	}
	av := a.SimulateBool(ce)
	// Match inputs by name when possible, mirroring BuildMiter.
	byName := true
	for _, in := range a.Inputs {
		if b.NodeByName(a.Name(in)) == circuit.NoNode {
			byName = false
			break
		}
	}
	bIn := make([]bool, len(b.Inputs))
	if byName {
		pos := make(map[circuit.NodeID]int)
		for i, id := range b.Inputs {
			pos[id] = i
		}
		for i, id := range a.Inputs {
			bIn[pos[b.NodeByName(a.Name(id))]] = ce[i]
		}
	} else {
		copy(bIn, ce)
	}
	bv := b.SimulateBool(bIn)
	for i := range a.Outputs {
		if av[a.Outputs[i]] != bv[b.Outputs[i]] {
			return true
		}
	}
	return false
}
