// Package bmc implements SAT-based bounded model checking of sequential
// circuits (paper §3; [Biere, Cimatti, Clarke & Zhu, "Symbolic Model
// Checking without BDDs"]). The transition relation is a combinational
// circuit whose latch outputs are pseudo primary inputs; checking whether
// a bad state is reachable within k steps unrolls k copies of the
// circuit into one CNF formula and asks SAT for a violating path. The
// unrolling is incremental (§6): each new time frame is added to the same
// solver and the bad-state question is posed as an assumption, so
// learned clauses carry across depths. A k-induction engine (with
// simple-path uniqueness constraints) can prove safety of invariant
// properties.
package bmc

import (
	"context"
	"fmt"
	"io"

	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/portfolio"
	"repro/internal/solver"
)

// Sequential is a sequential circuit: a combinational core whose latch
// outputs appear as pseudo primary inputs, plus latch wiring and initial
// values. Bad is the property node: the design is safe iff Bad is never
// 1 in any reachable state.
type Sequential struct {
	Comb    *circuit.Circuit
	Latches []circuit.Latch
	// Init holds the initial value per latch (parallel to Latches);
	// Undef means unconstrained.
	Init []cnf.LBool
	// Bad is the property violation signal within Comb.
	Bad circuit.NodeID
}

// FromBench parses a sequential .bench netlist; the property is the
// first declared output (1 = violation), latches reset to 0.
func FromBench(r io.Reader) (*Sequential, error) {
	c, latches, err := circuit.ParseBench(r)
	if err != nil {
		return nil, err
	}
	if len(c.Outputs) == 0 {
		return nil, fmt.Errorf("bmc: no outputs (property signal) declared")
	}
	init := make([]cnf.LBool, len(latches))
	for i := range init {
		init[i] = cnf.False
	}
	return &Sequential{Comb: c, Latches: latches, Init: init, Bad: c.Outputs[0]}, nil
}

// Validate checks structural sanity.
func (q *Sequential) Validate() error {
	if err := q.Comb.Validate(); err != nil {
		return err
	}
	if len(q.Init) != len(q.Latches) {
		return fmt.Errorf("bmc: %d init values for %d latches", len(q.Init), len(q.Latches))
	}
	isInput := make(map[circuit.NodeID]bool)
	for _, in := range q.Comb.Inputs {
		isInput[in] = true
	}
	for _, l := range q.Latches {
		if !isInput[l.Output] {
			return fmt.Errorf("bmc: latch output %d is not a pseudo-input", l.Output)
		}
	}
	return nil
}

// FreeInputs returns the true primary inputs (excluding latch outputs).
func (q *Sequential) FreeInputs() []circuit.NodeID {
	isLatch := make(map[circuit.NodeID]bool)
	for _, l := range q.Latches {
		isLatch[l.Output] = true
	}
	var out []circuit.NodeID
	for _, in := range q.Comb.Inputs {
		if !isLatch[in] {
			out = append(out, in)
		}
	}
	return out
}

// Step computes the next latch state and the bad flag from the current
// state and one input vector — the reference sequential simulator used
// to replay counterexample traces.
func (q *Sequential) Step(state []bool, inputs []bool) (next []bool, bad bool) {
	free := q.FreeInputs()
	if len(inputs) != len(free) {
		panic("bmc: Step input count mismatch")
	}
	if len(state) != len(q.Latches) {
		panic("bmc: Step state size mismatch")
	}
	full := make([]bool, len(q.Comb.Inputs))
	idxOf := make(map[circuit.NodeID]int)
	for i, in := range q.Comb.Inputs {
		idxOf[in] = i
	}
	for i, in := range free {
		full[idxOf[in]] = inputs[i]
	}
	for i, l := range q.Latches {
		full[idxOf[l.Output]] = state[i]
	}
	vals := q.Comb.SimulateBool(full)
	next = make([]bool, len(q.Latches))
	for i, l := range q.Latches {
		next[i] = vals[l.Input]
	}
	return next, vals[q.Bad]
}

// InitialState returns the initial latch state (Undef entries default to
// false for simulation purposes).
func (q *Sequential) InitialState() []bool {
	st := make([]bool, len(q.Latches))
	for i, v := range q.Init {
		st[i] = v == cnf.True
	}
	return st
}

// InitLatches adds frame 0's reset state to s: one unit per latch with
// a defined Init value, over the latch outputs' variables vars (indexed
// by NodeID).
func (q *Sequential) InitLatches(s *solver.Solver, vars []cnf.Var) {
	for i, l := range q.Latches {
		switch q.Init[i] {
		case cnf.True:
			s.AddClause(cnf.Clause{cnf.PosLit(vars[l.Output])})
		case cnf.False:
			s.AddClause(cnf.Clause{cnf.NegLit(vars[l.Output])})
		}
	}
}

// TieLatches adds the transition between two consecutive frames to s:
// each latch output of cur equals its input in prev (q_t ↔ d_{t−1}).
// cur and prev are node variables indexed by NodeID.
func (q *Sequential) TieLatches(s *solver.Solver, cur, prev []cnf.Var) {
	for _, l := range q.Latches {
		qv, d := cur[l.Output], prev[l.Input]
		s.AddClause(cnf.Clause{cnf.NegLit(qv), cnf.PosLit(d)})
		s.AddClause(cnf.Clause{cnf.PosLit(qv), cnf.NegLit(d)})
	}
}

// Trace is a counterexample: per-frame free-input vectors leading from
// the initial state to a bad state.
type Trace struct {
	Inputs [][]bool // [frame][free input]
	States [][]bool // [frame][latch] (includes the initial state)
}

// Depth returns the number of steps to the violation. A depth-k trace
// carries k+1 input vectors — the violating frame's inputs feed the
// combinational bad signal — so this is one less than len(Inputs).
func (t *Trace) Depth() int {
	if len(t.Inputs) == 0 {
		return 0
	}
	return len(t.Inputs) - 1
}

// Result reports a BMC run.
type Result struct {
	// Violated is true if a bad state is reachable within the bound.
	Violated bool
	// Depth is the first violating frame (when Violated).
	Depth int
	// Trace is the counterexample (when Violated).
	Trace *Trace
	// Decided is false if a budget was exhausted before the bound.
	Decided   bool
	Conflicts int64
	SATCalls  int
}

// Options configures BMC.
type Options struct {
	// MaxConflicts bounds each depth query (0 = unlimited).
	MaxConflicts int64
	// Solver carries base solver options.
	Solver solver.Options
	// Monitor, when non-nil, receives the incremental unrolling solver
	// for live progress sampling while CheckContext runs (conflicts,
	// restarts, glue share). The Monitor must be private to this run.
	Monitor *portfolio.Monitor
}

// unroller incrementally adds time frames to one solver.
type unroller struct {
	q       *Sequential
	s       *solver.Solver
	varOf   [][]cnf.Var // [frame][node] -> solver var
	numVars int
}

func newUnroller(q *Sequential, opts Options) *unroller {
	sopts := opts.Solver
	sopts.MaxConflicts = opts.MaxConflicts
	return &unroller{q: q, s: solver.New(0, sopts)}
}

// addFrame encodes frame t (0-based) and returns the bad literal of that
// frame. Frames must be added in order.
func (u *unroller) addFrame() cnf.Lit {
	t := len(u.varOf)
	scratch := cnf.New(u.s.NumVars())
	enc := circuit.EncodeInto(scratch, u.q.Comb)
	vars := make([]cnf.Var, len(u.q.Comb.Nodes))
	copy(vars, enc.VarOf)
	u.varOf = append(u.varOf, vars)
	u.s.AddFormula(scratch)
	if t == 0 {
		u.q.InitLatches(u.s, vars)
	} else {
		u.q.TieLatches(u.s, vars, u.varOf[t-1])
	}
	return cnf.PosLit(vars[u.q.Bad])
}

// Check runs BMC for depths 0..maxDepth and returns the first violation.
func Check(q *Sequential, maxDepth int, opts Options) *Result {
	return CheckContext(context.Background(), q, maxDepth, opts)
}

// CheckContext is Check under a context: cancelling ctx interrupts the
// current SAT query cooperatively (solver.Interrupt) and the run
// returns with Decided false. When opts.Monitor is set, the unrolling
// solver is attached to it for the duration of the run, so another
// goroutine can sample live progress.
func CheckContext(ctx context.Context, q *Sequential, maxDepth int, opts Options) *Result {
	res := &Result{}
	u := newUnroller(q, opts)
	stopWatch := context.AfterFunc(ctx, u.s.Interrupt)
	defer stopWatch()
	detach := opts.Monitor.Attach(0, 0, "bmc-unroll", u.s)
	defer detach("")
	for k := 0; k <= maxDepth; k++ {
		bad := u.addFrame()
		res.SATCalls++
		switch u.s.Solve(bad) {
		case solver.Sat:
			res.Violated = true
			res.Decided = true
			res.Depth = k
			res.Trace = u.extractTrace(k)
			res.Conflicts = u.s.Stats.Conflicts
			return res
		case solver.Unsat:
			// No violation at exactly depth k; continue deeper.
		default:
			res.Conflicts = u.s.Stats.Conflicts
			return res // budget exhausted: Decided stays false
		}
	}
	res.Decided = true
	res.Conflicts = u.s.Stats.Conflicts
	return res
}

func (u *unroller) extractTrace(k int) *Trace {
	m := u.s.Model()
	tr := &Trace{}
	free := u.q.FreeInputs()
	// Every frame 0..k contributes one state and one input vector: the
	// inputs at the violating frame itself matter too (bad is
	// combinational in frame k), so the trace carries k+1 input vectors
	// while reporting depth k.
	for t := 0; t <= k; t++ {
		st := make([]bool, len(u.q.Latches))
		for i, l := range u.q.Latches {
			st[i] = m.Value(u.varOf[t][l.Output]) == cnf.True
		}
		tr.States = append(tr.States, st)
		in := make([]bool, len(free))
		for i, id := range free {
			in[i] = m.Value(u.varOf[t][id]) == cnf.True
		}
		tr.Inputs = append(tr.Inputs, in)
	}
	return tr
}

// ReplayTrace simulates the trace and reports whether the bad signal
// fires at its final frame — used to validate counterexamples.
func ReplayTrace(q *Sequential, tr *Trace) bool {
	state := make([]bool, len(q.Latches))
	copy(state, tr.States[0])
	// Frames 0..depth-1 step; at the final frame only the bad output
	// matters.
	for t := 0; t < len(tr.Inputs); t++ {
		next, bad := q.Step(state, tr.Inputs[t])
		if t == len(tr.Inputs)-1 {
			return bad
		}
		state = next
	}
	return false
}

// Induction attempts to prove the property by k-induction with
// simple-path constraints: if no bad state is reachable in k steps from
// the initial state (base, via Check) and every length-k path of
// distinct states ending in a bad state is impossible (step), the
// property holds for all depths. It returns (proved, decided).
func Induction(q *Sequential, k int, opts Options) (bool, bool) {
	base := Check(q, k, opts)
	if !base.Decided {
		return false, false
	}
	if base.Violated {
		return false, true
	}
	// Step case: frames 0..k with free initial state, ¬bad in frames
	// 0..k-1, bad at frame k, all states pairwise distinct.
	sopts := opts.Solver
	sopts.MaxConflicts = opts.MaxConflicts
	s := solver.New(0, sopts)
	var frames [][]cnf.Var
	addFrame := func() []cnf.Var {
		scratch := cnf.New(s.NumVars())
		enc := circuit.EncodeInto(scratch, q.Comb)
		s.AddFormula(scratch)
		vars := make([]cnf.Var, len(q.Comb.Nodes))
		copy(vars, enc.VarOf)
		frames = append(frames, vars)
		return vars
	}
	for t := 0; t <= k; t++ {
		vars := addFrame()
		if t > 0 {
			q.TieLatches(s, vars, frames[t-1])
		}
		if t < k {
			s.AddClause(cnf.Clause{cnf.NegLit(vars[q.Bad])}) // ¬bad_t
		} else {
			s.AddClause(cnf.Clause{cnf.PosLit(vars[q.Bad])}) // bad_k
		}
	}
	// Simple-path: states pairwise distinct (some latch differs).
	for i := 0; i <= k; i++ {
		for j := i + 1; j <= k; j++ {
			diff := make(cnf.Clause, 0, len(q.Latches))
			for _, l := range q.Latches {
				scratch := cnf.New(s.NumVars())
				d := scratch.NewVar()
				circuit.AppendGateCNF(scratch, circuit.Xor, d,
					[]cnf.Var{frames[i][l.Output], frames[j][l.Output]})
				s.AddFormula(scratch)
				diff = append(diff, cnf.PosLit(d))
			}
			if len(diff) > 0 {
				s.AddClause(diff)
			}
		}
	}
	switch s.Solve() {
	case solver.Unsat:
		return true, true // induction step holds: property proved
	case solver.Sat:
		return false, true // step fails at this k
	}
	return false, false
}
