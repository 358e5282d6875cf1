package atpg

import (
	"repro/internal/bmc"
	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/solver"
)

// Sequential ATPG by time-frame expansion (paper §3's testing
// applications applied to state machines): a single stuck-at fault in a
// sequential circuit needs a test SEQUENCE — the fault is present in
// every time frame, both machines start from the same reset state, and
// detection means some primary output differs at some frame. Each
// candidate depth unrolls one more frame of a good/faulty machine pair
// sharing the free inputs, with the query posed incrementally to one
// solver (§6), exactly like BMC.

// SeqOptions configures sequential test generation.
type SeqOptions struct {
	// MaxDepth bounds the unrolling (0 = 20).
	MaxDepth int
	// MaxConflicts bounds each depth's SAT query (0 = unlimited).
	MaxConflicts int64
	// Solver carries base solver options.
	Solver solver.Options
}

// SeqResult reports sequential test generation for one fault.
type SeqResult struct {
	Status Status // Detected, or Aborted when undecided
	// Undetectable is true when every depth up to the bound was proven
	// UNSAT; unlike the combinational case this does NOT prove
	// redundancy (a longer sequence may exist), only bounded
	// untestability.
	Undetectable bool
	// Depth is the detecting frame (when Detected).
	Depth int
	// Sequence holds the free-input vectors, one per frame 0..Depth.
	Sequence [][]bool
	SATCalls int
}

// TestSequentialFault searches for a test sequence detecting the fault.
func TestSequentialFault(q *bmc.Sequential, flt Fault, opts SeqOptions) SeqResult {
	if opts.MaxDepth == 0 {
		opts.MaxDepth = 20
	}
	res := SeqResult{Status: Aborted}
	sopts := opts.Solver
	sopts.MaxConflicts = opts.MaxConflicts
	s := solver.New(0, sopts)

	free := q.FreeInputs()
	freeIdx := make(map[circuit.NodeID]bool, len(free))
	for _, in := range free {
		freeIdx[in] = true
	}

	type frame struct {
		good, bad []cnf.Var // node vars per copy
	}
	var frames []frame

	addCopy := func(faulty bool, shared map[circuit.NodeID]cnf.Var) []cnf.Var {
		scratch := cnf.New(s.NumVars())
		vars := make([]cnf.Var, len(q.Comb.Nodes))
		// Allocate node variables (reusing shared input vars).
		for i := range q.Comb.Nodes {
			id := circuit.NodeID(i)
			if v, ok := shared[id]; ok {
				vars[i] = v
				continue
			}
			vars[i] = scratch.NewVar()
		}
		for i := range q.Comb.Nodes {
			n := &q.Comb.Nodes[i]
			id := circuit.NodeID(i)
			if n.Type == circuit.Input {
				continue
			}
			if faulty && flt.Pin < 0 && id == flt.Node {
				// Stem fault: the node is stuck.
				scratch.Add(cnf.NewLit(vars[i], !flt.StuckAt))
				continue
			}
			ins := make([]cnf.Var, len(n.Fanin))
			for j, fn := range n.Fanin {
				ins[j] = vars[fn]
			}
			if faulty && flt.Pin >= 0 && id == flt.Node {
				pin := scratch.NewVar()
				scratch.Add(cnf.NewLit(pin, !flt.StuckAt))
				ins[flt.Pin] = pin
			}
			circuit.AppendGateCNF(scratch, n.Type, vars[i], ins)
		}
		s.AddFormula(scratch)
		return vars
	}

	for t := 0; t <= opts.MaxDepth; t++ {
		// Free inputs of this frame are shared between the copies.
		shared := make(map[circuit.NodeID]cnf.Var, len(free))
		for _, in := range free {
			shared[in] = s.NewVar()
		}
		good := addCopy(false, shared)
		bad := addCopy(true, shared)
		if t == 0 {
			q.InitLatches(s, good)
			q.InitLatches(s, bad)
		} else {
			q.TieLatches(s, good, frames[t-1].good)
			q.TieLatches(s, bad, frames[t-1].bad)
		}
		frames = append(frames, frame{good: good, bad: bad})

		// Detection objective at frame t: some primary output differs.
		scratch := cnf.New(s.NumVars())
		diff := make(cnf.Clause, 0, len(q.Comb.Outputs))
		for _, o := range q.Comb.Outputs {
			d := scratch.NewVar()
			circuit.AppendGateCNF(scratch, circuit.Xor, d, []cnf.Var{good[o], bad[o]})
			diff = append(diff, cnf.PosLit(d))
		}
		act := scratch.NewVar()
		s.AddFormula(scratch)
		s.AddClause(append(diff, cnf.NegLit(act)))

		res.SATCalls++
		switch s.Solve(cnf.PosLit(act)) {
		case solver.Sat:
			res.Status = Detected
			res.Depth = t
			m := s.Model()
			for ft := 0; ft <= t; ft++ {
				vec := make([]bool, len(free))
				for i, in := range free {
					// Input vars were allocated per frame in order; they
					// live in frames[ft].good (shared with bad).
					vec[i] = m.Value(frames[ft].good[in]) == cnf.True
				}
				res.Sequence = append(res.Sequence, vec)
			}
			return res
		case solver.Unsat:
			s.AddClause(cnf.Clause{cnf.NegLit(act)}) // retire this depth
		default:
			return res // budget exhausted
		}
	}
	res.Undetectable = true
	res.Status = Redundant // bounded-untestable (see Undetectable doc)
	return res
}

// VerifySequence replays a test sequence against the good and faulty
// machines and reports whether some output differs at the final frame
// (or any earlier frame).
func VerifySequence(q *bmc.Sequential, flt Fault, seq [][]bool) bool {
	free := q.FreeInputs()
	idxOf := make(map[circuit.NodeID]int)
	for i, in := range q.Comb.Inputs {
		idxOf[in] = i
	}
	goodState := q.InitialState()
	badState := q.InitialState()
	inj := flt.Inject()
	for _, vec := range seq {
		full := make([]uint64, len(q.Comb.Inputs))
		for i, in := range free {
			if vec[i] {
				full[idxOf[in]] = 1
			}
		}
		gf := make([]uint64, len(q.Comb.Inputs))
		bf := make([]uint64, len(q.Comb.Inputs))
		copy(gf, full)
		copy(bf, full)
		for i, l := range q.Latches {
			if goodState[i] {
				gf[idxOf[l.Output]] = 1
			}
			if badState[i] {
				bf[idxOf[l.Output]] = 1
			}
		}
		gv := q.Comb.Simulate(gf)
		bv := q.Comb.SimulateInject(bf, inj)
		for _, o := range q.Comb.Outputs {
			if gv[o]&1 != bv[o]&1 {
				return true
			}
		}
		for i, l := range q.Latches {
			goodState[i] = gv[l.Input]&1 == 1
			badState[i] = bv[l.Input]&1 == 1
		}
	}
	return false
}
