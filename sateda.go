// Package sateda is a Boolean-satisfiability toolkit for electronic
// design automation, reproducing Marques-Silva & Sakallah, "Boolean
// Satisfiability in Electronic Design Automation" (DAC 2000).
//
// It bundles a GRASP-style CDCL SAT solver with every technique the
// paper surveys (non-chronological backtracking, clause recording,
// relevance-based learning, restarts and randomization, recursive
// learning on CNF formulas, equivalency reasoning, incremental solving,
// the structural circuit-SAT layer with justification frontiers) and the
// EDA applications built on them: ATPG, redundancy removal, delay
// computation and path delay fault testing, combinational equivalence
// checking, bounded model checking, functional vector generation,
// covering/pseudo-Boolean optimization, prime implicants and SAT-based
// routing.
//
// This facade re-exports the user-facing API; implementation lives in
// the internal packages. Typical usage:
//
//	f := sateda.NewFormula(3)
//	f.AddDIMACS(1, 2)
//	f.AddDIMACS(-1, 3)
//	s := sateda.NewSolver(f, sateda.SolverOptions{})
//	if s.Solve() == sateda.Sat {
//	    m := s.Model()
//	    _ = m
//	}
//
// See the examples directory for complete application flows.
package sateda

import (
	"repro/internal/atpg"
	"repro/internal/bmc"
	"repro/internal/cec"
	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/csat"
	"repro/internal/delay"
	"repro/internal/funcvec"
	"repro/internal/gen"
	"repro/internal/portfolio"
	"repro/internal/redund"
	"repro/internal/route"
	"repro/internal/solver"
	"repro/internal/xtalk"
)

// CNF layer.
type (
	// Var is a propositional variable (1-based).
	Var = cnf.Var
	// Lit is a literal (variable or complement).
	Lit = cnf.Lit
	// Clause is a disjunction of literals.
	Clause = cnf.Clause
	// Formula is a CNF formula.
	Formula = cnf.Formula
	// Assignment maps variables to three-valued results.
	Assignment = cnf.Assignment
	// LBool is a three-valued Boolean.
	LBool = cnf.LBool
)

// Three-valued constants.
const (
	True  = cnf.True
	False = cnf.False
	Undef = cnf.Undef
)

// NewFormula returns an empty CNF formula with n variables.
func NewFormula(n int) *Formula { return cnf.New(n) }

// PosLit and NegLit construct literals.
var (
	PosLit = cnf.PosLit
	NegLit = cnf.NegLit
)

// ParseDIMACS reads DIMACS CNF; WriteDIMACS writes it.
var (
	ParseDIMACS = cnf.ParseDIMACS
	WriteDIMACS = cnf.WriteDIMACS
)

// Solver layer (paper §4, §6).
type (
	// Solver is the incremental CDCL solver.
	Solver = solver.Solver
	// SolverOptions configures it.
	SolverOptions = solver.Options
	// Status is a solve verdict.
	Status = solver.Status
	// SolverProgress is a race-free snapshot of a running search
	// (Solver.Snapshot), the probe adaptive scheduling samples.
	SolverProgress = solver.Progress
	// Theory is the structural layer of §5 as the solver sees it: it is
	// handed the trail right before each Done and Suggest call.
	Theory = solver.Theory
)

// Solve verdicts.
const (
	Sat     = solver.Sat
	Unsat   = solver.Unsat
	Unknown = solver.Unknown
)

// NewSolver builds a solver loaded with f.
func NewSolver(f *Formula, opts SolverOptions) *Solver {
	return solver.FromFormula(f, opts)
}

// Parallel portfolio layer: diversified solver configurations racing on
// goroutines with learned-clause sharing (§6 randomization/restart
// diversity turned into multicore speedup).
type (
	// Portfolio races diversified solvers over one formula.
	Portfolio = portfolio.Portfolio
	// PortfolioOptions configures worker count, sharing and recipes.
	PortfolioOptions = portfolio.Options
	// PortfolioResult is the aggregate outcome with per-worker stats.
	PortfolioResult = portfolio.Result
	// PortfolioWorkerReport is one worker's verdict and statistics
	// (under adaptive scheduling: one lineage entry per worker ever
	// run, with slot, generation and reason-for-death).
	PortfolioWorkerReport = portfolio.WorkerReport
	// PortfolioPoolStats reports the shared pool's dynamic-admission
	// counters.
	PortfolioPoolStats = portfolio.PoolStats
)

// NewPortfolio builds a reusable portfolio over f; SolvePortfolio is the
// one-shot convenience (pass context.Background() when no cancellation
// or deadline is needed).
var (
	NewPortfolio   = portfolio.New
	SolvePortfolio = portfolio.Solve
)

// Pipeline is the full Preprocess+Learn+Search stack of Figure 2.
type (
	// PipelineOptions configures core.Solve.
	PipelineOptions = core.Options
	// PipelineAnswer is its verdict.
	PipelineAnswer = core.Answer
)

// SolvePipeline runs preprocessing, recursive learning and search;
// SolvePipelineContext is the cancellable/deadline-aware variant.
var (
	SolvePipeline        = core.Solve
	SolvePipelineContext = core.SolveContext
)

// Circuit layer (paper §2, §5).
type (
	// Circuit is a gate-level combinational netlist.
	Circuit = circuit.Circuit
	// GateType enumerates gate functions.
	GateType = circuit.GateType
	// NodeID identifies a circuit node.
	NodeID = circuit.NodeID
	// Encoding maps a circuit to CNF (Table 1).
	Encoding = circuit.Encoding
	// StructuralLayer is the justification-frontier theory of §5.
	StructuralLayer = csat.Layer
	// StructuralOptions configures it.
	StructuralOptions = csat.Options
)

// Gate types (Table 1).
const (
	Input = circuit.Input
	And   = circuit.And
	Nand  = circuit.Nand
	Or    = circuit.Or
	Nor   = circuit.Nor
	Xor   = circuit.Xor
	Xnor  = circuit.Xnor
	Not   = circuit.Not
	Buf   = circuit.Buf
)

// Circuit constructors and I/O.
var (
	NewCircuit     = circuit.New
	ParseBench     = circuit.ParseBench
	WriteBench     = circuit.WriteBench
	EncodeCircuit  = circuit.Encode
	EncodeProperty = circuit.EncodeProperty
	AttachLayer    = csat.Attach
)

// Application layers (paper §3).
type (
	// ATPGOptions configures test generation; ATPGReport aggregates it.
	ATPGOptions = atpg.Options
	ATPGReport  = atpg.Report
	// Fault is a single stuck-at fault.
	Fault = atpg.Fault
	// CECOptions / CECResult drive equivalence checking.
	CECOptions = cec.Options
	CECResult  = cec.Result
	// Sequential is a sequential circuit for BMC.
	Sequential = bmc.Sequential
	// BMCOptions / BMCResult drive bounded model checking.
	BMCOptions = bmc.Options
	BMCResult  = bmc.Result
	// DelayOptions / DelayResult drive delay computation.
	DelayOptions = delay.Options
	DelayResult  = delay.Result
	// SeqOptions / SeqResult drive sequential (time-frame) ATPG.
	SeqOptions = atpg.SeqOptions
	SeqResult  = atpg.SeqResult
	// RedundOptions / RedundReport drive redundancy removal.
	RedundOptions = redund.Options
	RedundReport  = redund.Report
	// CoverProblem is a (binate) covering problem.
	CoverProblem = cover.Problem
	// FuncVecModel is a word-level constraint model.
	FuncVecModel = funcvec.Model
	// Channel is a channel-routing instance; Grid a detailed-routing one.
	Channel = route.Channel
	Grid    = route.Grid
	// Coupling describes a crosstalk victim/aggressor neighbourhood.
	Coupling = xtalk.Coupling
	// XtalkResult reports worst-case feasible aligned noise.
	XtalkResult = xtalk.Result
)

// Application entry points.
var (
	GenerateTests     = atpg.GenerateTests
	TestFault         = atpg.TestFault
	TestSeqFault      = atpg.TestSequentialFault
	CheckEquivalence  = cec.Check
	BMCCheck          = bmc.Check
	BMCInduction      = bmc.Induction
	ComputeDelay      = delay.ComputeDelay
	GeneratePathTest  = delay.GeneratePathTest
	KLongestPaths     = delay.KLongestSensitizable
	VerifySequence    = atpg.VerifySequence
	RemoveRedundancy  = redund.Remove
	IdentifyRedundant = redund.Identify
	SolveCoverSAT     = cover.SolveSAT
	SolveCoverBB      = cover.SolveBB
	MinPrimeImplicant = cover.MinPrimeImplicant
	NewFuncVecModel   = funcvec.NewModel
	RouteChannel      = route.RouteChannel
	MinTracks         = route.MinTracks
	RouteGrid         = route.RouteGrid
	MaxAlignedNoise   = xtalk.MaxAlignedNoise
	Strash            = circuit.Strash
	CompactTests      = atpg.CompactTests
	ReduceCover       = cover.Reduce
	VerifyUnsat       = solver.VerifyUnsat
	VerifyModel       = solver.VerifyModel
)

// Workload generators.
var (
	RandomKSAT      = gen.RandomKSAT
	Random3SATHard  = gen.Random3SATHard
	Pigeonhole      = gen.Pigeonhole
	XorChain        = gen.XorChain
	Queens          = gen.Queens
	GraphColoring   = gen.GraphColoring
	RippleAdder     = circuit.RippleCarryAdder
	CarrySkipAdder  = circuit.CarrySkipAdder
	ArrayMultiplier = circuit.ArrayMultiplier
	ALU             = circuit.ALU
	ParityTree      = circuit.ParityTree
	MuxTree         = circuit.MuxTree
	RandomDAG       = circuit.RandomDAG
	C17             = circuit.C17
	NewCounter      = bmc.NewCounter
	NewRingOneHot   = bmc.NewRingOneHot
)
