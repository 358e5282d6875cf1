package workload

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/cec"
	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/gen"
)

// Want is what the oracle knows about an instance before any solver
// has seen it.
type Want int

// Ground-truth classes.
const (
	// WantAny: a random instance; a SAT answer is checked against the
	// model, an UNSAT answer only against the committed verdict list.
	WantAny Want = iota
	// WantSat / WantUnsat: known by construction (for CEC read
	// NOT_EQUIVALENT / EQUIVALENT, for BMC VIOLATED / SAFE).
	WantSat
	WantUnsat
)

// Instance is one generated operation: its input in the form the
// system under test receives, and what the oracle needs to judge the
// answer.
type Instance struct {
	// Kind is the job kind: dimacs, cec, bmc or batch.
	Kind string
	// Family groups instances for per-family reporting: rand, php,
	// miter, structured_sat for CNF; adder, mult, dag for CEC; counter,
	// lfsr for BMC.
	Family string
	Want   Want

	// F is the formula of a dimacs instance (kept for the model check);
	// Text is its DIMACS text, the solve_tier input.
	F    *cnf.Formula
	Text string
	// Left / Right are the circuits of a cec instance (kept to replay a
	// counter-example).
	Left, Right *circuit.Circuit
	// Depth is the bound of a bmc instance; WantDepth the first
	// violating frame when Want is WantSat.
	Depth, WantDepth int
	// Items are the jobs of a batch.
	Items []*Instance

	// Body is the pre-encoded HTTP request body (serve workloads).
	Body []byte
}

// spec mirrors serve.Spec's wire format; the benchmark speaks JSON, not
// the server's Go types.
type spec struct {
	Kind   string `json:"kind"`
	DIMACS string `json:"dimacs,omitempty"`
	Left   string `json:"left,omitempty"`
	Right  string `json:"right,omitempty"`
	Model  string `json:"model,omitempty"`
	Depth  int    `json:"depth,omitempty"`
	Proof  bool   `json:"proof,omitempty"`
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs of strings and ints reach here
	}
	return b
}

// --- CNF families ---------------------------------------------------------

// scramble returns f with its variables renamed by a random
// permutation, polarities flipped per variable, and clause and literal
// order shuffled. Satisfiability is preserved; the search a CDCL solver
// runs is not, so each seed gets a fresh instance of a fixed structure.
func scramble(f *cnf.Formula, rng *rand.Rand) *cnf.Formula {
	n := f.NumVars()
	perm := rng.Perm(n)
	flip := make([]bool, n)
	for i := range flip {
		flip[i] = rng.Intn(2) == 0
	}
	out := cnf.New(n)
	for _, ci := range rng.Perm(len(f.Clauses)) {
		c := f.Clauses[ci]
		nc := make(cnf.Clause, len(c))
		for j, li := range rng.Perm(len(c)) {
			l := c[li]
			v := int(l.Var()) - 1
			nc[j] = cnf.NewLit(cnf.Var(perm[v]+1), l.IsNeg() != flip[v])
		}
		out.AddClause(nc)
	}
	return out
}

// permute returns f with clause order and literal order shuffled and
// nothing else changed: the text differs, cnf.FormulaFingerprint does
// not.
func permute(f *cnf.Formula, rng *rand.Rand) *cnf.Formula {
	out := cnf.New(f.NumVars())
	for _, ci := range rng.Perm(len(f.Clauses)) {
		c := f.Clauses[ci]
		nc := make(cnf.Clause, len(c))
		for j, li := range rng.Perm(len(c)) {
			nc[j] = c[li]
		}
		out.AddClause(nc)
	}
	return out
}

func dimacs(family string, want Want, f *cnf.Formula) *Instance {
	return &Instance{Kind: "dimacs", Family: family, Want: want, F: f}
}

// rand3 is uniform random 3-SAT with n variables at the given
// clause/variable ratio.
func rand3(n int, ratio float64, rng *rand.Rand) *Instance {
	return dimacs("rand", WantAny, gen.RandomKSAT(n, int(ratio*float64(n)+0.5), 3, rng.Int63()))
}

func php(n int, rng *rand.Rand) *Instance {
	return dimacs("php", WantUnsat, scramble(gen.Pigeonhole(n), rng))
}

// miterFormula encodes "some output of a and b differs" as CNF.
func miterFormula(a, b *circuit.Circuit) *cnf.Formula {
	m, out, err := cec.BuildMiter(a, b)
	if err != nil {
		panic(err) // generators only pair circuits of equal interface
	}
	enc := circuit.Encode(m)
	enc.F.Add(enc.Lit(out, true))
	return enc.F
}

// miter is the CNF miter of two equivalent circuits: UNSAT by
// construction.
func miter(a, b *circuit.Circuit, rng *rand.Rand) *Instance {
	return dimacs("miter", WantUnsat, scramble(miterFormula(a, b), rng))
}

// withBug returns a copy of c whose output k is XORed with the AND of
// the first `width` inputs: the copy differs from c exactly on inputs
// where those are all 1, so the pair is non-equivalent by construction
// and the counter-examples are a 2^-width share of the input space.
func withBug(c *circuit.Circuit, k, width int) *circuit.Circuit {
	b := c.Clone()
	if width > len(b.Inputs) {
		width = len(b.Inputs)
	}
	var trig circuit.NodeID
	if width == 1 {
		trig = b.AddGate(circuit.Buf, "bug_trig", b.Inputs[0])
	} else {
		trig = b.AddGate(circuit.And, "bug_trig", b.Inputs[:width]...)
	}
	k %= len(b.Outputs)
	b.Outputs[k] = b.AddGate(circuit.Xor, "bug_out", b.Outputs[k], trig)
	return b
}

// buggyMiter is the CNF miter of a circuit against a bugged copy: SAT
// by construction.
func buggyMiter(c *circuit.Circuit, rng *rand.Rand) *Instance {
	return dimacs("structured_sat", WantSat, scramble(miterFormula(c, withBug(c, rng.Intn(8), 4+rng.Intn(3))), rng))
}

func queens(n int, rng *rand.Rand) *Instance {
	return dimacs("structured_sat", WantSat, scramble(gen.Queens(n), rng))
}

// colouring is 4-colouring of a sparse random graph: satisfiable in
// practice but not by construction, so it is judged like a random
// instance.
func colouring(nodes int, rng *rand.Rand) *Instance {
	return dimacs("structured_sat", WantAny, scramble(gen.GraphColoring(nodes, 3*nodes, 4, rng.Int63()), rng))
}

// --- CEC families ---------------------------------------------------------

func cecPair(family string, want Want, a, b *circuit.Circuit) (*Instance, error) {
	if _, err := circuit.BenchString(a, nil); err != nil {
		return nil, err
	}
	if _, err := circuit.BenchString(b, nil); err != nil {
		return nil, err
	}
	return &Instance{Kind: "cec", Family: family, Want: want, Left: a, Right: b}, nil
}

// dagPair pairs a random DAG with its structurally hashed copy. Strash
// may fold a gate to a constant, which .bench cannot express; such a
// draw is retried with the next seed.
func dagPair(gates int, rng *rand.Rand) *Instance {
	for {
		d := circuit.RandomDAG(16, gates, 3, rng.Int63())
		if in, err := cecPair("dag", WantUnsat, d, circuit.Strash(d)); err == nil {
			return in
		}
	}
}

func mustCEC(in *Instance, err error) *Instance {
	if err != nil {
		panic(err)
	}
	return in
}

func adderPair(n, block int) *Instance {
	return mustCEC(cecPair("adder", WantUnsat, circuit.RippleCarryAdder(n), circuit.CarrySkipAdder(n, block)))
}

func buggyAdderPair(n int, rng *rand.Rand) *Instance {
	a := circuit.RippleCarryAdder(n)
	return mustCEC(cecPair("adder", WantSat, a, withBug(a, rng.Intn(n), 3+rng.Intn(3))))
}

func multPair(n int) *Instance {
	return mustCEC(cecPair("mult", WantUnsat, circuit.ArrayMultiplier(n), circuit.ArrayMultiplier(n)))
}

// --- BMC families ---------------------------------------------------------

// counterModel is an n-bit counter with a free enable input, reset to
// 0, whose bad output fires when the count equals target: the shortest
// violation holds enable high for exactly target steps.
func counterModel(n int, target uint64) string {
	var b strings.Builder
	b.WriteString("INPUT(en)\nOUTPUT(bad)\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "q%d = DFF(d%d)\n", i, i)
	}
	carry := "en"
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "d%d = XOR(q%d, %s)\n", i, i, carry)
		if i < n-1 {
			fmt.Fprintf(&b, "c%d = AND(q%d, %s)\n", i+1, i, carry)
			carry = fmt.Sprintf("c%d", i+1)
		}
	}
	writeTarget(&b, n, target)
	return b.String()
}

// lfsrModel is an n-bit Fibonacci shift register with XNOR feedback
// from the given taps (so the all-zero reset state is not a fixed
// point); bad fires on target. It has no free input, so every frame
// is decided by propagation alone: the job costs what unrolling costs.
// (A free hold input was tried; proving "not yet reachable" then takes
// seconds at depth 40.)
func lfsrModel(n int, taps []int, target uint64) string {
	var b strings.Builder
	b.WriteString("OUTPUT(bad)\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "q%d = DFF(d%d)\n", i, i)
	}
	names := make([]string, len(taps))
	for i, t := range taps {
		names[i] = fmt.Sprintf("q%d", t)
	}
	fmt.Fprintf(&b, "d0 = XNOR(%s)\n", strings.Join(names, ", "))
	for i := 1; i < n; i++ {
		fmt.Fprintf(&b, "d%d = BUF(q%d)\n", i, i-1)
	}
	writeTarget(&b, n, target)
	return b.String()
}

func writeTarget(b *strings.Builder, n int, target uint64) {
	bits := make([]string, n)
	for i := 0; i < n; i++ {
		if target&(1<<uint(i)) != 0 {
			bits[i] = fmt.Sprintf("q%d", i)
		} else {
			fmt.Fprintf(b, "nq%d = NOT(q%d)\n", i, i)
			bits[i] = fmt.Sprintf("nq%d", i)
		}
	}
	fmt.Fprintf(b, "bad = AND(%s)\n", strings.Join(bits, ", "))
}

// lfsrState steps the XNOR register of lfsrModel.
func lfsrState(n int, taps []int, steps int) uint64 {
	var s uint64
	for ; steps > 0; steps-- {
		fb := uint64(1)
		for _, t := range taps {
			fb ^= s >> uint(t) & 1
		}
		s = (s<<1 | fb) & (1<<uint(n) - 1)
	}
	return s
}

// lfsrTaps are maximal-length tap sets by register width.
var lfsrTaps = map[int][]int{5: {4, 2}, 6: {5, 4}, 7: {6, 5}, 8: {7, 5, 4, 3}}

// counterJob checks a counter to a bound that either reaches the
// target (VIOLATED at exactly `target`) or stops short of it (SAFE).
func counterJob(n, target int, safe bool) *Instance {
	in := &Instance{Kind: "bmc", Family: "counter", Text: counterModel(n, uint64(target))}
	if safe {
		in.Want, in.Depth = WantUnsat, target-1
	} else {
		in.Want, in.Depth, in.WantDepth = WantSat, target+2, target
	}
	return in
}

// lfsrJob checks a shift register for the state it reaches after
// `steps` steps; the first violating depth is the first time the
// sequence visits that state.
func lfsrJob(n, steps int, safe bool) *Instance {
	taps := lfsrTaps[n]
	target := lfsrState(n, taps, steps)
	first := steps
	for k := 1; k < steps; k++ {
		if lfsrState(n, taps, k) == target {
			first = k
			break
		}
	}
	in := &Instance{Kind: "bmc", Family: "lfsr", Text: lfsrModel(n, taps, target)}
	if safe {
		in.Want, in.Depth = WantUnsat, first-1
	} else {
		in.Want, in.Depth, in.WantDepth = WantSat, first+2, first
	}
	return in
}

// --- encoding -------------------------------------------------------------

// encode fills in.Text (CNF) and in.Body. nonce makes the payload of a
// cec or bmc job unique without changing the work: those kinds are
// cached on their raw text, and a comment line is part of the text.
func (in *Instance) encode(proof bool, nonce string) {
	switch in.Kind {
	case "dimacs":
		if in.Text == "" {
			in.Text = cnf.DIMACSString(in.F)
		}
		in.Body = mustJSON(spec{Kind: "dimacs", DIMACS: in.Text, Proof: proof})
	case "cec":
		l, _ := circuit.BenchString(in.Left, nil) // checked by cecPair
		r, _ := circuit.BenchString(in.Right, nil)
		in.Body = mustJSON(spec{Kind: "cec", Left: "# " + nonce + "\n" + l, Right: r})
	case "bmc":
		in.Body = mustJSON(spec{Kind: "bmc", Model: "# " + nonce + "\n" + in.Text, Depth: in.Depth})
	case "batch":
		items := make([]spec, len(in.Items))
		for i, it := range in.Items {
			it.Text = cnf.DIMACSString(it.F)
			items[i] = spec{Kind: "dimacs", DIMACS: it.Text}
		}
		in.Body = mustJSON(map[string]any{"items": items})
	}
}

// --- schedules ------------------------------------------------------------

// cyc returns a function that walks vals round-robin. Mixes draw sizes
// (widths, depths, block sizes) from it rather than from the seed's
// random stream, so every seed runs the same multiset of sizes and the
// seed decides only what an instance of each size looks like.
func cyc(vals ...int) func() int {
	i := -1
	return func() int { i++; return vals[i%len(vals)] }
}

// slot is one entry of a workload's mix: a generator and its share.
type slot struct {
	weight int
	make   func(rng *rand.Rand) *Instance
}

// schedule expands a mix into n generator picks by smooth weighted
// round-robin: every prefix holds each slot in close to its share, and
// the order does not depend on the seed. The seed decides only what
// each generator draws, so two seeds run the same mix of sizes and
// kinds over different instances.
func schedule(mix []slot, n int) []int {
	total := 0
	for _, s := range mix {
		total += s.weight
	}
	cur := make([]int, len(mix))
	out := make([]int, n)
	for i := range out {
		best := 0
		for j, s := range mix {
			cur[j] += s.weight
			if cur[j] > cur[best] {
				best = j
			}
		}
		cur[best] -= total
		out[i] = best
	}
	return out
}

// generate draws n instances from mix in schedule order.
func generate(mix []slot, n int, rng *rand.Rand) []*Instance {
	out := make([]*Instance, n)
	for i, j := range schedule(mix, n) {
		out[i] = mix[j].make(rng)
	}
	return out
}

// deriveSeed splits a child seed off seed for the named stream
// (splitmix64 over the seed and an FNV hash of the label), so each
// workload and each stream inside it draws independently.
func deriveSeed(seed int64, label string) int64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(label); i++ {
		h = (h ^ uint64(label[i])) * 1099511628211
	}
	z := uint64(seed) + h + 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return int64((z ^ z>>31) >> 1)
}

func stream(seed int64, label string) *rand.Rand {
	return rand.New(rand.NewSource(deriveSeed(seed, label)))
}
