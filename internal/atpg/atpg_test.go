package atpg

import (
	"context"
	"hash/crc32"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/csat"
	"repro/internal/session"
	"repro/internal/solver"
)

func TestFaultUniverseAndCollapse(t *testing.T) {
	c := circuit.C17()
	all := FaultUniverse(c)
	// 11 nodes (5 PI + 6 gates) → 22 stem faults, plus branch faults on
	// fanout stems (nodes 3, 11, 16 have fanout 2 in c17).
	if len(all) < 22 {
		t.Fatalf("universe too small: %d", len(all))
	}
	collapsed := Collapse(c, all)
	if len(collapsed) >= len(all) {
		t.Fatalf("collapsing removed nothing: %d vs %d", len(collapsed), len(all))
	}
	for _, f := range collapsed {
		if f.Pin >= 0 && c.Nodes[f.Node].Type == circuit.Nand && !f.StuckAt {
			t.Fatalf("NAND input s-a-0 should be collapsed: %v", f)
		}
	}
}

func TestDetectsAgainstExhaustive(t *testing.T) {
	// For every fault and every input pattern of c17, Detects must agree
	// with comparing good/faulty single-pattern simulation.
	c := circuit.C17()
	faults := FaultUniverse(c)
	nIn := len(c.Inputs)
	for _, f := range faults {
		for pat := 0; pat < 1<<nIn; pat++ {
			words := make([]uint64, nIn)
			for i := 0; i < nIn; i++ {
				if pat&(1<<i) != 0 {
					words[i] = 1
				}
			}
			got := Detects(c, f, words)&1 == 1
			good := c.Simulate(words)
			bad := c.SimulateInject(words, f.Inject())
			want := false
			for _, o := range c.Outputs {
				if (good[o]^bad[o])&1 == 1 {
					want = true
				}
			}
			if got != want {
				t.Fatalf("fault %v pattern %b: Detects=%v want %v", f, pat, got, want)
			}
		}
	}
}

// Every generated pattern must actually detect its fault under fault
// simulation — the end-to-end soundness property of ATPG.
func patternDetects(t *testing.T, c *circuit.Circuit, f Fault, pat []cnf.LBool, seed int64) bool {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	words := make([]uint64, len(pat))
	for i, v := range pat {
		switch v {
		case cnf.True:
			words[i] = ^uint64(0)
		case cnf.False:
			words[i] = 0
		default:
			words[i] = rng.Uint64()
		}
	}
	// A partial pattern must detect under EVERY completion; check all-0,
	// all-1 and random completions of the X bits.
	det := Detects(c, f, words)
	if det != ^uint64(0) {
		// Patterns with X bits: require detection in every lane.
		for i, v := range pat {
			if v == cnf.Undef {
				continue
			}
			_ = i
		}
		return false
	}
	return true
}

func TestGeneratedPatternsDetect(t *testing.T) {
	circuits := map[string]*circuit.Circuit{
		"c17":   circuit.C17(),
		"adder": circuit.RippleCarryAdder(3),
		"rand":  circuit.RandomDAG(6, 20, 3, 11),
	}
	for name, c := range circuits {
		for _, structural := range []bool{false, true} {
			rep := GenerateTests(c, Options{Structural: structural, Seed: 3})
			if rep.Detected == 0 {
				t.Fatalf("%s structural=%v: nothing detected", name, structural)
			}
			for _, fr := range rep.Results {
				if fr.Status != Detected || fr.BySim {
					continue
				}
				if !patternDetects(t, c, fr.Fault, fr.Pattern, 99) {
					t.Fatalf("%s structural=%v: pattern %v does not detect %v",
						name, structural, fr.Pattern, fr.Fault)
				}
			}
		}
	}
}

func TestModesAgreeOnVerdicts(t *testing.T) {
	// Scratch, structural and session ATPG must classify every fault
	// identically (detected vs redundant).
	c := circuit.RandomDAG(5, 18, 3, 7)
	faults := Collapse(c, FaultUniverse(c))
	base := GenerateTestsFor(c, faults, Options{})
	str := GenerateTestsFor(c, faults, Options{Structural: true})
	m := session.NewManager(session.Config{})
	defer m.Close()
	ses, err := GenerateTestsSessionFor(context.Background(), m, c, faults, Options{})
	if err != nil {
		t.Fatal(err)
	}
	key := func(r *Report) map[string]Status {
		m := make(map[string]Status)
		for _, fr := range r.Results {
			m[fr.Fault.String()] = fr.Status
		}
		return m
	}
	kb, ks, ki := key(base), key(str), key(ses)
	for f, st := range kb {
		if ks[f] != st {
			t.Fatalf("fault %s: scratch=%v structural=%v", f, st, ks[f])
		}
		if ki[f] != st {
			t.Fatalf("fault %s: scratch=%v session=%v", f, st, ki[f])
		}
	}
}

func TestRedundantFaultDetection(t *testing.T) {
	// Build a circuit with deliberate redundancy: z = OR(AND(a,b), AND(a,b))
	// — the two AND gates are identical, so some faults inside are
	// untestable... Simpler guaranteed case: y = AND(a, NOT(a)) is
	// constant 0; the s-a-0 fault on y is undetectable.
	c := circuit.New()
	a := c.AddInput("a")
	na := c.AddGate(circuit.Not, "na", a)
	y := c.AddGate(circuit.And, "y", a, na)
	b := c.AddInput("b")
	z := c.AddGate(circuit.Or, "z", y, b)
	c.MarkOutput(z)

	fr := TestFault(c, Fault{Node: y, Pin: -1, StuckAt: false}, Options{})
	if fr.Status != Redundant {
		t.Fatalf("y s-a-0 should be redundant (y is constant 0), got %v", fr.Status)
	}
	// y s-a-1 is testable: set b=0, output flips from 0 to 1.
	fr = TestFault(c, Fault{Node: y, Pin: -1, StuckAt: true}, Options{})
	if fr.Status != Detected {
		t.Fatalf("y s-a-1 should be detected, got %v", fr.Status)
	}
	if !patternDetects(t, c, Fault{Node: y, Pin: -1, StuckAt: true}, fr.Pattern, 5) {
		t.Fatal("pattern fails to detect y s-a-1")
	}
}

func TestUnobservableFault(t *testing.T) {
	// A node with no path to any output is trivially redundant.
	c := circuit.New()
	a := c.AddInput("a")
	b := c.AddInput("b")
	dead := c.AddGate(circuit.And, "dead", a, b)
	z := c.AddGate(circuit.Or, "z", a, b)
	c.MarkOutput(z)
	fr := TestFault(c, Fault{Node: dead, Pin: -1, StuckAt: true}, Options{})
	if fr.Status != Redundant {
		t.Fatalf("unobservable fault should be redundant, got %v", fr.Status)
	}
}

func TestFaultSimDropping(t *testing.T) {
	c := circuit.RippleCarryAdder(4)
	noSim := GenerateTests(c, Options{Seed: 1})
	withSim := GenerateTests(c, Options{FaultSim: true, Seed: 1})
	if withSim.Detected+withSim.Redundant+withSim.Aborted != withSim.Total {
		t.Fatalf("accounting broken: %+v", withSim)
	}
	if withSim.SATCalls >= noSim.SATCalls {
		t.Fatalf("fault dropping should reduce SAT calls: %d vs %d", withSim.SATCalls, noSim.SATCalls)
	}
	if withSim.Detected != noSim.Detected || withSim.Redundant != noSim.Redundant {
		t.Fatalf("fault sim changed verdicts: %+v vs %+v", withSim, noSim)
	}
	if withSim.BySimulation == 0 {
		t.Fatal("no faults dropped by simulation")
	}
}

// sec5Run is one side of a pinned §5 row: the search effort and the
// patterns it produced.
type sec5Run struct {
	Decisions, Conflicts       int64
	SpecifiedBits, PatternBits int
	PatternCRC                 uint32
}

// patternCRC fingerprints a pattern list: one byte per input value and
// a separator byte after each pattern.
func patternCRC(pats [][]cnf.LBool) uint32 {
	var buf []byte
	for _, p := range pats {
		for _, v := range p {
			buf = append(buf, byte(v))
		}
		buf = append(buf, 0xff)
	}
	return crc32.ChecksumIEEE(buf)
}

// atpgRun runs one-shot ATPG over c's collapsed fault list.
func atpgRun(t *testing.T, c *circuit.Circuit, structural bool) sec5Run {
	rep := GenerateTests(c, Options{Structural: structural, Seed: 2})
	return sec5Run{rep.Decisions, rep.Conflicts, rep.SpecifiedBits, rep.PatternBits, patternCRC(rep.Tests)}
}

// objectiveRun solves "first output = 1" on c, bare or under the
// backtracing justification layer, and reads the input pattern off the
// model.
func objectiveRun(t *testing.T, c *circuit.Circuit, structural bool) sec5Run {
	f, enc := circuit.EncodeProperty(c, c.Outputs[0], true)
	s := solver.FromFormula(f, solver.Options{})
	if structural {
		csat.Attach(c, enc, s, csat.Options{Backtrace: true})
	}
	if s.Solve() != solver.Sat {
		t.Fatal("output objective must be SAT")
	}
	m := s.Model()
	pat := make([]cnf.LBool, len(c.Inputs))
	for i, id := range c.Inputs {
		pat[i] = m.Value(enc.VarOf[id])
	}
	return sec5Run{s.Stats.Decisions, s.Stats.Conflicts, csat.CountSpecified(pat), len(pat), patternCRC([][]cnf.LBool{pat})}
}

// TestStructuralReducesSpecifiedBits pins the §5 search, plain and under
// the justification layer: the exact effort and patterns of each side,
// and the paper's direction — structural patterns are less specified.
// The mux4 fault list reads 100 % vs 78.25 % specified, its output
// objective 18 vs 5 decisions.
func TestStructuralReducesSpecifiedBits(t *testing.T) {
	cases := []struct {
		name              string
		c                 *circuit.Circuit
		run               func(*testing.T, *circuit.Circuit, bool) sec5Run
		plain, structural sec5Run
	}{
		{"atpg/mux4", circuit.MuxTree(4), atpgRun,
			sec5Run{3256, 123, 3380, 3380, 0x8c435117}, sec5Run{4788, 495, 2645, 3380, 0x6ae2b58c}},
		{"atpg/c17", circuit.C17(), atpgRun,
			sec5Run{143, 39, 140, 140, 0xcbb05c0b}, sec5Run{90, 18, 93, 140, 0xd3aecf13}},
		{"atpg/rca4", circuit.RippleCarryAdder(4), atpgRun,
			sec5Run{1556, 188, 954, 954, 0x128509b5}, sec5Run{858, 242, 445, 954, 0xec4af80f}},
		{"atpg/rand8x40", circuit.RandomDAG(8, 40, 3, 2), atpgRun,
			sec5Run{3232, 967, 1416, 1416, 0x0e29079c}, sec5Run{992, 399, 587, 1416, 0xf62e70b7}},
		{"objective/mux4", circuit.MuxTree(4), objectiveRun,
			sec5Run{18, 0, 20, 20, 0x461037f1}, sec5Run{5, 0, 5, 20, 0x12a7849f}},
	}
	for _, tc := range cases {
		plain, str := tc.run(t, tc.c, false), tc.run(t, tc.c, true)
		if plain != tc.plain {
			t.Errorf("%s plain: got %#v, want %#v", tc.name, plain, tc.plain)
		}
		if str != tc.structural {
			t.Errorf("%s structural: got %#v, want %#v", tc.name, str, tc.structural)
		}
		if str.SpecifiedBits*plain.PatternBits >= plain.SpecifiedBits*str.PatternBits {
			t.Errorf("%s: structural layer did not reduce specification: %d/%d vs %d/%d",
				tc.name, str.SpecifiedBits, str.PatternBits, plain.SpecifiedBits, plain.PatternBits)
		}
	}
}

func TestCoverageAccounting(t *testing.T) {
	c := circuit.C17()
	rep := GenerateTests(c, Options{FaultSim: true, Seed: 9})
	if rep.Detected+rep.Redundant+rep.Aborted != rep.Total {
		t.Fatalf("accounting: %+v", rep)
	}
	// c17 has no redundant faults; full coverage expected.
	if rep.Redundant != 0 {
		t.Fatalf("c17 has no redundant faults, got %d", rep.Redundant)
	}
	if rep.Coverage() < 1.0 {
		t.Fatalf("coverage %.3f < 1 on c17", rep.Coverage())
	}
	if rep.Aborted != 0 {
		t.Fatalf("aborted faults on c17: %d", rep.Aborted)
	}
}

func TestFaultString(t *testing.T) {
	f := Fault{Node: 3, Pin: -1, StuckAt: true}
	if f.String() != "n3 s-a-1" {
		t.Fatalf("String = %q", f.String())
	}
	f2 := Fault{Node: 3, Pin: 2, StuckAt: false}
	if f2.String() != "n3.in2 s-a-0" {
		t.Fatalf("String = %q", f2.String())
	}
}

func TestMiterOnBranchFault(t *testing.T) {
	// Branch fault on a fanout stem must differ from the stem fault:
	// stem a feeds both AND gates; branch s-a-1 into g1 only affects g1.
	c := circuit.New()
	a := c.AddInput("a")
	b := c.AddInput("b")
	g1 := c.AddGate(circuit.And, "g1", a, b)
	g2 := c.AddGate(circuit.And, "g2", a, b)
	c.MarkOutput(g1)
	c.MarkOutput(g2)
	fr := TestFault(c, Fault{Node: g1, Pin: 0, StuckAt: true}, Options{})
	if fr.Status != Detected {
		t.Fatalf("branch fault should be detected: %v", fr.Status)
	}
	if !patternDetects(t, c, Fault{Node: g1, Pin: 0, StuckAt: true}, fr.Pattern, 1) {
		t.Fatal("branch fault pattern wrong")
	}
}

func TestCompactTestsPreservesCoverage(t *testing.T) {
	c := circuit.RippleCarryAdder(5)
	faults := Collapse(c, FaultUniverse(c))
	rep := GenerateTestsFor(c, faults, Options{Seed: 3})
	if len(rep.Tests) == 0 {
		t.Fatal("no tests")
	}
	compact := CompactTests(c, faults, rep.Tests, 7)
	if len(compact) > len(rep.Tests) {
		t.Fatalf("compaction grew the set: %d -> %d", len(rep.Tests), len(compact))
	}
	// Coverage must be preserved: every fault detected by the full set
	// is detected by the compacted set (same seed → same X fill).
	cover := func(tests [][]cnf.LBool, seed int64) map[string]bool {
		rng := rand.New(rand.NewSource(seed))
		var ws [][]uint64
		for _, pat := range tests {
			w := make([]uint64, len(pat))
			for j, v := range pat {
				switch v {
				case cnf.True:
					w[j] = ^uint64(0)
				case cnf.False:
					w[j] = 0
				default:
					w[j] = rng.Uint64()
				}
			}
			ws = append(ws, w)
		}
		m := map[string]bool{}
		for _, f := range faults {
			for _, w := range ws {
				if Detects(c, f, w) != 0 {
					m[f.String()] = true
					break
				}
			}
		}
		return m
	}
	// Note: different X fills between full and compacted runs can change
	// borderline detections; use fully-specified patterns (no X) from
	// the plain generator, which this config produces.
	full := cover(rep.Tests, 7)
	comp := cover(compact, 7)
	for f := range full {
		if !comp[f] {
			t.Fatalf("compaction lost coverage of %s (%d -> %d tests)", f, len(rep.Tests), len(compact))
		}
	}
	if len(compact) == len(rep.Tests) {
		t.Log("no compaction achieved on this instance (acceptable but unusual)")
	}
}

func TestCompactEmptyAndSingleton(t *testing.T) {
	c := circuit.C17()
	faults := FaultUniverse(c)
	if got := CompactTests(c, faults, nil, 1); len(got) != 0 {
		t.Fatal("empty set should stay empty")
	}
	rep := GenerateTests(c, Options{Seed: 1})
	one := rep.Tests[:1]
	got := CompactTests(c, faults, one, 1)
	if len(got) != 1 {
		t.Fatalf("singleton detecting tests should be kept, got %d", len(got))
	}
}

func TestCompactOptionInFlow(t *testing.T) {
	c := circuit.RippleCarryAdder(5)
	rep := GenerateTests(c, Options{Compact: true, Seed: 4})
	if rep.UncompactedTests == 0 {
		t.Fatal("UncompactedTests not recorded")
	}
	if len(rep.Tests) > rep.UncompactedTests {
		t.Fatalf("compaction grew set: %d -> %d", rep.UncompactedTests, len(rep.Tests))
	}
}
