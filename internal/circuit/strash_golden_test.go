package circuit_test

import (
	"encoding/binary"
	"hash/crc32"
	"testing"

	"repro/internal/cec"
	"repro/internal/circuit"
)

// strashCRC digests a circuit's exact structure: every node's type,
// fanin list and name in node order, then the input and output lists.
func strashCRC(c *circuit.Circuit) uint32 {
	var buf []byte
	for _, n := range c.Nodes {
		buf = append(buf, byte(n.Type))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(n.Fanin)))
		for _, f := range n.Fanin {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(f))
		}
		buf = append(buf, n.Name...)
		buf = append(buf, 0)
	}
	for _, list := range [][]circuit.NodeID{c.Inputs, c.Outputs} {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(list)))
		for _, id := range list {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(id))
		}
	}
	return crc32.ChecksumIEEE(buf)
}

func mustMiter(t testing.TB, a, b *circuit.Circuit) *circuit.Circuit {
	t.Helper()
	m, _, err := cec.BuildMiter(a, b)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// strashGoldenCases are the circuits whose strashed form other code
// depends on byte for byte: the benchmark builds solve_tier's ALU-8
// miter and serve_heavy's random-DAG pairs with circuit.Strash, and the
// monolithic CEC check strashes every miter it decides.
func strashGoldenCases(t testing.TB) []struct {
	name string
	c    *circuit.Circuit
} {
	// names exercises the corners: constants whose default names are
	// taken, buffer chains, swapped and repeated fanins, wide gates.
	names := circuit.New()
	x := names.AddInput("one")
	y := names.AddInput("zero")
	z := names.AddInput("z")
	k0 := names.AddConst(false, "k0")
	k1 := names.AddConst(true, "k1")
	bx := names.AddGate(circuit.Buf, "bx", x)
	g1 := names.AddGate(circuit.And, "g1", bx, y, k1)
	g2 := names.AddGate(circuit.And, "g2", k1, y, x)
	g3 := names.AddGate(circuit.Xor, "g3", z, g1, z)
	g4 := names.AddGate(circuit.Nor, "g4", g2, k0, g3)
	g5 := names.AddGate(circuit.Not, "g5", g4)
	g6 := names.AddGate(circuit.Not, "g6", names.AddGate(circuit.Buf, "b4", g4))
	names.MarkOutput(g5)
	names.MarkOutput(g6)
	names.MarkOutput(bx)
	dag := func(g int, seed int64) *circuit.Circuit { return circuit.RandomDAG(16, g, 3, seed) }
	d := dag(240, 5)
	return []struct {
		name string
		c    *circuit.Circuit
	}{
		{"names", names},
		{"alu6", circuit.ALU(6)},
		{"alu8", circuit.ALU(8)},
		{"mult5", circuit.ArrayMultiplier(5)},
		{"dag220-s1", dag(220, 1)},
		{"dag240-s5", d},
		{"dag260-s2", dag(260, 2)},
		{"dag280-s3", dag(280, 3)},
		{"dag260-big", dag(260, 0x5deece66d1234)},
		{"miter-rca64-skip4", mustMiter(t, circuit.RippleCarryAdder(64), circuit.CarrySkipAdder(64, 4))},
		{"miter-mult5-self", mustMiter(t, circuit.ArrayMultiplier(5), circuit.ArrayMultiplier(5))},
		{"miter-dag240-strash", mustMiter(t, d, circuit.Strash(d))},
	}
}

// TestStrashGolden pins Strash's exact output — node order, names,
// fanins, inputs and outputs — on the circuits listed above. A faster
// Strash must reproduce every row; a row that changes changes the
// benchmark's workloads themselves.
func TestStrashGolden(t *testing.T) {
	want := map[string]struct {
		nodes int
		crc   uint32
	}{
		"names":               {9, 0x7c6fcd3a},
		"alu6":                {87, 0x1c9e924d},
		"alu8":                {113, 0xc8f9b577},
		"mult5":               {120, 0x2cb47b66},
		"dag220-s1":           {233, 0xc25316fc},
		"dag240-s5":           {255, 0x8f3104b1},
		"dag260-s2":           {272, 0x366f84e4},
		"dag280-s3":           {291, 0x8c5174a3},
		"dag260-big":          {271, 0xb467c680},
		"miter-rca64-skip4":   {775, 0x0bbc28e8},
		"miter-mult5-self":    {131, 0xcf80785f},
		"miter-dag240-strash": {338, 0x18663b8f},
	}
	for _, tc := range strashGoldenCases(t) {
		s := circuit.Strash(tc.c)
		got := struct {
			nodes int
			crc   uint32
		}{len(s.Nodes), strashCRC(s)}
		if got != want[tc.name] {
			t.Errorf("%s: got nodes %d crc %#08x, want nodes %d crc %#08x",
				tc.name, got.nodes, got.crc, want[tc.name].nodes, want[tc.name].crc)
		}
	}
}

func BenchmarkStrash(b *testing.B) {
	for _, tc := range strashGoldenCases(b) {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				circuit.Strash(tc.c)
			}
		})
	}
}
