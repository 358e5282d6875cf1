package sateda

import (
	"fmt"
	"hash/crc32"
	"strings"
	"testing"

	"repro/internal/atpg"
	"repro/internal/bmc"
	"repro/internal/cec"
	"repro/internal/circuit"
)

// TestIncrementalSearchGolden pins the search of every engine that adds
// clauses to one solver between queries (§6): BMC unrolling (verdict,
// depth, SAT calls, conflicts and the full trace), k-induction,
// sequential ATPG over whole fault lists (status, depth, calls and
// every test sequence), and CEC's internal-equivalence sweep
// (candidates, proven pairs, calls, conflicts). Long renderings are
// folded into a CRC-32. A change to how frames, latch ties or miter
// pairs reach the solver that moves any search shows up here.
func TestIncrementalSearchGolden(t *testing.T) {
	models := []struct {
		name string
		q    *bmc.Sequential
	}{
		{"counter6", bmc.NewCounter(6, 20)},
		{"ring8", bmc.NewRingOneHot(8)},
		{"loadable5", bmc.NewLoadableCounter(5, 21)},
		{"lfsr8", bmc.NewLFSR(8, []int{7, 5, 4, 3}, 0x5a)},
	}
	got := map[string]string{}
	for _, m := range models {
		res := bmc.Check(m.q, 24, bmc.Options{})
		row := fmt.Sprintf("violated=%v depth=%d decided=%v calls=%d conflicts=%d",
			res.Violated, res.Depth, res.Decided, res.SATCalls, res.Conflicts)
		if res.Trace != nil {
			row += fmt.Sprintf(" trace=%08x", crc32.ChecksumIEEE([]byte(renderBits(res.Trace.Inputs)+"|"+renderBits(res.Trace.States))))
		}
		got["bmc/"+m.name] = row

		for k := 1; k <= 2; k++ {
			proved, decided := bmc.Induction(m.q, k, bmc.Options{})
			got[fmt.Sprintf("induction/%s/k=%d", m.name, k)] = fmt.Sprintf("proved=%v decided=%v", proved, decided)
		}

		faults := atpg.Collapse(m.q.Comb, atpg.FaultUniverse(m.q.Comb))
		var seqs strings.Builder
		var detected, undetectable, aborted, calls int
		for _, flt := range faults {
			r := atpg.TestSequentialFault(m.q, flt, atpg.SeqOptions{MaxDepth: 6})
			switch {
			case r.Status == atpg.Detected:
				detected++
			case r.Undetectable:
				undetectable++
			default:
				aborted++
			}
			calls += r.SATCalls
			fmt.Fprintf(&seqs, "%s %s %d %s\n", flt, r.Status, r.Depth, renderBits(r.Sequence))
		}
		got["seqatpg/"+m.name] = fmt.Sprintf("faults=%d detected=%d undetectable=%d aborted=%d calls=%d seqs=%08x",
			len(faults), detected, undetectable, aborted, calls, crc32.ChecksumIEEE([]byte(seqs.String())))
	}

	pairs := []struct {
		name string
		a, b *circuit.Circuit
	}{
		{"rca12", circuit.RippleCarryAdder(12), circuit.RippleCarryAdderNAND(12)},
		{"alu6", circuit.ALU(6), circuit.Strash(circuit.ALU(6))},
		{"mult5", circuit.ArrayMultiplier(5), circuit.Strash(circuit.ArrayMultiplier(5))},
	}
	for _, p := range pairs {
		res, err := cec.Check(p.a, p.b, cec.Options{Internal: true, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		got["cec/"+p.name] = fmt.Sprintf("equivalent=%v decided=%v candidates=%d proven=%d calls=%d conflicts=%d",
			res.Equivalent, res.Decided, res.Candidates, res.Proven, res.SATCalls, res.Conflicts)
	}

	for name, want := range incrementalSearchGolden {
		if got[name] != want {
			t.Errorf("%s:\n got %s\nwant %s", name, got[name], want)
		}
	}
	for name, row := range got {
		if _, ok := incrementalSearchGolden[name]; !ok {
			t.Errorf("no golden row for %s: %q", name, row)
		}
	}
}

// renderBits writes per-frame bit vectors as 0/1 strings joined by '.'.
func renderBits(frames [][]bool) string {
	var b strings.Builder
	for i, v := range frames {
		if i > 0 {
			b.WriteByte('.')
		}
		for _, bit := range v {
			if bit {
				b.WriteByte('1')
			} else {
				b.WriteByte('0')
			}
		}
	}
	return b.String()
}

// incrementalSearchGolden holds the expected rows. A mismatch means the
// search moved: update a row only in a change meant to move it.
var incrementalSearchGolden = map[string]string{
	"bmc/counter6":            "violated=true depth=20 decided=true calls=21 conflicts=0 trace=411fb0cc",
	"bmc/lfsr8":               "violated=false depth=0 decided=true calls=25 conflicts=0",
	"bmc/loadable5":           "violated=true depth=1 decided=true calls=2 conflicts=0 trace=cc5481ef",
	"bmc/ring8":               "violated=false depth=0 decided=true calls=25 conflicts=0",
	"cec/alu6":                "equivalent=true decided=true candidates=95 proven=95 calls=96 conflicts=423",
	"cec/mult5":               "equivalent=true decided=true candidates=132 proven=128 calls=133 conflicts=923",
	"cec/rca12":               "equivalent=true decided=true candidates=49 proven=49 calls=50 conflicts=270",
	"induction/counter6/k=1":  "proved=false decided=true",
	"induction/counter6/k=2":  "proved=false decided=true",
	"induction/lfsr8/k=1":     "proved=false decided=true",
	"induction/lfsr8/k=2":     "proved=false decided=true",
	"induction/loadable5/k=1": "proved=false decided=true",
	"induction/loadable5/k=2": "proved=false decided=true",
	"induction/ring8/k=1":     "proved=true decided=true",
	"induction/ring8/k=2":     "proved=true decided=true",
	"seqatpg/counter6":        "faults=78 detected=4 undetectable=74 aborted=0 calls=534 seqs=8d9a3444",
	"seqatpg/lfsr8":           "faults=54 detected=1 undetectable=53 aborted=0 calls=372 seqs=6eaa6727",
	"seqatpg/loadable5":       "faults=117 detected=88 undetectable=29 aborted=0 calls=440 seqs=511ac4a0",
	"seqatpg/ring8":           "faults=160 detected=102 undetectable=58 aborted=0 calls=706 seqs=d7141601",
}
