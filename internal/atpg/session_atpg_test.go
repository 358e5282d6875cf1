package atpg

import (
	"context"
	"sync"
	"testing"

	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/session"
)

// TestSessionATPGParity is the acceptance check for the session-backed
// engine: the whole fault list run through one resident session must
// produce per-fault verdicts identical to the one-shot path (and the
// in-process incremental path) — same detected/redundant split, and
// every generated pattern actually detects its fault.
func TestSessionATPGParity(t *testing.T) {
	circuits := map[string]*circuit.Circuit{
		"c17":  circuit.C17(),
		"dag":  circuit.RandomDAG(8, 40, 3, 7),
		"dag2": circuit.RandomDAG(6, 25, 2, 11),
	}
	if !testing.Short() {
		// The benchmark's fault lists: long enough that the shared
		// solver sweeps and retires hundreds of times per list.
		circuits["alu8"] = circuit.ALU(8)
		circuits["mult5"] = circuit.ArrayMultiplier(5)
		circuits["rca32"] = circuit.RippleCarryAdder(32)
	}
	for name, c := range circuits {
		t.Run(name, func(t *testing.T) {
			faults := Collapse(c, FaultUniverse(c))
			oneShot := GenerateTestsFor(c, faults, Options{})
			inProc := GenerateTestsFor(c, faults, Options{Incremental: true})

			m := session.NewManager(session.Config{})
			defer m.Close()
			viaSession, err := GenerateTestsSessionFor(context.Background(), m, c, faults, Options{})
			if err != nil {
				t.Fatal(err)
			}

			if viaSession.Detected != oneShot.Detected || viaSession.Redundant != oneShot.Redundant || viaSession.Aborted != oneShot.Aborted {
				t.Fatalf("session %d/%d/%d vs one-shot %d/%d/%d (detected/redundant/aborted)",
					viaSession.Detected, viaSession.Redundant, viaSession.Aborted,
					oneShot.Detected, oneShot.Redundant, oneShot.Aborted)
			}
			if viaSession.Detected != inProc.Detected || viaSession.Redundant != inProc.Redundant {
				t.Fatalf("session %d/%d vs incremental %d/%d (detected/redundant)",
					viaSession.Detected, viaSession.Redundant, inProc.Detected, inProc.Redundant)
			}
			// Per-fault verdict agreement, not just aggregate counts.
			verdict := make(map[string]Status, len(oneShot.Results))
			for _, fr := range oneShot.Results {
				verdict[fr.Fault.String()] = fr.Status
			}
			for _, fr := range viaSession.Results {
				if want, ok := verdict[fr.Fault.String()]; ok && want != fr.Status {
					t.Errorf("fault %s: session %s, one-shot %s", fr.Fault, fr.Status, want)
				}
			}
			// Patterns must really detect their faults (64-lane fault
			// simulation with the X bits zero-filled is sound here because
			// SAT patterns from the plain encoding are fully specified).
			for _, fr := range viaSession.Results {
				if fr.Status != Detected || fr.Pattern == nil {
					continue
				}
				words := make([]uint64, len(fr.Pattern))
				for i, v := range fr.Pattern {
					if v == cnf.True {
						words[i] = ^uint64(0)
					}
				}
				if Detects(c, fr.Fault, words) == 0 {
					t.Errorf("fault %s: session pattern does not detect it", fr.Fault)
				}
			}
			for _, fr := range inProc.Results {
				if want := verdict[fr.Fault.String()]; want != fr.Status {
					t.Errorf("fault %s: incremental %s, one-shot %s", fr.Fault, fr.Status, want)
				}
			}
			if viaSession.Conflicts < 0 || viaSession.SATCalls == 0 {
				t.Fatalf("bogus session report: %+v", viaSession)
			}
			// The engine's session was evicted on return.
			if st := m.Stats(); st.Sessions != 0 {
				t.Fatalf("session leaked: %d still registered", st.Sessions)
			}
		})
	}
}

// TestSessionATPGAddedClausesPersist checks the retire mechanism: after
// a full run, re-running the same fault list in the SAME manager (new
// session) still yields the same verdicts — i.e. one run's retirement
// units never leak into another session.
func TestSessionATPGIsolation(t *testing.T) {
	c := circuit.C17()
	faults := Collapse(c, FaultUniverse(c))
	m := session.NewManager(session.Config{})
	defer m.Close()

	first, err := GenerateTestsSessionFor(context.Background(), m, c, faults, Options{})
	if err != nil {
		t.Fatal(err)
	}
	second, err := GenerateTestsSessionFor(context.Background(), m, c, faults, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if first.Detected != second.Detected || first.Redundant != second.Redundant {
		t.Fatalf("run 1 %d/%d vs run 2 %d/%d", first.Detected, first.Redundant, second.Detected, second.Redundant)
	}
}

// TestFaultsContextCancel: a cancelled context aborts the remaining
// faults without SAT calls, for both engines and the session path.
func TestFaultsContextCancel(t *testing.T) {
	c := circuit.RandomDAG(8, 40, 3, 7)
	faults := Collapse(c, FaultUniverse(c))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	for _, opts := range []Options{{}, {Incremental: true}} {
		rep := TestFaultsContext(ctx, c, faults, opts)
		if rep.Aborted != rep.Total || rep.Detected != 0 {
			t.Fatalf("opts %+v: cancelled run aborted %d of %d, detected %d", opts, rep.Aborted, rep.Total, rep.Detected)
		}
		if len(rep.Results) != rep.Total {
			t.Fatalf("cancelled run lost results: %d of %d", len(rep.Results), rep.Total)
		}
	}

	m := session.NewManager(session.Config{})
	defer m.Close()
	rep, err := GenerateTestsSessionFor(ctx, m, c, faults, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Aborted != rep.Total {
		t.Fatalf("cancelled session run aborted %d of %d", rep.Aborted, rep.Total)
	}
}

// TestIncrementalCloneMidFaultList forks the shared solver halfway down
// a fault list — after hundreds of level-0 sweeps — and runs the rest of
// the list on the original and on two forks of the same checkpoint. The
// retired-variable flags and the sweep trigger travel with the image:
// the forks agree with the original on every verdict, with each other
// on every search count, and a checkpoint of a fork is as large as the
// one it came from. Run under -race (the forks solve concurrently).
func TestIncrementalCloneMidFaultList(t *testing.T) {
	c := circuit.RippleCarryAdder(16)
	faults := Collapse(c, FaultUniverse(c))
	opts := Options{MaxConflicts: 20000}
	orig := newIncremental(c, opts)
	half := len(faults) / 2
	for _, flt := range faults[:half] {
		orig.testFault(context.Background(), flt)
	}
	if orig.s.Stats.Sweeps == 0 || orig.s.Stats.RetiredVars == 0 {
		t.Fatalf("no sweep in the first half of the list: %+v", orig.s.Stats)
	}
	ck, err := orig.s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	forks := make([]*incrementalATPG, 2)
	for i := range forks {
		s := ck.Restore()
		if s.NumLiveVars() != orig.s.NumLiveVars() || s.NumClauses() != orig.s.NumClauses() {
			t.Fatalf("fork holds %d live vars / %d clauses, original %d / %d",
				s.NumLiveVars(), s.NumClauses(), orig.s.NumLiveVars(), orig.s.NumClauses())
		}
		forks[i] = &incrementalATPG{c: c, enc: orig.enc, cones: newConeEncoder(c, orig.enc), s: s, opts: opts, prev: s.Stats}
	}
	if ck2, err := forks[0].s.Checkpoint(); err != nil || ck2.Bytes() != ck.Bytes() {
		t.Fatalf("image of a fork: %d bytes (err %v), original image %d", ck2.Bytes(), err, ck.Bytes())
	}

	rest := faults[half:]
	results := make([][]FaultResult, len(forks))
	var wg sync.WaitGroup
	for i, f := range forks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, flt := range rest {
				results[i] = append(results[i], f.testFault(context.Background(), flt))
			}
		}()
	}
	var want []FaultResult
	for _, flt := range rest {
		want = append(want, orig.testFault(context.Background(), flt))
	}
	wg.Wait()
	for j, flt := range rest {
		a, b := results[0][j], results[1][j]
		if a.Status != want[j].Status || b.Status != want[j].Status {
			t.Fatalf("fault %s: forks %s / %s, original %s", flt, a.Status, b.Status, want[j].Status)
		}
		if *a.satStats != *b.satStats {
			t.Fatalf("fault %s: forks of one image diverged: %+v vs %+v", flt, *a.satStats, *b.satStats)
		}
	}
	if a, b := forks[0].s.Stats, forks[1].s.Stats; a != b {
		t.Fatalf("fork totals differ:\n%+v\n%+v", a, b)
	}
}
