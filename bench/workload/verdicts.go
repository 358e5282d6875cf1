package workload

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/solver"
)

// randomInputs returns every CNF instance without a constructed
// verdict that the named workload generates for o.
func randomInputs(name string, o Options) []*Instance {
	o.Seed = deriveSeed(o.Seed, name)
	var all []*Instance
	switch name {
	case "solve_tier":
		t := newSolveTier(&o)
		_ = t.setup() // generation only; nothing to boot
		all = t.pool
	case "serve_heavy", "serve_certified", "serve_light":
		s := newServe(name, &o)
		s.generate()
		all = s.ops
		for _, vs := range s.variants {
			all = append(all, vs[0])
		}
	}
	var out []*Instance
	for _, in := range all {
		for _, it := range append([]*Instance{in}, in.Items...) {
			if it.Kind == "dimacs" && it.Want == WantAny {
				out = append(out, it)
			}
		}
	}
	return out
}

// BuildVerdicts regenerates the committed verdict list: for each seed
// it generates every workload's random instances as a run of the given
// window would, decides each with two solver configurations (the
// sequential default, and preprocessing plus equivalency reasoning in
// front of it), and lists an instance as unsatisfiable only when both
// agree and the DRAT checker accepts a refutation of it.
func BuildVerdicts(path string, seeds []int64, seconds float64, progress func(string)) error {
	known := map[string]bool{}
	for _, seed := range seeds {
		for _, name := range Names {
			ins := randomInputs(name, Options{Seed: seed, Seconds: seconds})
			unsat := 0
			for _, in := range ins {
				key := fpKey(in.F)
				if known[key] {
					continue
				}
				ok, err := provenUnsat(in.F)
				if err != nil {
					return fmt.Errorf("seed %d %s: %w", seed, name, err)
				}
				if ok {
					known[key] = true
					unsat++
				}
			}
			progress(fmt.Sprintf("seed %d %-16s %5d random instances, %5d proven unsatisfiable", seed, name, len(ins), unsat))
		}
	}
	vf := verdictFile{
		Note:  "fingerprint prefixes of random instances that two solver configurations call UNSAT and whose DRAT refutation solver.VerifyDRAT accepts; regenerate with satbench -gen-verdicts after changing a generator, a mix or run_seconds",
		Seeds: seeds,
	}
	for k := range known {
		vf.Unsat = append(vf.Unsat, k)
	}
	sort.Strings(vf.Unsat)
	buf, err := json.Marshal(vf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// provenUnsat reports whether f is unsatisfiable beyond the word of a
// single solver run. Disagreement between the configurations, or a
// refutation the checker rejects, is an error worth stopping for.
func provenUnsat(f *cnf.Formula) (bool, error) {
	var proof bytes.Buffer
	w := solver.NewDRATWriter(&proof)
	a := core.SolveContext(context.Background(), f, core.Options{Proof: w})
	b := core.SolveContext(context.Background(), f, core.Options{Preprocess: true, EquivalencyReasoning: true})
	if a.Status != b.Status {
		return false, fmt.Errorf("configurations disagree on %s: %v vs %v", fpKey(f), a.Status, b.Status)
	}
	if a.Status != solver.Unsat {
		return false, nil
	}
	if err := w.Flush(); err != nil {
		return false, err
	}
	if !a.Proved {
		return false, fmt.Errorf("no complete proof for %s", fpKey(f))
	}
	if err := solver.VerifyDRAT(f, bytes.NewReader(proof.Bytes())); err != nil {
		return false, fmt.Errorf("refutation of %s rejected: %w", fpKey(f), err)
	}
	return true, nil
}
