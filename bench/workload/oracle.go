package workload

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"repro/internal/cec"
	"repro/internal/cnf"
)

// Outcome classifies one answered operation.
type Outcome int

// Outcomes. Everything except OK and Unchecked counts as failed.
const (
	// OK: the answer matches the ground truth or carries a witness the
	// oracle verified itself.
	OK Outcome = iota
	// Unchecked: an UNSAT answer on a random instance absent from the
	// committed verdict list. Counted and reported, accepted as correct.
	Unchecked
	// Undecided: UNKNOWN, a budget or deadline ran out.
	Undecided
	// Wrong: contradicts the ground truth or carries a bad witness.
	Wrong
)

// Oracle judges answers without calling the solver under test: models
// and counter-examples are replayed by the benchmark's own code,
// constructed instances carry their verdict, and random UNSAT verdicts
// are looked up in a committed list that two solver configurations and
// the DRAT checker agreed on.
type Oracle struct {
	knownUnsat map[string]bool

	mu        sync.Mutex
	unchecked int
	wrong     []string
}

// verdictFile is the JSON shape of testdata/verdicts.json.
type verdictFile struct {
	// Note says how the list was made.
	Note string `json:"note"`
	// Unsat lists fingerprint prefixes (16 hex digits) of random
	// instances proven unsatisfiable, for the seeds named in Seeds.
	Seeds []int64  `json:"seeds"`
	Unsat []string `json:"unsat"`
}

// NewOracle loads the committed verdict list at path ("" for none).
func NewOracle(path string) (*Oracle, error) {
	o := &Oracle{knownUnsat: map[string]bool{}}
	if path == "" {
		return o, nil
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("verdict list: %w", err)
	}
	var vf verdictFile
	if err := json.Unmarshal(buf, &vf); err != nil {
		return nil, fmt.Errorf("verdict list %s: %w", path, err)
	}
	for _, fp := range vf.Unsat {
		o.knownUnsat[fp] = true
	}
	return o, nil
}

// fork returns an oracle sharing o's verdict list with counters of its
// own, so each run reports only its own findings.
func (o *Oracle) fork() *Oracle { return &Oracle{knownUnsat: o.knownUnsat} }

func fpKey(f *cnf.Formula) string { return cnf.FormulaFingerprint(f).String()[:16] }

// Unchecked reports how many UNSAT answers were accepted on trust.
func (o *Oracle) Unchecked() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.unchecked
}

// WrongVerdicts lists a description of every wrong answer seen.
func (o *Oracle) WrongVerdicts() []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]string(nil), o.wrong...)
}

func (o *Oracle) fail(in *Instance, format string, args ...any) Outcome {
	o.mu.Lock()
	o.wrong = append(o.wrong, fmt.Sprintf("%s/%s: ", in.Kind, in.Family)+fmt.Sprintf(format, args...))
	o.mu.Unlock()
	return Wrong
}

// satisfies is the benchmark's own model check: every clause must hold
// a literal the model makes true. model[v] is variable v's value.
func satisfies(f *cnf.Formula, model []bool) bool {
	for _, c := range f.Clauses {
		ok := false
		for _, l := range c {
			v := int(l.Var())
			if v < len(model) && model[v] != l.IsNeg() {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// modelFromLits turns a DIMACS literal list into a by-variable model.
func modelFromLits(nvars int, lits []int) []bool {
	m := make([]bool, nvars+1)
	for _, l := range lits {
		if l > 0 && l <= nvars {
			m[l] = true
		}
	}
	return m
}

// modelFromAssignment does the same for a cnf.Assignment.
func modelFromAssignment(a cnf.Assignment) []bool {
	m := make([]bool, len(a))
	for v := range a {
		m[v] = a[v] == cnf.True
	}
	return m
}

// CheckDIMACS judges a SAT/UNSAT/UNKNOWN answer on a CNF instance.
func (o *Oracle) CheckDIMACS(in *Instance, verdict string, model []bool) Outcome {
	switch verdict {
	case "SAT":
		if in.Want == WantUnsat {
			return o.fail(in, "SAT on an instance unsatisfiable by construction")
		}
		if !satisfies(in.F, model) {
			return o.fail(in, "SAT with a model that falsifies a clause")
		}
		return OK
	case "UNSAT":
		switch {
		case in.Want == WantSat:
			return o.fail(in, "UNSAT on an instance satisfiable by construction")
		case in.Want == WantUnsat || o.knownUnsat[fpKey(in.F)]:
			return OK
		}
		o.mu.Lock()
		o.unchecked++
		o.mu.Unlock()
		return Unchecked
	}
	return Undecided
}

// CheckCEC judges an equivalence answer; a counter-example is replayed
// by simulating both circuits.
func (o *Oracle) CheckCEC(in *Instance, verdict string, cex []bool) Outcome {
	switch verdict {
	case "EQUIVALENT":
		if in.Want == WantSat {
			return o.fail(in, "EQUIVALENT on a pair that differs by construction")
		}
		return OK
	case "NOT_EQUIVALENT":
		if in.Want == WantUnsat {
			return o.fail(in, "NOT_EQUIVALENT on a pair equivalent by construction")
		}
		if len(cex) != len(in.Left.Inputs) || !cec.VerifyCounterexample(in.Left, in.Right, cex) {
			return o.fail(in, "counter-example does not distinguish the circuits")
		}
		return OK
	}
	return Undecided
}

// CheckBMC judges a bounded-model-checking answer against the depth the
// model was built to violate at.
func (o *Oracle) CheckBMC(in *Instance, verdict string, depth int) Outcome {
	switch verdict {
	case "SAFE":
		if in.Want == WantSat {
			return o.fail(in, "SAFE to depth %d, target reachable at %d", in.Depth, in.WantDepth)
		}
		return OK
	case "VIOLATED":
		if in.Want == WantUnsat {
			return o.fail(in, "VIOLATED at %d, target unreachable within %d", depth, in.Depth)
		}
		if depth != in.WantDepth {
			return o.fail(in, "VIOLATED at %d, first reachable at %d", depth, in.WantDepth)
		}
		return OK
	}
	return Undecided
}
