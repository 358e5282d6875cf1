package report

import (
	"encoding/json"
	"fmt"
	"os"
)

// Def is one metric as BENCHMARK.json declares it.
type Def struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// Benchmark is BENCHMARK.json.
type Benchmark struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []Def `json:"end_to_end"`
	PerLayer []Def `json:"per_layer"`
}

// LoadBenchmark reads BENCHMARK.json at path.
func LoadBenchmark(path string) (*Benchmark, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Benchmark
	if err := json.Unmarshal(buf, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// Window is what one run of one workload measured: one set-up, one
// warm-up and one measured window, traced or not.
type Window struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Traced   bool    `json:"traced"`
	// Correct is false when any answer was wrong; Attempted and Failed
	// count operations (failed = shed + errored + undecided + wrong).
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	// Late counts verdicts delivered past an open loop's latency limit:
	// correct, but not goodput.
	Late int `json:"late"`
	// Metrics holds every end-to-end metric (untraced) or every
	// per-layer metric (traced), by BENCHMARK.json name.
	Metrics map[string]float64 `json:"metrics"`
	// Invalid lists violated workload contracts (a cache hit on a
	// unique-job workload, a late generator, …); Wrong the wrong
	// answers. Either makes the command exit non-zero.
	Invalid []string `json:"invalid,omitempty"`
	Wrong   []string `json:"wrong,omitempty"`
}

// Run is one pass over the workloads at one seed.
type Run struct {
	Seed    int64    `json:"seed"`
	Started string   `json:"started"`
	Windows []Window `json:"windows"`
}

// File is the report the one-command mode writes: one entry per
// repetition.
type File struct {
	GoVersion string `json:"go_version"`
	CPUs      int    `json:"cpus"`
	Runs      []Run  `json:"runs"`
}

// LoadFile reads a report.
func LoadFile(path string) (*File, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(buf, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// Write stores the report at path.
func (f *File) Write(path string) error {
	buf, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// values collects metric name's value from every window of the given
// workload and tracing mode, across runs.
func (f *File) values(workload, name string, traced bool) []float64 {
	var out []float64
	for _, r := range f.Runs {
		for _, w := range r.Windows {
			if w.Workload == workload && w.Traced == traced {
				if v, ok := w.Metrics[name]; ok {
					out = append(out, v)
				}
			}
		}
	}
	return out
}

// Workloads lists the workloads present in the report, in first-seen
// order.
func (f *File) Workloads() []string {
	var out []string
	seen := map[string]bool{}
	for _, r := range f.Runs {
		for _, w := range r.Windows {
			if !seen[w.Workload] {
				seen[w.Workload] = true
				out = append(out, w.Workload)
			}
		}
	}
	return out
}
