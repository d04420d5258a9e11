package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricSpec is one metric as BENCHMARK.json declares it. Bound is the
// share of the baseline median by which an end-to-end metric may worsen
// before a change counts as a regression; per-layer metrics carry none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// benchSpec is the part of BENCHMARK.json the benchmark reads: which
// workloads exist, which metrics the closing JSON line carries, and the
// bounds -compare judges against. Keeping the lists there, not here,
// means the file that declares the metrics is the file the program obeys.
type benchSpec struct {
	Workloads []workloadSpec `json:"workloads"`
	EndToEnd  []metricSpec   `json:"end_to_end"`
	PerLayer  []metricSpec   `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from the working directory, which is the
// repository root: bench/run.sh runs from there.
func loadSpec() (*benchSpec, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

func (s *benchSpec) why(workload string) string {
	for _, w := range s.Workloads {
		if w.Name == workload {
			return w.Why
		}
	}
	return ""
}
