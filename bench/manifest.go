package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// metricDecl is one metric as BENCHMARK.json declares it. Bound is the
// share of the parent's median an end-to-end metric may worsen by;
// per-layer metrics have none.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// manifest is BENCHMARK.json: the one place metric names, units and
// regression bounds are written down. The program reads it rather than
// repeating it, so what a run prints cannot drift from what is declared.
type manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

func loadManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%w (run from the repository root or pass -manifest)", err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(m.Workloads) != len(workloads) {
		return nil, fmt.Errorf("%s declares %d workloads, the program has %d", path, len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		if w.Name != workloads[i].name {
			return nil, fmt.Errorf("%s: workload %d is %q, the program has %q", path, i, w.Name, workloads[i].name)
		}
	}
	return &m, nil
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report pairs the computed values with the declared metrics: every
// declared metric must have a finite value and every value a declaration.
func report(decls []metricDecl, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(decls))
	for _, d := range decls {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s is declared but was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s was measured but is not declared", name)
		}
	}
	return out, nil
}
