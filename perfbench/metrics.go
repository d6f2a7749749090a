package main

import (
	"encoding/json"
	"fmt"
	"math"
	"regexp"
)

// metricSpec names one reported metric. BENCHMARK.json at the
// repository root lists the same metrics; a unit test keeps the two in
// step.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
}

// endToEnd are the metrics a user of the simulator sees, printed by
// every untraced run. Each is defined on every workload; see README.md
// for what each means there.
var endToEnd = []metricSpec{
	{"sim_cycles_per_s", "cycles/s", "higher"},
	{"cells_per_s", "cells/s", "higher"},
	{"job_latency_s", "s", "lower"},
	{"resume_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
}

// perLayer are the metrics of single layers, printed by every traced
// run. A layer a workload does not exercise reports 0.
var perLayer = []metricSpec{
	{"core.ns_per_cycle", "ns", "lower"},
	{"core.new_ms", "ms", "lower"},
	{"kernels.build_ms", "ms", "lower"},
	{"core.ff_skip_share", "share", "higher"},
	{"core.ff_off_ratio", "ratio", "higher"},
	{"core.sim_cycles", "count", "lower"},
	{"core.committed", "count", "higher"},
	{"cache.miss_rate", "share", "lower"},
	{"experiments.declare_ms", "ms", "lower"},
	{"experiments.assemble_ms", "ms", "lower"},
	{"experiments.cell_p50_ms", "ms", "lower"},
	{"experiments.cell_tail_ms", "ms", "lower"},
	{"experiments.cell_tail_pct", "%", "higher"},
	{"experiments.cell_count", "count", "higher"},
	{"experiments.minic_share", "share", "lower"},
	{"store.put_ms", "ms", "lower"},
	{"store.lease_ms", "ms", "lower"},
	{"store.get_ms", "ms", "lower"},
	{"serve.submit_ms", "ms", "lower"},
	{"serve.status_ms", "ms", "lower"},
	{"serve.first_commit_wait_s", "s", "lower"},
	{"serve.finish_wait_s", "s", "lower"},
	{"serve.cell_overhead_ms", "ms", "lower"},
	{"runtime.alloc_mb", "MiB", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_cpu_share", "share", "lower"},
	{"share.kernels", "share", "lower"},
	{"share.core", "share", "lower"},
	{"share.experiments", "share", "lower"},
	{"share.store", "share", "lower"},
	{"share.serve", "share", "lower"},
	{"trace.overhead", "ratio", "lower"},
	{"cells_failed", "count", "lower"},
	{"leases_broken", "count", "lower"},
}

var (
	validName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	validUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// checkSpecs reports the first malformed or repeated metric.
func checkSpecs(specs ...[]metricSpec) error {
	seen := map[string]bool{}
	for _, list := range specs {
		for _, m := range list {
			switch {
			case !validName.MatchString(m.Name):
				return fmt.Errorf("metric name %q is malformed", m.Name)
			case !validUnit.MatchString(m.Unit):
				return fmt.Errorf("metric %s: unit %q is malformed", m.Name, m.Unit)
			case m.Better != "higher" && m.Better != "lower":
				return fmt.Errorf("metric %s: better is %q", m.Name, m.Better)
			case seen[m.Name]:
				return fmt.Errorf("metric %s is listed twice", m.Name)
			}
			seen[m.Name] = true
		}
	}
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// newResult fills the metrics in specs from values. A metric missing
// from values, or one that is not a finite number, is an error: the
// output always carries every metric of its set.
func newResult(specs []metricSpec, values map[string]float64, attempted, failed int, correct bool) (result, error) {
	res := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, m := range specs {
		v, ok := values[m.Name]
		if !ok {
			return res, fmt.Errorf("metric %s was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %s is %v", m.Name, v)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	if len(values) != len(specs) {
		return res, fmt.Errorf("%d metrics measured, %d expected", len(values), len(specs))
	}
	return res, nil
}

func (r result) String() string {
	data, _ := json.Marshal(r)
	return string(data)
}
