package main

import (
	"strings"
	"time"
)

// zeroMetrics starts a traced run's metrics with every per-layer
// metric at 0, the value of a layer the workload does not exercise.
func zeroMetrics() map[string]float64 {
	v := map[string]float64{}
	for _, m := range perLayer {
		v[m.Name] = 0
	}
	return v
}

// shareLayers are the layers whose self-time shares are reported.
var shareLayers = []string{"kernels", "core", "experiments", "store", "serve"}

// subtree returns the span root and every span beneath it.
func subtree(spans []Span, root int) []Span {
	inside := map[int]bool{root: true}
	var sub []Span
	for _, s := range spans {
		if inside[s.ID] || inside[s.Parent] {
			inside[s.ID] = true
			sub = append(sub, s)
		}
	}
	return sub
}

// shares sets share.<layer> to each layer's self time within the span
// root, as a share of root's duration.
func shares(v map[string]float64, spans []Span, root int) {
	st := summarize(subtree(spans, root))
	whole := spans[root-1].End - spans[root-1].Start
	for _, layer := range shareLayers {
		v["share."+layer] = ratio(float64(st.self[layer]), float64(whole))
	}
}

// cellMetrics fills the per-cell latency metrics from each cell's wall
// time. labels, when given, names each cell; MiniC compiler-study
// cells are labeled "minic/<program>".
func cellMetrics(v map[string]float64, cells []time.Duration, labels []string) {
	ms := millis(cells)
	v["experiments.cell_count"] = float64(len(ms))
	v["experiments.cell_p50_ms"] = median(ms)
	if pct, val, ok := tail(ms); ok {
		v["experiments.cell_tail_pct"] = pct
		v["experiments.cell_tail_ms"] = val
	}
	var all, minic time.Duration
	for i, d := range cells {
		all += d
		if labels != nil && strings.HasPrefix(labels[i], "minic/") {
			minic += d
		}
	}
	v["experiments.minic_share"] = ratio(float64(minic), float64(all))
}
