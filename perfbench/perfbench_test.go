package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/kernels"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func TestMetricNamesValid(t *testing.T) {
	if err := checkSpecs(endToEnd, perLayer); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []metricSpec{
		{"has space", "s", "lower"},
		{"_leading", "s", "lower"},
		{strings.Repeat("x", 65), "s", "lower"},
		{"ok", "no spaces", "lower"},
		{"ok", "s", "faster"},
	} {
		if checkSpecs([]metricSpec{bad}) == nil {
			t.Errorf("%+v accepted", bad)
		}
	}
	if checkSpecs(endToEnd, endToEnd[:1]) == nil {
		t.Error("a repeated name was accepted")
	}
}

// TestBenchmarkFileMatches keeps BENCHMARK.json and the metrics this
// program prints in step, and holds the file to its format.
func TestBenchmarkFileMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var bf benchmarkFile
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || !validName.MatchString(w.Name) {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q here", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of 1-200 characters", w.Name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d here", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		if (metricSpec{m.Name, m.Unit, m.Better}) != endToEnd[i] {
			t.Errorf("end-to-end metric %d: %+v in BENCHMARK.json, %+v here", i, m, endToEnd[i])
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d here", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		if m != perLayer[i] {
			t.Errorf("per-layer metric %d: %+v in BENCHMARK.json, %+v here", i, m, perLayer[i])
		}
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1-60", bf.RunSeconds)
	}
}

func TestTailRule(t *testing.T) {
	ranks := func(n int) []float64 { // the values 1..n, shuffled
		xs := make([]float64, n)
		for i, j := range rand.New(rand.NewSource(1)).Perm(n) {
			xs[i] = float64(j + 1)
		}
		return xs
	}
	for _, tc := range []struct {
		n        int
		pct, val float64
		ok       bool
	}{
		{n: 389, pct: 95, val: 370, ok: true},  // p99 would leave 3 beyond
		{n: 680, pct: 95, val: 646, ok: true},  // p99 would leave 6 beyond
		{n: 1000, pct: 99, val: 990, ok: true}, // exactly 10 beyond
		{n: 66, pct: 75, val: 50, ok: true},    // p90 would leave 6 beyond
		{n: 20, pct: 50, val: 10, ok: true},
		{n: 19, ok: false}, // the median leaves 9 beyond
		{n: 0, ok: false},
	} {
		pct, val, ok := tail(ranks(tc.n))
		if ok != tc.ok || pct != tc.pct || val != tc.val {
			t.Errorf("n=%d: got p%v = %v (ok %v), want p%v = %v (ok %v)", tc.n, pct, val, ok, tc.pct, tc.val, tc.ok)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd count: %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even count: %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty: %v", got)
	}
}

func span(id, parent int, name string, start, end time.Duration) Span {
	return Span{ID: id, Parent: parent, Name: name, Start: start, End: end}
}

func TestSelfTime(t *testing.T) {
	spans := []Span{
		span(1, 0, "bench.pass", 0, 100),
		span(2, 1, "experiments.cell", 10, 30),
		span(3, 1, "experiments.cell", 20, 40), // overlaps the previous child
		span(4, 1, "store.put", 90, 120),       // runs past its parent's end
		span(5, 2, "core.run", 12, 18),
		span(6, 0, "bench.other", 200, 250),
	}
	// The parent's children cover 10-40 and 90-100.
	want := []time.Duration{60, 14, 20, 30, 6, 50}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d: self %v, want %v", spans[i].ID, got[i], want[i])
		}
	}
	st := summarize(spans)
	if st.self["experiments"] != 34 || st.self["core"] != 6 || st.self["bench"] != 110 {
		t.Errorf("layer self times %v", st.self)
	}
	if st.total("experiments.cell") != 40 {
		t.Errorf("total cell time %v", st.total("experiments.cell"))
	}

	v := map[string]float64{}
	shares(v, spans, 1)
	if v["share.experiments"] != 0.34 || v["share.core"] != 0.06 || v["share.store"] != 0.3 {
		t.Errorf("shares %v", v)
	}
}

func TestTracerNesting(t *testing.T) {
	tr := NewTracer()
	tr.SetRun("r1")
	root := tr.Begin("bench.pass")
	tr.Span("kernels.build", func() {})
	inner := tr.Begin("core.run")
	tr.Span("core.new", func() {})
	tr.End(inner)
	tr.End(root)
	var parents []int
	for _, s := range tr.Spans() {
		parents = append(parents, s.Parent)
		if s.Run != "r1" || s.End < s.Start {
			t.Errorf("span %+v", s)
		}
	}
	if want := []int{0, 1, 1, 3}; !equalInts(parents, want) {
		t.Errorf("parents %v, want %v", parents, want)
	}
	var nilTracer *Tracer
	nilTracer.Span("core.run", func() {})
	if nilTracer.Spans() != nil {
		t.Error("a nil tracer recorded a span")
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestGateCatchesWrongOutputs: a total one off its pin, or one changed
// byte of the tables, must make the run incorrect.
func TestGateCatchesWrongOutputs(t *testing.T) {
	e := &env{}
	e.checkMissHeavy(directTotals{cycles: missHeavyCycles, committed: missHeavyCommitted})
	if !e.gate.ok() {
		t.Fatalf("pinned totals rejected: %v", e.gate.problems)
	}
	e.checkMissHeavy(directTotals{cycles: missHeavyCycles + 1, committed: missHeavyCommitted})
	if e.gate.ok() {
		t.Error("a wrong cycle total passed")
	}

	golden, err := os.ReadFile(filepath.Join("..", goldenPath))
	if err != nil {
		t.Fatal(err)
	}
	var g gate
	g.expectBytes("tables", golden, golden)
	if !g.ok() {
		t.Fatalf("identical tables rejected: %v", g.problems)
	}
	changed := append([]byte(nil), golden...)
	changed[len(changed)/2] ^= 1
	g.expectBytes("tables", changed, golden)
	if g.ok() || !strings.Contains(g.problems[0], "byte") {
		t.Errorf("a changed byte passed: %v", g.problems)
	}
	var d gate
	d.expectDigest("tables", changed, paperFigsTablesSHA256)
	if d.ok() {
		t.Error("a wrong digest passed")
	}
}

// TestOrderDoesNotChangeTables: two seeds run the same experiments in
// different orders, and render the same bytes.
func TestOrderDoesNotChangeTables(t *testing.T) {
	exps, err := lookup([]string{"fig3", "fig5", "table3", "fig13"})
	if err != nil {
		t.Fatal(err)
	}
	var outs [][]byte
	for _, seed := range []int64{1, 2} {
		e := &env{rng: rand.New(rand.NewSource(seed))}
		o := e.order(exps)
		tables, _, err := experiments.NewRunner(kernels.Small).RunExperiments(o.exps, 1)
		if err != nil {
			t.Fatal(err)
		}
		out, err := o.render(tables)
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, out)
	}
	if !bytes.Equal(outs[0], outs[1]) {
		t.Error("the experiment order changed the rendered tables")
	}
}

func TestNewResultNeedsEveryMetric(t *testing.T) {
	v := map[string]float64{}
	for _, m := range endToEnd {
		v[m.Name] = 1
	}
	res, err := newResult(endToEnd, v, 1, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(res.String(), `{"correct":true,"attempted":1,"failed":0,"metrics":{`) {
		t.Errorf("result line %s", res)
	}
	delete(v, "setup_s")
	if _, err := newResult(endToEnd, v, 1, 0, true); err == nil {
		t.Error("a missing metric was accepted")
	}
	v["setup_s"], v["extra"] = 1, 1
	if _, err := newResult(endToEnd, v, 1, 0, true); err == nil {
		t.Error("an unlisted metric was accepted")
	}
}

// TestWorkerLogKeepsCommits: the hook keeps each committed cell with
// its execution time, in the worker's own format, and nothing else.
func TestWorkerLogKeepsCommits(t *testing.T) {
	var w workerLog
	w.logf("worker: %s committed (%.2fs, source %s)", "fig3/a", 0.0025, "sim")
	w.logf("worker: %s quarantined", "fig3/b")
	w.logf("serve: job %s done (%d cells, %d bytes of tables)", "j1", 1, 10)
	w.logf("worker: %s committed (%.2fs, source %s)", "minic/c", 1.5, "store")
	if len(w.cells) != 2 {
		t.Fatalf("kept %d cells, want 2: %+v", len(w.cells), w.cells)
	}
	if c := w.cells[0]; c.label != "fig3/a" || c.wall != 2500*time.Microsecond {
		t.Errorf("first cell %+v", c)
	}
	if c := w.cells[1]; c.label != "minic/c" || c.wall != 1500*time.Millisecond || c.at.Before(w.cells[0].at) {
		t.Errorf("second cell %+v", c)
	}
}

// TestSetupTimeIsAMedianOfMeans: each sample averages set-ups until the
// span is reached, and the result is the middle sample.
func TestSetupTimeIsAMedianOfMeans(t *testing.T) {
	calls := 0
	got, err := setupTime(func() (time.Duration, error) {
		calls++
		return setupSpan / 4, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := (setupSpan / 4).Seconds(); got != want || calls != 4*setupSamples {
		t.Errorf("setupTime = %v after %d calls, want %v after %d", got, calls, want, 4*setupSamples)
	}
}

// TestMissHeavyLeavesOutOnlyTheWrongPoints: miss-heavy runs every
// kernel at every thread count except the points listed as simulated
// wrongly.
func TestMissHeavyLeavesOutOnlyTheWrongPoints(t *testing.T) {
	pts := missHeavyPoints()
	if want := 11*len(threadSweep) - 2; len(pts) != want {
		t.Fatalf("miss-heavy has %d points, want %d", len(pts), want)
	}
	for _, pt := range pts {
		if pt.b.Name == "LL2" && (pt.p.Threads == 3 || pt.p.Threads == 5) {
			t.Errorf("miss-heavy runs LL2 at %d threads", pt.p.Threads)
		}
	}
}
