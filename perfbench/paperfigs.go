package main

import (
	"bytes"
	"errors"
	"time"

	"repro/internal/experiments"
	"repro/internal/kernels"
)

// paperFigs are the paper's own evaluation: tables 1-4, figures 3-14,
// the speedup summary and the three ablation studies.
var paperFigs = []string{
	"table1", "table2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "table3",
	"fig9", "fig10", "fig11", "fig12", "table4", "fig13", "fig14",
	"summary", "ablations", "improvements", "hwablations",
}

// lookup resolves experiment names in registry order.
func lookup(names []string) ([]experiments.Experiment, error) {
	out := make([]experiments.Experiment, len(names))
	for i, n := range names {
		e, err := experiments.Get(n)
		if err != nil {
			return nil, err
		}
		out[i] = e
	}
	return out, nil
}

// ordered is a sweep whose experiments run in an order drawn from the
// seed. The order decides which cell is declared, simulated and read
// first; the rendered output must not depend on it.
type ordered struct {
	exps []experiments.Experiment // permuted
	perm []int                    // exps[i] is the canonical experiment perm[i]
}

func (e *env) order(exps []experiments.Experiment) ordered {
	o := ordered{perm: e.permutation(len(exps))}
	for _, i := range o.perm {
		o.exps = append(o.exps, exps[i])
	}
	return o
}

// render writes the tables of a permuted sweep in canonical order,
// exactly as sdsp-exp prints them.
func (o ordered) render(tables [][]experiments.Table) ([]byte, error) {
	canonical := make([][]experiments.Table, len(tables))
	for i, ts := range tables {
		canonical[o.perm[i]] = ts
	}
	var buf bytes.Buffer
	for _, ts := range canonical {
		for _, t := range ts {
			if err := t.Render(&buf); err != nil {
				return nil, err
			}
		}
	}
	return buf.Bytes(), nil
}

// countCells charges each cell to the run: attempted always, failed
// when it errored or was quarantined.
func (e *env) countCells(timings []experiments.CellTiming) uint64 {
	var cycles uint64
	for _, tm := range timings {
		e.attempted++
		if tm.Err != "" || tm.Source == "quarantined" {
			e.failed++
			e.gate.failf("cell %s failed: %s", tm.Label, tm.Err)
		}
		cycles += tm.Cycles
	}
	return cycles
}

// checkPaperFigs applies the gate to one finished paper-figs sweep:
// the pinned cycle total, the pinned table digest, and the committed
// total of the thread-sweep cells, read back from r's memo (no cell is
// simulated again).
func (e *env) checkPaperFigs(r *experiments.Runner, cycles uint64, out []byte) (committed uint64, err error) {
	e.gate.expectCount("paper-figs sim cycles", cycles, paperFigsCycles)
	e.gate.expectDigest("paper-figs tables", out, paperFigsTablesSHA256)
	for _, pt := range points(kernels.Paper, threadSweep, defaultConfig) {
		st, err := r.Run(pt.b, pt.cfg)
		if err != nil {
			return 0, err
		}
		committed += st.Committed
	}
	e.gate.expectCount("paper-figs thread-sweep committed", committed, paperFigsThreadCommitted)
	return committed, nil
}

// paperFigsPass is one sdsp-exp -scale paper -j 1 sweep without a store.
func (e *env) paperFigsPass(exps []experiments.Experiment) (time.Duration, uint64, error) {
	o := e.order(exps)
	t0 := time.Now()
	r := experiments.NewRunner(kernels.Paper)
	tables, timings, err := r.RunExperiments(o.exps, 1)
	if err != nil {
		return 0, 0, err
	}
	out, err := o.render(tables)
	if err != nil {
		return 0, 0, err
	}
	wall := time.Since(t0)
	cycles := e.countCells(timings)
	_, err = e.checkPaperFigs(r, cycles, out)
	return wall, cycles, err
}

// declareSetup is the sweep's set-up: a runner and the declaration pass
// that lists every cell before the first one is simulated.
func declareSetup(exps []experiments.Experiment) (time.Duration, error) {
	t0 := time.Now()
	r := experiments.NewRunner(kernels.Paper)
	cells, err := r.DeclareCells(exps)
	if err == nil && len(cells) == 0 {
		err = errors.New("declaration found no cells")
	}
	return time.Since(t0), err
}

func paperFigsUntraced(e *env) (map[string]float64, error) {
	exps, err := lookup(paperFigs)
	if err != nil {
		return nil, err
	}
	setupOrder := e.order(exps).exps
	setup, err := setupTime(func() (time.Duration, error) { return declareSetup(setupOrder) })
	if err != nil {
		return nil, err
	}
	var passes []time.Duration
	var cycles uint64
	var cells int
	peak, err := e.timeLoop(2, func() error {
		before := e.attempted
		wall, c, err := e.paperFigsPass(exps)
		passes = append(passes, wall)
		cycles, cells = c, e.attempted-before
		return err
	})
	if err != nil {
		return nil, err
	}
	pass := median(seconds(passes))
	return map[string]float64{
		"sim_cycles_per_s": float64(cycles) / pass,
		"cells_per_s":      float64(cells) / pass,
		"job_latency_s":    pass,
		// sdsp-exp without a store keeps no results between runs, so a
		// repeated request is a full pass.
		"resume_s":    pass,
		"setup_s":     setup,
		"peak_rss_mb": peak,
	}, nil
}

// steppedPass is one paper-figs sweep through the runner's public
// steps, so each gets a span when e is traced: declare, every cell,
// then assembly from the completed cells. It checks the result like a
// timed pass.
type steppedPass struct {
	wall      time.Duration
	root      int // the pass's span
	labels    []string
	cycles    uint64
	committed uint64
}

func (e *env) paperFigsStepped(exps []experiments.Experiment) (steppedPass, error) {
	var p steppedPass
	o := e.order(exps)
	t0 := time.Now()
	p.root = e.tr.Begin("bench.pass")
	r := experiments.NewRunner(kernels.Paper)
	var cells []experiments.DeclaredCell
	var err error
	e.tr.Span("experiments.declare", func() { cells, err = r.DeclareCells(o.exps) })
	if err != nil {
		return p, err
	}
	timings := make([]experiments.CellTiming, len(cells))
	p.labels = make([]string, len(cells))
	for i, c := range cells {
		id := e.tr.Begin("experiments.cell")
		timings[i], _ = r.ExecuteDeclared(c) // a failure is in the timing
		e.tr.End(id)
		p.labels[i] = c.Label
	}
	var out []byte
	e.tr.Span("experiments.assemble", func() {
		var tables [][]experiments.Table
		if tables, _, err = r.RunExperiments(o.exps, 1); err == nil {
			out, err = o.render(tables)
		}
	})
	e.tr.End(p.root)
	p.wall = time.Since(t0)
	if err != nil {
		return p, err
	}
	p.cycles = e.countCells(timings)
	p.committed, err = e.checkPaperFigs(r, p.cycles, out)
	return p, err
}

func paperFigsTraced(e *env) (map[string]float64, error) {
	exps, err := lookup(paperFigs)
	if err != nil {
		return nil, err
	}
	v := zeroMetrics()
	e.tr.SetRun("paper-figs/stepped")
	var last steppedPass
	overhead, u0, u1, wall, err := e.tracedPairs(2, func() (time.Duration, error) {
		p, err := e.paperFigsStepped(exps)
		if e.tr != nil {
			last = p
		}
		return p.wall, err
	})
	if err != nil {
		return nil, err
	}
	runtimeMetrics(v, u0, u1, wall)
	v["trace.overhead"] = overhead

	shares(v, e.tr.Spans(), last.root)
	st := summarize(subtree(e.tr.Spans(), last.root))
	v["experiments.declare_ms"] = meanMillis(st.durations["experiments.declare"])
	v["experiments.assemble_ms"] = meanMillis(st.durations["experiments.assemble"])
	cellMetrics(v, st.durations["experiments.cell"], last.labels)
	v["core.sim_cycles"] = float64(last.cycles)
	v["core.committed"] = float64(last.committed)

	// The cells hide build, core.New and Run inside the runner, so the
	// core layer is measured on the sweep's default point: every kernel
	// at 4 threads, direct, with the fast-forward on and then off.
	e.tr.SetRun("paper-figs/default-config")
	pts := points(kernels.Paper, []int{4}, defaultConfig)
	if err := e.probeCore(v, pts); err != nil {
		return nil, err
	}
	if v["core.ff_off_ratio"], err = e.ablateFastForward(pts); err != nil {
		return nil, err
	}
	v["cells_failed"] = float64(e.failed)
	return v, nil
}
