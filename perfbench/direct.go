package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/kernels"
)

// point is one simulation on the sdsp-sim path: a kernel at a thread
// count, scale and configuration.
type point struct {
	b   *kernels.Benchmark
	p   kernels.Params
	cfg core.Config
}

// points crosses every kernel with threads at one scale.
func points(scale kernels.Scale, threads []int, config func(threads int) core.Config) []point {
	var out []point
	for _, b := range kernels.All() {
		for _, n := range threads {
			out = append(out, point{b: b, p: kernels.Params{Threads: n, Scale: scale}, cfg: config(n)})
		}
	}
	return out
}

// defaultConfig is the paper's default machine with n threads.
func defaultConfig(n int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Threads = n
	return cfg
}

var threadSweep = []int{1, 2, 3, 4, 5, 6}

// directTotals sums what a set of direct runs simulated and how long
// each step took.
type directTotals struct {
	cycles, committed      uint64
	ffSkipped              uint64
	cacheHits, cacheMisses uint64
	setup, run             time.Duration // Build+New, and Run
	build, newMachine      []time.Duration
	cells                  []time.Duration // Build through Run, per point
}

// runDirect performs one point as sdsp-sim does: kernels.Build, then
// core.New, then Machine.Run, then the kernel's golden check. Each
// call is a span when e is traced.
func (e *env) runDirect(pt point, tot *directTotals) error {
	e.attempted++
	t0 := time.Now()
	id := e.tr.Begin("kernels.build")
	obj, err := pt.b.Build(pt.p)
	e.tr.End(id)
	t1 := time.Now()
	if err != nil {
		e.failed++
		return err
	}
	id = e.tr.Begin("core.new")
	m, err := core.New(obj, pt.cfg)
	e.tr.End(id)
	t2 := time.Now()
	if err != nil {
		e.failed++
		return err
	}
	id = e.tr.Begin("core.run")
	st, err := m.Run()
	e.tr.End(id)
	t3 := time.Now()
	if err != nil {
		e.failed++
		return fmt.Errorf("%s threads=%d: %w", pt.b.Name, pt.p.Threads, err)
	}
	id = e.tr.Begin("kernels.check")
	err = pt.b.Check(m.Memory(), obj, pt.p)
	e.tr.End(id)
	if err != nil {
		e.failed++
		e.gate.failf("%s threads=%d failed its golden check: %v", pt.b.Name, pt.p.Threads, err)
	}
	tot.cycles += st.Cycles
	tot.committed += st.Committed
	tot.ffSkipped += m.FFSkipped()
	tot.cacheHits += st.Cache.Hits
	tot.cacheMisses += st.Cache.Misses
	tot.setup += t2.Sub(t0)
	tot.run += t3.Sub(t2)
	tot.build = append(tot.build, t1.Sub(t0))
	tot.newMachine = append(tot.newMachine, t2.Sub(t1))
	tot.cells = append(tot.cells, t3.Sub(t0))
	return nil
}

// runPoints runs pts in an order drawn from the seed.
func (e *env) runPoints(pts []point) (directTotals, error) {
	var tot directTotals
	for _, i := range e.permutation(len(pts)) {
		if err := e.runDirect(pts[i], &tot); err != nil {
			return tot, err
		}
	}
	return tot, nil
}

// ablateFastForward runs every point with the fast-forward on and off,
// back to back and alternating which goes first, so that drift in host
// speed falls on both sides alike. It returns run time off ÷ run time on.
func (e *env) ablateFastForward(pts []point) (float64, error) {
	attempted, failed := e.attempted, e.failed
	defer func() { e.attempted, e.failed = attempted, failed }() // an ablation is not workload
	root := e.tr.Begin("bench.ff_ablation")
	defer e.tr.End(root)
	var on, off directTotals
	for k, i := range e.permutation(len(pts)) {
		ff, noFF := pts[i], pts[i]
		noFF.cfg.NoFastForward = true
		if k%2 == 1 {
			if err := e.runDirect(noFF, &off); err != nil {
				return 0, err
			}
		}
		if err := e.runDirect(ff, &on); err != nil {
			return 0, err
		}
		if k%2 == 0 {
			if err := e.runDirect(noFF, &off); err != nil {
				return 0, err
			}
		}
	}
	if off.cycles != on.cycles || off.committed != on.committed {
		e.gate.failf("fast-forward off simulated %d cycles / %d committed, on %d / %d",
			off.cycles, off.committed, on.cycles, on.committed)
	}
	return ratio(off.run.Seconds(), on.run.Seconds()), nil
}

// probeCore measures the kernels, core and cache layers on pts, run
// directly. These runs stand in for cells that hide the layers inside
// the runner; they are not the workload's own, so they do not count in
// attempted or failed.
func (e *env) probeCore(v map[string]float64, pts []point) error {
	attempted, failed := e.attempted, e.failed
	defer func() { e.attempted, e.failed = attempted, failed }()
	probe := e.tr.Begin("bench.probe")
	tot, err := e.runPoints(pts)
	e.tr.End(probe)
	if err != nil {
		return err
	}
	coreMetrics(v, tot)
	return nil
}

// coreMetrics fills the kernels, core and cache metrics of direct runs.
func coreMetrics(v map[string]float64, tot directTotals) {
	v["core.ns_per_cycle"] = ratio(float64(tot.run.Nanoseconds()), float64(tot.cycles))
	v["core.new_ms"] = meanMillis(tot.newMachine)
	v["kernels.build_ms"] = meanMillis(tot.build)
	v["core.ff_skip_share"] = ratio(float64(tot.ffSkipped), float64(tot.cycles))
	v["cache.miss_rate"] = ratio(float64(tot.cacheMisses), float64(tot.cacheHits+tot.cacheMisses))
}
