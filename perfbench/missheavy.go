package main

import (
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/kernels"
)

// missHeavyConfig is the default machine behind a 1 KB direct-mapped
// L1 with 32-byte lines and a 60-cycle refill: most cycles wait on
// memory, which is the case the idle-cycle fast-forward exists for.
func missHeavyConfig(n int) core.Config {
	cfg := defaultConfig(n)
	cfg.Cache.SizeBytes = 1024
	cfg.Cache.Ways = 1
	cfg.Cache.LineBytes = 32
	cfg.Cache.MissPenalty = 60
	return cfg
}

// missHeavyWrong are the points the pipeline simulates wrongly behind
// the miss-heavy L1: their final memory fails the kernel's golden
// check, while the functional simulator's passes. core issues a fai
// without waiting for the thread's older data stores to drain, so a
// barrier can release other threads before those stores are visible
// and they read stale values past it. With fai fenced behind older
// stores every point passes. They are left out of the workload, which
// must run correctly, until the core orders them; README.md has the
// defect.
var missHeavyWrong = map[string][]int{"LL2": {3, 5}}

func missHeavyPoints() []point {
	var out []point
	for _, pt := range points(kernels.Paper, threadSweep, missHeavyConfig) {
		if !slices.Contains(missHeavyWrong[pt.b.Name], pt.p.Threads) {
			out = append(out, pt)
		}
	}
	return out
}

func (e *env) checkMissHeavy(tot directTotals) {
	e.gate.expectCount("miss-heavy sim cycles", tot.cycles, missHeavyCycles)
	e.gate.expectCount("miss-heavy committed", tot.committed, missHeavyCommitted)
}

func missHeavyUntraced(e *env) (map[string]float64, error) {
	pts := missHeavyPoints()
	var setups, passes []time.Duration
	var cycles uint64
	peak, err := e.timeLoop(3, func() error {
		t0 := time.Now()
		tot, err := e.runPoints(pts)
		if err != nil {
			return err
		}
		passes = append(passes, time.Since(t0))
		setups = append(setups, tot.setup)
		cycles = tot.cycles
		e.checkMissHeavy(tot)
		return nil
	})
	if err != nil {
		return nil, err
	}
	pass := median(seconds(passes))
	return map[string]float64{
		"sim_cycles_per_s": float64(cycles) / pass,
		"cells_per_s":      float64(len(pts)) / pass,
		"job_latency_s":    pass,
		// sdsp-sim keeps no results, so a repeated request is a full pass.
		"resume_s":    pass,
		"setup_s":     median(seconds(setups)),
		"peak_rss_mb": peak,
	}, nil
}

func missHeavyTraced(e *env) (map[string]float64, error) {
	pts := missHeavyPoints()
	v := zeroMetrics()

	e.tr.SetRun("miss-heavy/pass")
	var tot directTotals
	root := 0
	overhead, u0, u1, wall, err := e.tracedPairs(3, func() (time.Duration, error) {
		t0 := time.Now()
		id := e.tr.Begin("bench.pass")
		t, err := e.runPoints(pts)
		e.tr.End(id)
		d := time.Since(t0)
		if err != nil {
			return d, err
		}
		e.checkMissHeavy(t)
		if e.tr != nil {
			tot, root = t, id
		}
		return d, nil
	})
	if err != nil {
		return nil, err
	}
	runtimeMetrics(v, u0, u1, wall)
	v["trace.overhead"] = overhead
	shares(v, e.tr.Spans(), root)

	e.tr.SetRun("miss-heavy/ff-ablation")
	if v["core.ff_off_ratio"], err = e.ablateFastForward(pts); err != nil {
		return nil, err
	}
	coreMetrics(v, tot)
	v["core.sim_cycles"] = float64(tot.cycles)
	v["core.committed"] = float64(tot.committed)
	cellMetrics(v, tot.cells, nil)
	v["cells_failed"] = float64(e.failed)
	return v, nil
}
