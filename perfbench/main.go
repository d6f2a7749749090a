// Command perfbench is the repository's end-to-end and per-layer
// benchmark. One invocation runs one workload for a fixed wall-clock
// budget, checks that every simulated output is exact, and prints one
// JSON result line. See README.md for the workloads and metrics.
//
//	perfbench --workload paper-figs --seed 1 --seconds 30 --trace 0
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"
)

// workload is one closed-loop load with a single caller. untraced
// measures the end-to-end metrics; traced measures the per-layer ones.
type workload struct {
	name     string
	untraced func(e *env) (map[string]float64, error)
	traced   func(e *env) (map[string]float64, error)
}

var workloads = []workload{
	{"paper-figs", paperFigsUntraced, paperFigsTraced},
	{"miss-heavy", missHeavyUntraced, missHeavyTraced},
	{"serve-sweep", serveSweepUntraced, serveSweepTraced},
}

// env is the state one run shares across its passes.
type env struct {
	rng     *rand.Rand    // every order the workload permutes is drawn from here
	budget  time.Duration // how long the run measures
	workdir string        // scratch space (stores), inside the checkout
	tr      *Tracer       // nil for an untraced run
	gate    gate

	attempted    int // cells (or runs) the workload asked for
	failed       int // failed or quarantined cells, and broken leases
	brokenLeases int // the part of failed that is broken leases
}

func main() {
	name := flag.String("workload", "", "workload: paper-figs, miss-heavy or serve-sweep")
	seed := flag.Int64("seed", 1, "seed for the cell and run order")
	secs := flag.Int("seconds", 30, "wall-clock seconds one run measures")
	trace := flag.Int("trace", 0, "1 measures the per-layer metrics in a traced run")
	workdir := flag.String("workdir", ".bench_build", "directory for stores and the trace file")
	serveJob := flag.String("serve-job", "", "run one served job on a fresh store in this directory and print its report (serve-sweep starts these)")
	flag.Parse()

	if *serveJob != "" {
		if err := serveJobProcess(*serveJob); err != nil {
			fail(err)
		}
		return
	}

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	switch {
	case w == nil:
		fail(fmt.Errorf("unknown workload %q", *name))
	case *secs < 1:
		fail(fmt.Errorf("--seconds must be at least 1 (got %d)", *secs))
	case *trace != 0 && *trace != 1:
		fail(fmt.Errorf("--trace must be 0 or 1 (got %d)", *trace))
	}
	res, err := run(w, *seed, time.Duration(*secs)*time.Second, *trace == 1, *workdir)
	if err != nil {
		fail(err)
	}
	fmt.Println(res)
}

// run measures one workload and returns its result line. Every store
// it creates lives in a scratch directory under workdir, removed on
// return.
func run(w *workload, seed int64, budget time.Duration, traced bool, workdir string) (result, error) {
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return result{}, err
	}
	scratch, err := os.MkdirTemp(workdir, "run-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(scratch)

	e := &env{rng: rand.New(rand.NewSource(seed)), budget: budget, workdir: scratch}
	specs, measure := endToEnd, w.untraced
	if traced {
		specs, measure, e.tr = perLayer, w.traced, NewTracer()
	}
	values, err := measure(e)
	if err != nil {
		return result{}, err
	}
	if traced {
		path := filepath.Join(workdir, fmt.Sprintf("trace-%s-seed%d.jsonl", w.name, seed))
		if err := e.tr.WriteFile(path); err != nil {
			return result{}, err
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(e.tr.Spans()), path)
	}
	for _, p := range e.gate.problems {
		fmt.Fprintf(os.Stderr, "perfbench: INCORRECT: %s\n", p)
	}
	return newResult(specs, values, e.attempted, e.failed, e.gate.ok())
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

// timeLoop runs pass until the budget is spent, at least min times.
// Passes time themselves. timeLoop returns the peak RSS of the first
// pass, the one a fresh process makes: later passes reuse heap the Go
// runtime has to zero again, which a user running one sweep per
// process never sees. The heap the set-up left is returned to the
// system first: how much of it there is depends on how many set-ups
// the host's speed allowed, and it would shift when the first pass's
// collections fall and so its peak.
func (e *env) timeLoop(min int, pass func() error) (float64, error) {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return 0, fmt.Errorf("resetting the peak RSS: %w", err)
	}
	var peak float64
	start := time.Now()
	for n := 1; n <= min || time.Since(start) < e.budget; n++ {
		if err := pass(); err != nil {
			return 0, err
		}
		fmt.Fprintf(os.Stderr, "perfbench: pass %d done at %.2fs\n", n, time.Since(start).Seconds())
		if n == 1 {
			var err error
			if peak, err = peakRSSMiB(); err != nil {
				return 0, err
			}
		}
	}
	return peak, nil
}

// Set-up is measured in setupSamples samples. Each times set-ups back
// to back until setupSpan of set-up time has passed and takes their
// mean: one set-up lasts milliseconds, too short to time steadily.
const (
	setupSamples = 5
	setupSpan    = 400 * time.Millisecond
)

// setupTime returns the median over the samples of the mean duration
// of once, in seconds. once returns the time its set-up took, which
// leaves out any tear-down it does.
func setupTime(once func() (time.Duration, error)) (float64, error) {
	var samples []float64
	start, count := time.Now(), 0
	for i := 0; i < setupSamples; i++ {
		var sum time.Duration
		n := 0
		for sum < setupSpan {
			d, err := once()
			if err != nil {
				return 0, err
			}
			sum += d
			n++
		}
		count += n
		samples = append(samples, sum.Seconds()/float64(n))
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d set-ups in %.2fs, samples %.3g s\n", count, time.Since(start).Seconds(), samples)
	return median(samples), nil
}

// tracedPairs runs pass once untraced to warm the process, then in
// n pairs of one untraced and one traced run, alternating
// which goes first so that drift in host speed falls on both alike.
// pass returns the time it measured and must measure the same work
// either way. tracedPairs returns the median of traced ÷ untraced, the
// Go runtime's work during the first measured untraced run and that
// run's time.
func (e *env) tracedPairs(n int, pass func() (time.Duration, error)) (overhead float64, from, to runtimeUse, wall time.Duration, err error) {
	tr := e.tr
	defer func() { e.tr = tr }()
	e.tr = nil
	if _, err = pass(); err != nil {
		return
	}
	var ratios []float64
	for i := 0; i < n; i++ {
		var d [2]time.Duration // untraced, traced
		for k := 0; k < 2; k++ {
			traced := (k == 1) == (i%2 == 0)
			e.tr = nil
			if traced {
				e.tr = tr
			}
			u0 := readRuntime()
			var t time.Duration
			if t, err = pass(); err != nil {
				return
			}
			if !traced && i == 0 {
				from, to, wall = u0, readRuntime(), t
			}
			if traced {
				d[1] = t
			} else {
				d[0] = t
			}
		}
		fmt.Fprintf(os.Stderr, "perfbench: pair %d: untraced %.3fs, traced %.3fs\n", i+1, d[0].Seconds(), d[1].Seconds())
		ratios = append(ratios, ratio(float64(d[1]), float64(d[0])))
	}
	return median(ratios), from, to, wall, nil
}

// permutation draws an order of n items from the run's seed.
func (e *env) permutation(n int) []int { return e.rng.Perm(n) }

// peakRSSMiB reads the process's peak resident set size.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("VmHWM missing from /proc/self/status")
}

// runtimeUse is the Go runtime's cumulative work at one instant.
type runtimeUse struct {
	allocBytes uint64
	gcCycles   uint32
	gcCPU      float64 // seconds of CPU the collector used
}

func readRuntime() runtimeUse {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	sample := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(sample)
	u := runtimeUse{allocBytes: ms.TotalAlloc, gcCycles: ms.NumGC}
	if sample[0].Value.Kind() == metrics.KindFloat64 {
		u.gcCPU = sample[0].Value.Float64()
	}
	return u
}

// runtimeMetrics fills the runtime layer's metrics for the work done
// between from and to, which took wall.
func runtimeMetrics(v map[string]float64, from, to runtimeUse, wall time.Duration) {
	v["runtime.alloc_mb"] = float64(to.allocBytes-from.allocBytes) / (1 << 20)
	v["runtime.gc_cycles"] = float64(to.gcCycles - from.gcCycles)
	v["runtime.gc_cpu_share"] = ratio(to.gcCPU-from.gcCPU, wall.Seconds())
}
