package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/cliflags"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/kernels"
	"repro/internal/serve"
	"repro/internal/store"
)

// goldenPath is the committed small-scale output of every experiment,
// relative to the repository root the benchmark runs from.
var goldenPath = filepath.Join("internal", "experiments", "testdata", "small_tables.golden")

// statusPoll is how often the client asks for job status while the
// cells run. It bounds how late the last commit is observed.
const statusPoll = 50 * time.Millisecond

// resumeBudget is how long back-to-back resume passes run after each
// served job; one pass takes tens of milliseconds.
const resumeBudget = 1500 * time.Millisecond

// deploymentArgs are the sdsp-serve flags the benchmark deploys with.
// The coordinator notices a finished job only on its supervision tick,
// a quarter of -lease, so the job's latency is the first tick after
// the last commit. At the default -lease 30s that tick is 7.5 s, and
// the small sweep's cells took 5-10 s on a 2-vCPU VM as its speed
// moved: the latency jumps between 7.5 and 15 s. A 60 s lease ticks
// every 15 s, after the cells on any host this benchmark has seen, so
// the latency holds one mode. It also keeps supervision passes away from
// the worker's lease traffic, where a shorter tick shows the store's
// lease publish race (see README.md). A 100 ms poll lets the worker
// find the job within a tenth of a second. Every other flag keeps its
// default, one local worker included.
var deploymentArgs = []string{"-lease", "60s", "-poll", "100ms"}

// deployment parses sdsp-serve's flags from deploymentArgs.
func deployment() (cliflags.Serve, cliflags.Supervision, error) {
	var sf cliflags.Serve
	var sup cliflags.Supervision
	fs := flag.NewFlagSet("sdsp-serve", flag.ContinueOnError)
	sf.RegisterServe(fs)
	sup.Register(fs)
	if err := fs.Parse(deploymentArgs); err != nil {
		return sf, sup, err
	}
	return sf, sup, sf.Validate(false)
}

// coordinator is an in-process sdsp-serve coordinator with its local
// worker, on a store of its own.
type coordinator struct {
	store  *store.Store
	base   string
	flags  cliflags.Serve
	cancel context.CancelFunc
	done   chan error
}

// startCoordinator opens the store at dir, creating it if need be,
// and serves it until /healthz answers. The time this takes is the
// serve set-up. logf, when not nil, receives the coordinator's and its
// worker's log lines.
func startCoordinator(dir string, logf func(string, ...any)) (*coordinator, time.Duration, error) {
	sf, sup, err := deployment()
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	st, err := store.Open(dir, storeLog)
	if err != nil {
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	srv := &serve.Server{Store: st, Flags: sf, CellTimeout: sup.CellTimeout, Retries: sup.Retries, Logf: logf}
	ctx, cancel := context.WithCancel(context.Background())
	c := &coordinator{store: st, base: "http://" + ln.Addr().String(), flags: sf, cancel: cancel, done: make(chan error, 1)}
	go func() { c.done <- srv.Run(ctx, ln) }()
	// The socket is listening already, so the first request waits for
	// the server to accept it rather than failing.
	hc := &http.Client{Timeout: 10 * time.Second}
	defer hc.CloseIdleConnections()
	resp, err := hc.Get(c.base + "/healthz")
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %s", resp.Status)
		}
	}
	if err != nil {
		c.stop()
		return nil, 0, fmt.Errorf("coordinator not healthy: %w", err)
	}
	return c, time.Since(t0), nil
}

// storeLog passes the served store's log lines, such as a broken
// lease and why it was broken, to standard error.
func storeLog(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// serveSetup is one coordinator start on the store at dir, torn down
// again; only the start is timed.
func serveSetup(dir string) (time.Duration, error) {
	c, setup, err := startCoordinator(dir, nil)
	if err != nil {
		return 0, err
	}
	return setup, c.stop()
}

// stop drains the coordinator and waits until it has returned.
func (c *coordinator) stop() error {
	c.cancel()
	return <-c.done
}

// servedJob is what the client saw of one job.
type servedJob struct {
	total, committed int
	failed           int           // failed or quarantined cells
	submitted        time.Time     // when the client submitted the job
	commitSpan       time.Duration // submit until the last commit was observed
	latency          time.Duration // submit until the tables were in hand
	tables           []byte
	span             int          // the job's span, when traced
	cells            []workerCell // the worker's report of each cell, when traced
}

// workerCell is one cell the coordinator's worker reported committed.
type workerCell struct {
	label string
	wall  time.Duration // ExecuteDeclared: the runner's store probes, simulation and commit
	at    time.Time     // when the worker reported it, after releasing the lease
}

// workerLog collects the cells the worker reports through the
// server's log hook, which it calls from the worker's goroutine.
type workerLog struct {
	mu    sync.Mutex
	cells []workerCell
}

// logf is the hook. The worker reports a committed cell as
// "worker: %s committed (%.2fs, source %s)" with the cell's label and
// its ExecuteDeclared wall time in seconds.
func (w *workerLog) logf(format string, args ...any) {
	at := time.Now()
	if !strings.HasPrefix(format, "worker: %s committed") || len(args) < 2 {
		return
	}
	label, _ := args[0].(string)
	secs, _ := args[1].(float64)
	w.mu.Lock()
	w.cells = append(w.cells, workerCell{label: label, wall: time.Duration(secs * float64(time.Second)), at: at})
	w.mu.Unlock()
}

// submitJob is one client's closed-loop request: submit every
// experiment at small scale, poll status until every cell has
// resolved, then wait for the tables. The client's calls are spans.
func (e *env) submitJob(c *coordinator) (servedJob, error) {
	var job servedJob
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	defer hc.CloseIdleConnections()
	cl := &serve.Client{Base: c.base, HTTP: hc}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()

	t0 := time.Now()
	job.submitted = t0
	var id string
	var err error
	e.tr.Span("serve.submit", func() {
		id, err = cl.Submit(ctx, &serve.JobSpec{Experiments: []string{"all"}, Scale: "small"})
	})
	if err != nil {
		return job, err
	}
	for {
		var st *serve.JobStatus
		e.tr.Span("serve.status", func() { st, err = cl.Status(ctx, id, false) })
		if err != nil {
			return job, err
		}
		seen := time.Since(t0)
		if st.Pending+st.Leased == 0 || st.State != serve.JobRunning {
			job.total, job.committed = st.Total, st.Committed
			job.failed = st.Failed + st.Quarantined
			job.commitSpan = seen
			break
		}
		time.Sleep(statusPoll)
	}
	e.tr.Span("serve.wait_tables", func() { job.tables, err = cl.WaitTables(ctx, id, c.flags.Poll) })
	job.latency = time.Since(t0)
	return job, err
}

// servePass runs one job on a fresh coordinator with a fresh store at
// dir, stops the coordinator, and checks the served tables against the
// golden output. When e is traced, the job is a span and the worker's
// report of each cell is kept in the returned job.
func (e *env) servePass(dir string, golden []byte) (servedJob, error) {
	var wl *workerLog
	var logf func(string, ...any)
	if e.tr != nil {
		wl = &workerLog{}
		logf = wl.logf
	}
	c, _, err := startCoordinator(dir, logf)
	if err != nil {
		return servedJob{}, err
	}
	root := e.tr.Begin("bench.serve")
	job, err := e.submitJob(c)
	if serr := c.stop(); err == nil {
		err = serr
	}
	e.tr.End(root)
	if err != nil {
		return job, err
	}
	if wl != nil {
		job.span, job.cells = root, wl.cells
		for _, cell := range job.cells {
			e.tr.Add("experiments.cell", root, cell.at.Add(-cell.wall), cell.at)
		}
	}
	e.attempted += job.total
	e.failed += job.failed
	broken := int(c.store.Stats().StaleLeasesBroken)
	e.failed += broken
	e.brokenLeases += broken
	if job.failed > 0 || broken > 0 {
		e.gate.failf("served job: %d cells failed or quarantined, %d leases broken", job.failed, broken)
	}
	e.gate.expectBytes("served tables", job.tables, golden)
	return job, nil
}

// resumePass re-runs the sweep through a fresh Runner on the store a
// job filled, as sdsp-exp -store does: every cell must be served from
// the store, and the tables must match the golden output.
// It returns the pass's wall time and the cells' simulated cycles.
func (e *env) resumePass(dir string, exps []experiments.Experiment, golden []byte) (time.Duration, uint64, error) {
	_, sup, err := deployment()
	if err != nil {
		return 0, 0, err
	}
	o := e.order(exps)
	t0 := time.Now()
	st, err := store.Open(dir, nil)
	if err != nil {
		return 0, 0, err
	}
	r := experiments.NewRunner(kernels.Small)
	r.Store, r.CellTimeout, r.Retries = st, sup.CellTimeout, sup.Retries
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
	for _, tm := range timings {
		if tm.Source != "store" {
			e.gate.failf("resume: cell %s came from %q, not the store", tm.Label, tm.Source)
			break
		}
	}
	e.gate.expectBytes("resumed tables", out, golden)
	return wall, cycles, nil
}

func readGolden() ([]byte, error) {
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		return nil, fmt.Errorf("reading the golden tables (run from the repository root): %w", err)
	}
	return golden, nil
}

func serveSweepUntraced(e *env) (map[string]float64, error) {
	golden, err := readGolden()
	if err != nil {
		return nil, err
	}
	exps := experiments.Registry()
	// Set-up is the coordinator's start on an existing, empty store, as
	// a daemon restarts. Creating a store writes and fsyncs its version
	// marker, which takes 0.3-3 ms as the host's disk is more or less
	// busy; that one-time step is left out of the samples.
	setupDir := filepath.Join(e.workdir, "setup")
	if _, err := store.Open(setupDir, nil); err != nil {
		return nil, err
	}
	setup, err := setupTime(func() (time.Duration, error) { return serveSetup(setupDir) })
	if err != nil {
		return nil, err
	}
	n := 0
	var latencies, resumes []time.Duration
	var rates, cycleRates, peaks []float64
	_, err = e.timeLoop(3, func() error {
		n++
		dir := filepath.Join(e.workdir, fmt.Sprintf("serve-%d", n))
		defer os.RemoveAll(dir)
		job, err := e.runJobProcess(dir)
		if err != nil {
			return err
		}
		latencies = append(latencies, job.Latency)
		rates = append(rates, float64(job.Committed)/job.CommitSpan.Seconds())
		peaks = append(peaks, job.PeakRSSMiB)
		fmt.Fprintf(os.Stderr, "perfbench: job %d: %.1f cells/s, latency %.3fs, peak RSS %.1f MiB\n",
			n, rates[len(rates)-1], job.Latency.Seconds(), job.PeakRSSMiB)
		t0 := time.Now()
		for first := true; first || time.Since(t0) < resumeBudget; first = false {
			wall, cycles, err := e.resumePass(dir, exps, golden)
			if err != nil {
				return err
			}
			if first {
				cycleRates = append(cycleRates, float64(cycles)/job.CommitSpan.Seconds())
			}
			resumes = append(resumes, wall)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"sim_cycles_per_s": median(cycleRates),
		"cells_per_s":      median(rates),
		"job_latency_s":    median(seconds(latencies)),
		"resume_s":         median(seconds(resumes)),
		"setup_s":          setup,
		"peak_rss_mb":      median(peaks),
	}, nil
}

// jobReport is what a served job run in a process of its own reports,
// as the last line of its standard output.
type jobReport struct {
	Attempted, Failed, BrokenLeases int
	Committed                       int
	CommitSpan, Latency             time.Duration
	PeakRSSMiB                      float64
	Problems                        []string // the job's correctness problems
}

// runJobProcess runs one served job on a fresh store at dir in a
// process of its own, perfbench --serve-job, waits for it to end, and
// charges its report to e. Each job thus starts, like an sdsp-serve
// daemon, in a fresh process, and the coordinator's peak RSS can be
// sampled more than once a run: one job's peak moves by up to a fifth
// with when its collections fall, and a process that ran an earlier
// job has to zero reused heap that a fresh one gets zeroed from the
// system.
func (e *env) runJobProcess(dir string) (jobReport, error) {
	var r jobReport
	exe, err := os.Executable()
	if err != nil {
		return r, err
	}
	cmd := exec.Command(exe, "--serve-job", dir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return r, fmt.Errorf("served job process: %w", err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
		return r, fmt.Errorf("served job process printed no report: %w", err)
	}
	e.attempted += r.Attempted
	e.failed += r.Failed
	e.brokenLeases += r.BrokenLeases
	e.gate.problems = append(e.gate.problems, r.Problems...)
	return r, nil
}

// serveJobProcess is the body of perfbench --serve-job: one served job
// on a fresh store at dir, checked, and its report printed.
func serveJobProcess(dir string) error {
	golden, err := readGolden()
	if err != nil {
		return err
	}
	e := &env{}
	job, err := e.servePass(dir, golden)
	if err != nil {
		return err
	}
	peak, err := peakRSSMiB()
	if err != nil {
		return err
	}
	out, err := json.Marshal(jobReport{
		Attempted: e.attempted, Failed: e.failed, BrokenLeases: e.brokenLeases,
		Committed: job.committed, CommitSpan: job.commitSpan, Latency: job.latency,
		PeakRSSMiB: peak, Problems: e.gate.problems,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

func serveSweepTraced(e *env) (map[string]float64, error) {
	golden, err := readGolden()
	if err != nil {
		return nil, err
	}
	exps := experiments.Registry()
	v := zeroMetrics()

	// The same job, untraced and traced in pairs. A traced job has the
	// client's calls as spans and the worker's report of each cell
	// through the server's log hook.
	e.tr.SetRun("serve-sweep/job")
	var job servedJob
	var filled string
	jobs := 0
	// One pair: each job lasts a 15 s supervision tick.
	overhead, u0, u1, wall, err := e.tracedPairs(1, func() (time.Duration, error) {
		jobs++
		dir := filepath.Join(e.workdir, fmt.Sprintf("serve-%d", jobs))
		j, err := e.servePass(dir, golden)
		if e.tr != nil {
			job, filled = j, dir
		}
		return j.commitSpan, err
	})
	if err != nil {
		return nil, err
	}
	runtimeMetrics(v, u0, u1, wall)
	v["trace.overhead"] = overhead
	if len(job.cells) != job.committed || job.committed == 0 {
		return nil, fmt.Errorf("the worker reported %d cells committed, the job %d", len(job.cells), job.committed)
	}

	// The job's own timeline, from the worker's reports: when it began
	// the first cell, how long each cell's execution took, and the rest
	// of its loop between cells (lease, probes, failure scan, heartbeat).
	first, last := job.cells[0], job.cells[len(job.cells)-1]
	walls := make([]time.Duration, len(job.cells))
	labels := make([]string, len(job.cells))
	var cellWork, between time.Duration
	for i, c := range job.cells {
		walls[i], labels[i] = c.wall, c.label
		cellWork += c.wall
		if i > 0 {
			between += c.at.Sub(job.cells[i-1].at) - c.wall
		}
	}
	span := last.at.Sub(job.submitted) // submit to the last commit
	v["serve.first_commit_wait_s"] = first.at.Add(-first.wall).Sub(job.submitted).Seconds()
	v["serve.finish_wait_s"] = (job.latency - span).Seconds()
	v["serve.cell_overhead_ms"] = ratio(float64(between)/float64(time.Millisecond), float64(len(job.cells)-1))
	cellMetrics(v, walls, labels)
	calls := summarize(subtree(e.tr.Spans(), job.span))
	v["serve.submit_ms"] = meanMillis(calls.durations["serve.submit"])
	v["serve.status_ms"] = meanMillis(calls.durations["serve.status"])

	storeShare, keys, err := e.replayCells(v, exps, golden)
	if err != nil {
		return nil, err
	}
	// Shares of the job's submit-to-last-commit span. A cell's execution
	// is split between simulation and the runner's store traffic in the
	// proportion the replay measured; everything outside the cells'
	// execution is serving.
	v["share.experiments"] = ratio(float64(cellWork)*(1-storeShare), float64(span))
	v["share.store"] = ratio(float64(cellWork)*storeShare, float64(span))
	v["share.serve"] = ratio(float64(span-cellWork), float64(span))

	if err := e.storeCalls(v, filled, keys); err != nil {
		return nil, err
	}

	// Per-cell set-up and the core loop, measured directly on the
	// sweep's default point at small scale: every kernel at 1-6 threads.
	e.tr.SetRun("serve-sweep/default-config")
	if err := e.probeCore(v, points(kernels.Small, threadSweep, defaultConfig)); err != nil {
		return nil, err
	}
	v["cells_failed"] = float64(e.failed - e.brokenLeases)
	v["leases_broken"] = float64(e.brokenLeases)
	return v, nil
}

// replayCells executes the sweep's cells twice over in this goroutine:
// through a runner without a store and through one with a fresh store,
// cell by cell and alternating which goes first. It returns the share
// of the stored execution that the store adds, and fills the
// declaration and assembly metrics from the storeless runner. It also
// returns the cells' keys.
func (e *env) replayCells(v map[string]float64, exps []experiments.Experiment, golden []byte) (float64, []string, error) {
	e.tr.SetRun("serve-sweep/replay")
	root := e.tr.Begin("bench.replay")
	defer e.tr.End(root)
	st, err := store.Open(filepath.Join(e.workdir, "replay"), nil)
	if err != nil {
		return 0, nil, err
	}
	o := e.order(exps)
	plain := experiments.NewRunner(kernels.Small)
	stored := experiments.NewRunner(kernels.Small)
	stored.Store = st
	var cells, storedCells []experiments.DeclaredCell
	e.tr.Span("experiments.declare", func() { cells, err = plain.DeclareCells(o.exps) })
	if err != nil {
		return 0, nil, err
	}
	if storedCells, err = stored.DeclareCells(o.exps); err != nil {
		return 0, nil, err
	}
	if len(storedCells) != len(cells) {
		return 0, nil, fmt.Errorf("two declarations of one sweep found %d and %d cells", len(cells), len(storedCells))
	}
	timings := make([]experiments.CellTiming, len(cells))
	var simOnly, withStore time.Duration
	for i := range cells {
		for k := 0; k < 2; k++ {
			if (k == 0) == (i%2 == 0) {
				t0 := time.Now()
				id := e.tr.Begin("experiments.cell")
				timings[i], _ = plain.ExecuteDeclared(cells[i]) // a failure is in the timing
				e.tr.End(id)
				simOnly += time.Since(t0)
			} else {
				t0 := time.Now()
				id := e.tr.Begin("bench.stored_cell")
				tm, _ := stored.ExecuteDeclared(storedCells[i])
				e.tr.End(id)
				withStore += time.Since(t0)
				if tm.Err != "" {
					e.gate.failf("replayed cell %s failed with a store: %s", tm.Label, tm.Err)
				}
			}
		}
	}
	var out []byte
	e.tr.Span("experiments.assemble", func() {
		var tables [][]experiments.Table
		if tables, _, err = plain.RunExperiments(o.exps, 1); err == nil {
			out, err = o.render(tables)
		}
	})
	if err != nil {
		return 0, nil, err
	}
	v["core.sim_cycles"] = float64(e.countCells(timings))
	e.gate.expectBytes("replayed tables", out, golden)
	st2 := summarize(subtree(e.tr.Spans(), root))
	v["experiments.declare_ms"] = meanMillis(st2.durations["experiments.declare"])
	v["experiments.assemble_ms"] = meanMillis(st2.durations["experiments.assemble"])
	keys := make([]string, len(cells))
	for i, c := range cells {
		keys[i] = c.Key
	}
	return 1 - ratio(float64(simOnly), float64(withStore)), keys, nil
}

// storeCalls times the store's calls one at a time, once per cell of
// the store a served job filled: Get from that store, then the
// worker's AcquireLease, Put and Release on a fresh one. It also sums
// the committed instructions of the cells it reads.
func (e *env) storeCalls(v map[string]float64, filled string, keys []string) error {
	sf, _, err := deployment()
	if err != nil {
		return err
	}
	e.tr.SetRun("serve-sweep/store")
	read, err := store.Open(filled, nil)
	if err != nil {
		return err
	}
	fresh, err := store.Open(filepath.Join(e.workdir, "store-calls"), nil)
	if err != nil {
		return err
	}
	root := e.tr.Begin("bench.store")
	defer e.tr.End(root)
	var committed uint64
	for _, key := range keys {
		var stats *core.Stats
		var ok bool
		e.tr.Span("store.get", func() { stats, ok = read.Get(key) })
		if !ok {
			return fmt.Errorf("cell %s unreadable in the served store", key)
		}
		committed += stats.Committed
		var l *store.CellLease
		e.tr.Span("store.lease", func() { l, err = fresh.AcquireLease(key, "perfbench", sf.Lease) })
		if err == nil && l == nil {
			err = fmt.Errorf("lease on a fresh store was refused")
		}
		if err != nil {
			return err
		}
		e.tr.Span("store.put", func() { err = fresh.Put(key, stats) })
		if err != nil {
			return err
		}
		e.tr.Span("store.lease", func() { l.Release() })
	}
	st := summarize(subtree(e.tr.Spans(), root))
	v["store.get_ms"] = meanMillis(st.durations["store.get"])
	v["store.put_ms"] = meanMillis(st.durations["store.put"])
	v["store.lease_ms"] = ratio(float64(st.total("store.lease"))/float64(time.Millisecond), float64(len(keys)))
	v["core.committed"] = float64(committed)
	return nil
}
