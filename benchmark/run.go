package benchmark

import (
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"repro/benchmark/gen"
)

// Config is one benchmark invocation: one workload, one seed.
type Config struct {
	Workload string
	Seed     uint64
	// Seconds sets the length of an untraced run's timed phase: as many
	// whole rounds as take this long at the workload's nominal rate
	// (sizes.go). The count is fixed by Seconds, never by the clock, so
	// two runs do exactly the same work.
	Seconds float64
	// Trace selects the traced run, which reports the per-layer metrics
	// from a fixed number of rounds and writes the span file.
	Trace bool
	// Scale shrinks every size (the smoke test uses 0.01); 1 is the
	// benchmark.
	Scale float64
	// Dir is the directory data directories are created in.
	Dir string
	// TraceDir is where the traced run writes trace-<workload>.json.
	TraceDir string
	// BreakOracle falsifies every expected answer (test only).
	BreakOracle bool
	// Log receives the human-readable report.
	Log io.Writer
}

// Metric is one reported value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the outcome of one invocation, in the shape the last line of
// standard output carries it.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// traceRounds is the fixed length, in rounds, of each pass of the traced
// run: a few seconds in all, enough for every per-layer figure and a
// span file of a few megabytes. Being fixed, the per-layer counts repeat
// exactly for a seed on the single-session workloads.
const traceRounds = 3

// phase is what a sequence of rounds measured.
type phase struct {
	n   int     // operations run
	lat []int64 // their latencies in nanoseconds
	// ops holds the operations themselves, parallel to lat, when keepOps
	// is set. The traced run's few rounds need them for per-kind figures;
	// a timed run would only grow the heap the collector has to mark.
	keepOps       bool
	ops           []gen.Op
	roundRate     []float64 // operations per second, per round
	roundP99      []float64 // nanoseconds, per round
	elapsed       time.Duration
	allocBytes    uint64
	failed        int
	firstErr      error
	commitNS      []int64
	materializeNS []int64
	queueDepthMax float64
}

// Run sets the workload up, measures it and checks it. The returned
// error reports a harness failure (the knowledge base could not be built
// or opened); wrong answers and failed assertions are reported through
// Result.Correct.
func Run(cfg Config) (Result, error) {
	res := Result{Metrics: map[string]Metric{}}
	w, err := newWorkload(cfg.Workload)
	if err != nil {
		return res, err
	}
	sz := SizesAt(cfg.Scale)
	procs := min(runtime.NumCPU(), 2)
	runtime.GOMAXPROCS(procs)
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return res, err
	}
	root, err := os.MkdirTemp(cfg.Dir, cfg.Workload+"-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(root)
	roundOps := sz.RoundOps[cfg.Workload]
	fmt.Fprintf(cfg.Log, "# %s seed=%d scale=%g trace=%v %s nproc=%d GOMAXPROCS=%d\n",
		cfg.Workload, cfg.Seed, cfg.Scale, cfg.Trace, runtime.Version(), runtime.NumCPU(), procs)
	fmt.Fprintf(cfg.Log, "# data dir %s (filesystem type 0x%x); fsync at every commit (the store's default policy)\n", root, fsType(root))
	fmt.Fprintf(cfg.Log, "# closed loop: one driver goroutine per session or connection, each waits for its reply; one warm-up round of %d ops, runtime.GC(), then a fixed number of such rounds (no wall-clock stop)\n", roundOps)

	// Set-up, once: generate, bulk-load, flush, close, reopen, warm up.
	t0 := time.Now()
	w.generate(cfg.Seed, sz)
	bi, err := buildKB(w, root)
	if err != nil {
		return res, fmt.Errorf("build: %w", err)
	}
	// What the flushed and closed knowledge base occupies before any
	// operation has run: the same on every machine.
	fileBytes, err := storeBytes(root)
	if err != nil {
		return res, err
	}
	in, err := openKB(w, root, cfg.Seed, bi)
	if err != nil {
		return res, fmt.Errorf("reopen: %w", err)
	}
	for _, d := range in.drivers {
		d.breakOracle = cfg.BreakOracle
	}
	var warm phase
	in.round(roundOps, &warm)
	setup := time.Since(t0)
	res.Attempted += warm.n
	res.Failed += warm.failed
	if warm.firstErr != nil {
		fmt.Fprintf(cfg.Log, "# warm-up: first failure: %v\n", warm.firstErr)
	}
	runtime.GC()

	var checks []error
	if cfg.Trace {
		checks, err = traceRun(cfg, in, roundOps, &res)
	} else {
		checks, err = timedRun(cfg, in, roundOps, sz.rounds(cfg.Workload, cfg.Seconds), setup, &res)
	}
	if err != nil {
		in.close()
		return res, err
	}
	if !cfg.Trace {
		res.Metrics["space_amp"] = Metric{ratio(float64(fileBytes), float64(bi.userBytes)), "x"}
	}
	for _, c := range checks {
		fmt.Fprintf(cfg.Log, "# CHECK FAILED: %v\n", c)
	}
	res.Correct = res.Failed == 0 && len(checks) == 0
	return res, nil
}

// timedRun is the untraced run: a fixed number of rounds with the
// reference kernel between them, then the end-to-end metrics. Times are
// divided by the host's slowdown over the same rounds (reference.go); so
// is the set-up's, which the same spell of the host covered.
func timedRun(cfg Config, in *instance, roundOps, rounds int, setup time.Duration, res *Result) ([]error, error) {
	var ph phase
	var host hostMeter
	before := in.kb.Obs().Snapshot()
	host.sample(refPerRound)
	for i := 0; i < rounds; i++ {
		in.round(roundOps, &ph)
		host.sample(refPerRound)
	}
	c := since(in.kb.Obs(), before)
	checks := mechanismChecks(cfg.Workload, c, ph.n)
	if _, err := in.finish(cfg, res); err != nil {
		return nil, err
	}
	res.Attempted += ph.n
	res.Failed += ph.failed
	if ph.firstErr != nil {
		fmt.Fprintf(cfg.Log, "# first failure: %v\n", ph.firstErr)
	}
	slow := host.slowdown(cfg.Workload)
	rate, p50, p99 := median(ph.roundRate), quantile(ph.lat, 0.50)/1e3, median(ph.roundP99)/1e3
	fmt.Fprintf(cfg.Log, "# timed phase: %d rounds, %d ops, %.2f s; op_p99_us is the median of %d per-round p99s, each with %d samples beyond it\n",
		rounds, ph.n, ph.elapsed.Seconds(), rounds, roundOps/100)
	fmt.Fprintf(cfg.Log, "# host correction: times divided by %.4f (reference kernel %.3f ms, median of %d calls); uncorrected: set-up %.3f s, %.1f ops/s, p50 %.3f us, p99 %.3f us\n",
		slow, median(host.ms), len(host.ms), setup.Seconds(), rate, p50, p99)
	m := res.Metrics
	m["setup_s"] = Metric{setup.Seconds() / slow, "s"}
	m["ops_per_s"] = Metric{rate * slow, "1/s"}
	m["op_p50_us"] = Metric{p50 / slow, "us"}
	m["op_p99_us"] = Metric{p99 / slow, "us"}
	m["alloc_kb_per_op"] = Metric{ratio(float64(ph.allocBytes)/1024, float64(ph.n)), "KiB"}
	return checks, nil
}

// round runs the next n operations, split evenly over the drivers, and
// adds what it measured to ph. Operations are drawn before the clock
// starts. A single driver runs on the calling goroutine.
func (in *instance) round(n int, ph *phase) {
	per := n / len(in.drivers)
	for _, d := range in.drivers {
		d.take(per)
	}
	alloc0 := heapAllocs()
	t0 := time.Now()
	if len(in.drivers) == 1 {
		in.drivers[0].run()
	} else {
		var wg sync.WaitGroup
		for _, d := range in.drivers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				d.run()
			}()
		}
		wg.Wait()
	}
	dt := time.Since(t0)
	ph.allocBytes += heapAllocs() - alloc0
	ph.elapsed += dt
	var lat []int64
	for _, d := range in.drivers {
		if ph.keepOps {
			ph.ops = append(ph.ops, d.ops...)
		}
		lat = append(lat, d.lat...)
		ph.failed += d.failed
		if ph.firstErr == nil {
			ph.firstErr = d.firstErr
		}
		ph.commitNS = append(ph.commitNS, d.commitNS...)
		ph.materializeNS = append(ph.materializeNS, d.materializeNS...)
		d.failed, d.commitNS, d.materializeNS = 0, d.commitNS[:0], d.materializeNS[:0]
	}
	ph.n += len(lat)
	ph.lat = append(ph.lat, lat...)
	ph.roundRate = append(ph.roundRate, float64(len(lat))/dt.Seconds())
	ph.roundP99 = append(ph.roundP99, quantile(lat, 0.99))
	if in.srv != nil {
		ph.queueDepthMax = max(ph.queueDepthMax, float64(in.kb.Obs().Gauge("server.queue_depth").Value()))
	}
}

// finish stops the workload, closes the knowledge base (which folds the
// log into the page file) and returns the bytes the two occupy. After a
// served workload it reopens the page file and checks durability; every
// lost write is counted into res as one more failed operation.
func (in *instance) finish(cfg Config, res *Result) (fileBytes int64, err error) {
	served := in.srv != nil
	acked := make([][]string, len(in.drivers))
	for i, d := range in.drivers {
		acked[i] = d.lastAcked
	}
	if err := in.close(); err != nil {
		return 0, err
	}
	if served {
		lost, err := lostWrites(in.dir, acked)
		if err != nil {
			return 0, err
		}
		if lost > 0 {
			fmt.Fprintf(cfg.Log, "# durability: %d acknowledged writes lost, or retracted clauses present, after reopen\n", lost)
		}
		res.Attempted += lost
		res.Failed += lost
	}
	return storeBytes(in.dir)
}

// storeBytes is what the page file and the log under dir occupy.
func storeBytes(dir string) (int64, error) {
	var n int64
	for _, suffix := range []string{"", ".wal"} {
		fi, err := os.Stat(storePath(dir) + suffix)
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			return 0, err
		}
		if err == nil {
			n += fi.Size()
		}
	}
	return n, nil
}

// mechanismChecks asserts that the timed phase exercised what the
// workload exists to exercise, and bypassed what it exists to bypass.
func mechanismChecks(workload string, c counters, ops int) []error {
	var errs []error
	check := func(ok bool, format string, args ...any) {
		if !ok {
			errs = append(errs, fmt.Errorf(workload+": "+format, args...))
		}
	}
	hit := codeCacheHitRatio(c, ops)
	switch workload {
	case "term_hot":
		check(c.num["store.pool.reads"] == 0, "store.pool.reads = %v, want 0", c.num["store.pool.reads"])
		check(hit >= 0.99, "core.codecache.hit_ratio = %.4f, want >= 0.99", hit)
	case "term_cold":
		check(hit < 0.2, "core.codecache.hit_ratio = %.4f, want < 0.2", hit)
		per := ratio(c.num["edb.retrievals"], float64(ops))
		check(per >= 0.8, "edb.retrievals_per_op = %.4f, want >= 0.8", per)
	case "set_rw":
		check(c.num["setops.queries"] > 0, "no set-at-a-time fixpoint ran")
		check(c.num["setops.fallbacks"] == 0, "setops.fallbacks = %v, want 0", c.num["setops.fallbacks"])
	}
	return errs
}

// codeCacheHitRatio is the share of operations that ran on resident code:
// one minus the loads from the EDB (misses of the shared decoded-code
// cache, which a session consults only after missing its own) per
// operation, floored at zero.
func codeCacheHitRatio(c counters, ops int) float64 {
	return max(0, 1-ratio(c.num["core.codecache.misses"], float64(ops)))
}

// heapAllocs returns the bytes allocated on the Go heap so far.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// fsType returns the filesystem magic number of dir (0 if unknown).
func fsType(dir string) int64 {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return 0
	}
	return int64(st.Type)
}
