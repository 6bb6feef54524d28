package benchmark

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/benchmark/gen"
	"repro/internal/obs"
)

// perLayerUnits names every per-layer metric with its unit. A traced run
// emits all of them for every workload; a metric whose layer the
// workload does not reach reads 0.
var perLayerUnits = map[string]string{
	"parser.parse_us_per_op":     "us",
	"compiler.compile_us_per_op": "us",

	"wam.exec_us_per_op": "us",
	"wam.instr_per_op":   "count",
	"wam.gc_us_per_op":   "us",

	"core.codecache.hit_ratio":     "ratio",
	"core.overhead_us_per_op":      "us",
	"core.commit_us_p50":           "us",
	"core.invalidations_per_write": "count",

	"edb.retrieve_us_per_op":      "us",
	"edb.retrievals_per_op":       "count",
	"edb.scanned_per_passed":      "ratio",
	"edb.pages_per_retrieval":     "count",
	"edb.store_clause_us":         "us",
	"loader.decode_us_per_op":     "us",
	"loader.link_us_per_op":       "us",
	"dict.intern_ns":              "ns",
	"dict.segments":               "count",
	"store.pool.hit_ratio":        "ratio",
	"store.pool.reads_per_op":     "count",
	"store.page_read_us_p50":      "us",
	"store.wal.checkpoints":       "count",
	"store.wal.fsyncs_per_commit": "count",

	"store.pool.evictions_per_op":    "count",
	"store.latch_wait_us_per_op":     "us",
	"store.wal.bytes_per_user_byte":  "ratio",
	"store.file_bytes_per_user_byte": "ratio",

	"rel.select_us_p50":       "us",
	"rel.join_us_p50":         "us",
	"rel.scanned_per_matched": "ratio",
	"rel.insert_us_per_tuple": "us",

	"setops.fixpoints_per_recursive_op": "count",
	"setops.iterations_per_fixpoint":    "count",
	"setops.delta_tuples_per_solution":  "ratio",
	"setops.pages_read_per_fixpoint":    "count",
	"setops.fallbacks":                  "count",
	"setops.materialize_us_p50":         "us",

	"server.rtt_overhead_us": "us",
	"server.read_p99_us":     "us",
	"server.write_p99_us":    "us",
	"server.sheds":           "count",
	"server.queue_depth_max": "count",
	"server.query_errors":    "count",

	"runtime.peak_rss_mb":      "MiB",
	"runtime.heap_live_mb":     "MiB",
	"runtime.gc_pause_us_p99":  "us",
	"bench.trace_overhead_pct": "%",
}

// engine sums what the sessions that execute operations report about
// themselves: the phase vector of Session.Cost and the instruction count
// of Machine.Stats.
type engine struct {
	phases obs.PhaseTimes
	instr  uint64
}

func engineOf(in *instance) engine {
	var e engine
	for _, s := range in.sessions {
		c := s.Cost()
		e.phases.AddTimes(&c.Phases)
		e.instr += s.Machine().Stats().Instructions
	}
	return e
}

// addSince adds to e what the sessions did since the reading before.
func (e *engine) addSince(in *instance, before engine) {
	now := engineOf(in)
	for i := range e.phases {
		e.phases[i] += now.phases[i] - before.phases[i]
	}
	e.instr += now.instr - before.instr
}

func (e engine) us(p obs.Phase) float64 { return float64(e.phases.Get(p)) / 1e3 }

// traceRun is the traced run: traceRounds untraced rounds (pass A)
// alternating with as many traced ones (pass B), so that drift of the
// machine hits both alike. Pass A supplies every counter-based metric,
// read around its rounds only, so that replayed probes never inflate a
// count; pass B supplies the probe timings, the span file and the
// tracing overhead.
func traceRun(cfg Config, in *instance, roundOps int, res *Result) ([]error, error) {
	reg := in.kb.Obs()
	served := in.srv != nil
	warmOps := res.Attempted

	t0 := time.Now()
	var trs []*tracer
	for range in.drivers {
		trs = append(trs, newTracer(t0, reg, newProber(in.kb, served)))
	}
	a, b := phase{keepOps: true}, phase{}
	var eng engine
	c := counters{num: map[string]float64{}, hist: map[string]obs.HistogramSnapshot{}}
	for i := 0; i < traceRounds; i++ {
		before, eng0 := reg.Snapshot(), engineOf(in)
		in.round(roundOps, &a)
		c.add(since(reg, before))
		eng.addSince(in, eng0)
		for j, d := range in.drivers {
			d.tr = trs[j]
			d.tr.resync()
		}
		in.round(roundOps, &b)
		for _, d := range in.drivers {
			d.tr = nil
		}
	}
	end := time.Since(t0).Nanoseconds()
	engOps := float64(a.n)

	// The served read queries once more on a session in this process:
	// the difference of the medians is what the wire and admission cost.
	var inprocP50 float64
	if served {
		var err error
		if inprocP50, err = inProcessP50(in, a.ops); err != nil {
			return nil, err
		}
	}

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	checks := mechanismChecks(cfg.Workload, c, a.n)
	fileBytes, err := in.finish(cfg, res)
	if err != nil {
		return nil, err
	}
	if served {
		// Pool sessions can only be read once the server has shut down,
		// so their figures cover every served operation, warm-up included.
		eng = engineOf(in)
		engOps = float64(warmOps + a.n + b.n)
	}
	res.Attempted += a.n + b.n
	res.Failed += a.failed + b.failed
	for _, err := range []error{a.firstErr, b.firstErr} {
		if err != nil {
			fmt.Fprintf(cfg.Log, "# first failure: %v\n", err)
		}
	}
	for _, tr := range trs {
		if tr.pr.err != nil {
			checks = append(checks, fmt.Errorf("probe: %w", tr.pr.err))
		}
	}

	tf := mergeSpans(cfg.Workload, cfg.Seed, trs, end)
	path, err := writeTrace(cfg.TraceDir, tf)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.Log, "# traced pass: %d ops, %d spans written to %s\n", tf.Ops, len(tf.Spans), path)
	reportSelfTimes(cfg.Log, tf, quantile(a.lat, 0.5)/1e3)

	m := map[string]float64{}
	ops := float64(a.n)

	// Probes, merged over the drivers.
	probe := func(name string) (us float64, st probeStat) {
		var probed int
		for _, tr := range trs {
			if s := tr.pr.stats[name]; s != nil {
				st.ns += s.ns
				st.calls += s.calls
			}
			probed += tr.pr.probed
		}
		return ratio(float64(st.ns)/1e3, float64(probed)), st
	}
	m["parser.parse_us_per_op"], _ = probe("parser.parse")
	m["compiler.compile_us_per_op"], _ = probe("compiler.compile")
	m["edb.retrieve_us_per_op"], _ = probe("edb.retrieve")
	m["loader.decode_us_per_op"], _ = probe("loader.decode")
	m["loader.link_us_per_op"], _ = probe("loader.link")
	_, interns := probe("dict.intern")
	m["dict.intern_ns"] = ratio(float64(interns.ns), float64(interns.calls))
	for _, s := range in.sessions {
		m["dict.segments"] = max(m["dict.segments"], float64(s.Machine().Dict.Segments()))
	}

	m["wam.exec_us_per_op"] = eng.us(obs.PhaseExec) / engOps
	m["wam.instr_per_op"] = float64(eng.instr) / engOps
	m["wam.gc_us_per_op"] = eng.us(obs.PhaseGC) / engOps

	var wall float64
	for _, ns := range a.lat {
		wall += float64(ns)
	}
	if !served {
		// What an operation cost beyond the phases the program accounts
		// for: exec already contains the trap-triggered phases and gc.
		accounted := eng.us(obs.PhaseExec) + eng.us(obs.PhaseParse) + eng.us(obs.PhaseCompile) + eng.us(obs.PhaseStore)
		m["core.overhead_us_per_op"] = (wall/1e3 - accounted) / ops
	}
	writes := float64(countKind(a.ops, gen.Write))
	m["core.codecache.hit_ratio"] = codeCacheHitRatio(c, a.n)
	m["core.commit_us_p50"] = quantile(a.commitNS, 0.5) / 1e3
	m["core.invalidations_per_write"] = ratio(c.num["core.codecache.invalidations"], writes)

	m["edb.retrievals_per_op"] = c.num["edb.retrievals"] / ops
	m["edb.scanned_per_passed"] = ratio(c.num["edb.clauses_scanned"], c.num["edb.clauses_passed"])
	m["edb.pages_per_retrieval"] = c.hist["edb.pages_per_retrieval"].Mean()
	m["edb.store_clause_us"] = ratio(in.build.storeNS/1e3, in.build.clauses)

	m["store.pool.hit_ratio"] = ratio(c.num["store.pool.hits"], c.num["store.pool.accesses"])
	m["store.pool.reads_per_op"] = c.num["store.pool.reads"] / ops
	m["store.pool.evictions_per_op"] = c.num["store.pool.evictions"] / ops
	m["store.page_read_us_p50"] = c.hist["store.page_read_ns"].Quantile(0.5) / 1e3
	m["store.latch_wait_us_per_op"] = float64(c.hist["buffer_pool.latch_wait_ns"].SumNS) / 1e3 / ops
	user := float64(in.build.userBytes)
	m["store.wal.bytes_per_user_byte"] = in.build.walBytes / user
	m["store.wal.fsyncs_per_commit"] = ratio(c.num["store.wal.fsyncs"], c.num["store.wal.commits"])
	m["store.wal.checkpoints"] = c.num["store.wal.checkpoints"]
	m["store.file_bytes_per_user_byte"] = float64(fileBytes) / user

	m["rel.select_us_p50"] = kindQuantile(a, 0.5, gen.Sel1Pct, gen.SelOne) / 1e3
	m["rel.join_us_p50"] = kindQuantile(a, 0.5, gen.Join2) / 1e3
	m["rel.scanned_per_matched"] = ratio(c.num["rel.path.rel_index.scanned"], c.num["rel.path.rel_index.matched"])
	m["rel.insert_us_per_tuple"] = ratio(float64(in.build.insertNS)/1e3, float64(in.build.tuples))

	recursive := float64(countKind(a.ops, gen.Path) + countKind(a.ops, gen.SG))
	var solutions float64
	for _, op := range a.ops {
		if op.Kind == gen.Path || op.Kind == gen.SG {
			solutions += float64(op.Want.Count)
		}
	}
	fix := c.num["setops.queries"]
	m["setops.fixpoints_per_recursive_op"] = ratio(fix, recursive)
	m["setops.iterations_per_fixpoint"] = ratio(c.num["setops.iterations"], fix)
	m["setops.delta_tuples_per_solution"] = ratio(c.num["setops.delta_tuples"], solutions)
	m["setops.pages_read_per_fixpoint"] = ratio(c.num["setops.pages_read"], fix)
	m["setops.fallbacks"] = c.num["setops.fallbacks"]
	m["setops.materialize_us_p50"] = quantile(a.materializeNS, 0.5) / 1e3

	if served {
		m["server.rtt_overhead_us"] = kindQuantile(a, 0.5, gen.Route1, gen.Route2)/1e3 - inprocP50
		m["server.read_p99_us"] = kindQuantile(a, 0.99, gen.Route1, gen.Route2) / 1e3
		m["server.write_p99_us"] = kindQuantile(a, 0.99, gen.Write) / 1e3
		m["server.sheds"] = c.num["server.accept_sheds"] + c.num["server.admission_sheds"]
		m["server.queue_depth_max"] = a.queueDepthMax
		m["server.query_errors"] = c.num["server.query_errors"]
	}

	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		m["runtime.peak_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	m["runtime.heap_live_mb"] = float64(ms.HeapAlloc) / (1 << 20)
	pauses := make([]int64, 0, len(ms.PauseNs))
	for i := uint32(0); i < min(ms.NumGC, uint32(len(ms.PauseNs))); i++ {
		pauses = append(pauses, int64(ms.PauseNs[i]))
	}
	m["runtime.gc_pause_us_p99"] = quantile(pauses, 0.99) / 1e3

	m["bench.trace_overhead_pct"] = (ratio(tracedNS(trs)/float64(b.n), wall/ops) - 1) * 100

	for name, unit := range perLayerUnits {
		res.Metrics[name] = Metric{m[name], unit}
	}
	return checks, nil
}

// reportSelfTimes prints each layer's self time per traced operation and
// the share the storage path's layers have of the untraced median.
func reportSelfTimes(log io.Writer, tf traceFile, p50 float64) {
	layers := make([]string, 0, len(tf.SelfUSPerOp))
	for l := range tf.SelfUSPerOp {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	var storage float64
	for _, l := range layers {
		fmt.Fprintf(log, "# self time %-9s %10.3f us/op\n", l, tf.SelfUSPerOp[l])
		switch l {
		case "edb", "store", "loader", "dict":
			storage += tf.SelfUSPerOp[l]
		}
	}
	fmt.Fprintf(log, "# self time of edb+store+loader+dict is %.3f us/op, %.2f of the untraced op_p50 of %.3f us\n", storage, ratio(storage, p50), p50)
}

// tracedNS is what the traced operations cost without their probes: each
// operation's span minus its probe spans, which are replay and not
// tracing. Against the untraced cost it gives the tracing overhead.
func tracedNS(trs []*tracer) float64 {
	var ns float64
	for _, tr := range trs {
		probeNS := map[int]int64{}
		for _, s := range tr.spans {
			if s.Parent != 0 && s.Name != "run" && s.Layer != "store" {
				probeNS[s.Parent] += s.End - s.Start
			}
		}
		for _, s := range tr.spans {
			if s.Parent == 0 {
				ns += float64(s.End - s.Start - probeNS[s.ID])
			}
		}
	}
	return ns
}

func countKind(ops []gen.Op, k gen.Kind) int {
	n := 0
	for i := range ops {
		if ops[i].Kind == k {
			n++
		}
	}
	return n
}

// kindQuantile is the q-th latency quantile, in nanoseconds, of the
// phase's operations of the given kinds.
func kindQuantile(ph phase, q float64, kinds ...gen.Kind) float64 {
	var lat []int64
	for i := range ph.ops {
		for _, k := range kinds {
			if ph.ops[i].Kind == k {
				lat = append(lat, ph.lat[i])
			}
		}
	}
	return quantile(lat, q)
}

// inProcessP50 runs the read operations of ops on a session of this
// process and returns their median latency in microseconds.
func inProcessP50(in *instance, ops []gen.Op) (float64, error) {
	s, err := in.kb.NewSession()
	if err != nil {
		return 0, err
	}
	defer s.Close()
	tgt := sessionTarget{s}
	var lat []int64
	for i := range ops {
		if ops[i].Kind == gen.Write {
			continue
		}
		t0 := time.Now()
		if _, err := tgt.query(ops[i].Goal); err != nil {
			return 0, err
		}
		lat = append(lat, time.Since(t0).Nanoseconds())
	}
	return quantile(lat, 0.5) / 1e3, nil
}
