// Command educebench runs the repository's benchmark: one workload and
// one seed per invocation (every workload when -workload is omitted),
// printing each metric by name with its unit and, as the last line of
// standard output, one JSON object with the result. It exits non-zero
// when an answer was wrong or a mechanism assertion failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/benchmark"
)

func main() {
	var cfg benchmark.Config
	var trace int
	var aa int
	flag.StringVar(&cfg.Workload, "workload", "", "workload to run: term_hot, term_cold, set_rw or served_rw (default: all four)")
	flag.Uint64Var(&cfg.Seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&cfg.Seconds, "seconds", 20, "length of the timed phase: this many seconds of rounds at the workload's nominal rate")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced run and reports the per-layer metrics")
	flag.Float64Var(&cfg.Scale, "scale", 1, "shrink every size (smoke tests)")
	flag.StringVar(&cfg.Dir, "dir", ".bench_build/data", "directory to create data directories in")
	flag.StringVar(&cfg.TraceDir, "trace-dir", "benchmark/out", "directory the traced run writes trace-<workload>.json to")
	flag.BoolVar(&cfg.BreakOracle, "break-oracle", false, "falsify every expected answer (test only): the run must fail")
	flag.IntVar(&aa, "aa", 0, "A/A gate: run two interleaved sets of this many full runs and compare their medians")
	flag.Parse()
	cfg.Trace = trace != 0
	cfg.Log = os.Stdout

	if aa > 0 {
		ok, err := benchmark.AA(os.Stdout, aa, cfg.Seed, cfg.Seconds)
		if err != nil {
			fmt.Fprintln(os.Stderr, "educebench:", err)
			os.Exit(2)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	names := benchmark.Workloads
	if cfg.Workload != "" {
		names = []string{cfg.Workload}
	}
	correct := true
	for _, name := range names {
		cfg.Workload = name
		res, err := benchmark.Run(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "educebench:", err)
			os.Exit(2)
		}
		keys := make([]string, 0, len(res.Metrics))
		for k := range res.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("%-36s %16.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
		}
		fmt.Printf("%-36s %16.6f ratio (%d failed of %d attempted)\n", "fail_ratio",
			float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "educebench:", err)
			os.Exit(2)
		}
		fmt.Println(string(line))
		correct = correct && res.Correct
	}
	if !correct {
		os.Exit(1)
	}
}
