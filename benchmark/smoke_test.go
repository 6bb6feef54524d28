package benchmark

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func smokeConfig(t *testing.T, workload string, trace bool) Config {
	return Config{Workload: workload, Seed: 7, Seconds: 0.2, Trace: trace, Scale: 0.01,
		Dir: t.TempDir(), TraceDir: t.TempDir(), Log: io.Discard}
}

// TestSmoke runs every workload, untraced and traced, at a hundredth of
// its size through the code path of the real benchmark, and checks that
// every metric BENCHMARK.json names is emitted with its unit and that no
// operation failed. The mechanism assertions are about the full-size
// workloads (a hundredth of term_cold fits its caches), so Correct is
// not required here.
func TestSmoke(t *testing.T) {
	sp, err := readSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(Workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(sp.Workloads), len(Workloads))
	}
	for i, w := range sp.Workloads {
		if w.Name != Workloads[i] {
			t.Fatalf("workload %d: BENCHMARK.json says %q, the harness %q", i, w.Name, Workloads[i])
		}
		for _, trace := range []bool{false, true} {
			cfg := smokeConfig(t, w.Name, trace)
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: %d failed of %d attempted", w.Name, trace, res.Failed, res.Attempted)
			}
			want := map[string]string{}
			if trace {
				for _, m := range sp.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range sp.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, BENCHMARK.json lists %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				got, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s not emitted", w.Name, trace, name)
				} else if got.Unit != unit {
					t.Errorf("%s trace=%v: metric %s has unit %q, BENCHMARK.json says %q", w.Name, trace, name, got.Unit, unit)
				} else if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %v", w.Name, trace, name, got.Value)
				}
			}
			if trace {
				checkTraceFile(t, filepath.Join(cfg.TraceDir, "trace-"+w.Name+".json"))
			}
		}
	}
}

// checkTraceFile verifies that every span but the root names an existing
// parent that encloses it, and that an operation's spans share its id.
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(raw, &tf); err != nil {
		t.Fatal(err)
	}
	if len(tf.Spans) < 2 || tf.Spans[0].Parent != 0 {
		t.Fatalf("%s: %d spans, first has parent %d", path, len(tf.Spans), tf.Spans[0].Parent)
	}
	byID := map[int]Span{}
	for _, s := range tf.Spans {
		byID[s.ID] = s
	}
	for _, s := range tf.Spans[1:] {
		p, ok := byID[s.Parent]
		if !ok {
			t.Fatalf("%s: span %d names parent %d, which does not exist", path, s.ID, s.Parent)
		}
		if s.Start < p.Start || s.End > p.End || s.End < s.Start {
			t.Fatalf("%s: span %d [%d,%d] is not inside its parent [%d,%d]", path, s.ID, s.Start, s.End, p.Start, p.End)
		}
		if p.Op != 0 && p.Op != s.Op {
			t.Fatalf("%s: span %d has op %d, its parent op %d", path, s.ID, s.Op, p.Op)
		}
	}
}

// TestBrokenOracleFails shows that the answer check is live: with every
// expected answer falsified the run must report failures.
func TestBrokenOracleFails(t *testing.T) {
	cfg := smokeConfig(t, "term_hot", false)
	cfg.BreakOracle = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != res.Attempted {
		t.Fatalf("falsified oracle: correct=%v, %d failed of %d", res.Correct, res.Failed, res.Attempted)
	}
}

// TestSpread pins the quartile rule to Python's
// statistics.quantiles(v, n=4), which gives [1.75, 3.75, 5.25] here.
func TestSpread(t *testing.T) {
	got := spread([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3.5})
	if want := (5.25 - 1.75) / 3.75; math.Abs(got-want) > 1e-12 {
		t.Fatalf("spread = %v, want %v", got, want)
	}
}
